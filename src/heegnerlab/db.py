"""Curve database: a strict JSON format for Weierstrass models plus metadata.

The format is deliberately rigid - exactly the documented fields, nothing
else - so that typos in metadata fail loudly at load time instead of
corrupting downstream measurements.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from . import arith
from .ellcurve import CurveModel
from .errors import ParseError, ValidationError

# integers are tested with type(v) is int: JSON true and false load as
# bool, a subclass of int
_REQUIRED = {"label", "a_invariants", "conductor"}
_OPTIONAL = {"cm_discriminant", "modular_degree", "known_generators"}


class CurveDatabaseEntry(arith._Record):
    label: str
    a_invariants: tuple[int, int, int, int, int]
    conductor: int
    cm_discriminant: int | None = None
    modular_degree: int | None = None
    known_generators: tuple[tuple[Fraction, Fraction], ...] = ()

    def curve(self) -> CurveModel:
        return CurveModel(*self.a_invariants, conductor=self.conductor,
                          label=self.label,
                          modular_degree=self.modular_degree)


def _parse_rational(raw, where: str) -> Fraction:
    if type(raw) is int:
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {raw!r}: {exc}") from None
    raise ParseError(f"{where}: rational must be an integer or 'p/q' string")


def _parse_entry(obj, index: int) -> CurveDatabaseEntry:
    where = f"entry {index}"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - _REQUIRED - _OPTIONAL
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = _REQUIRED - set(obj)
    if missing:
        raise ParseError(f"{where}: missing field(s) {sorted(missing)}")
    label = obj["label"]
    if not isinstance(label, str) or not label:
        raise ParseError(f"{where}: label must be a nonempty string")
    where = f"entry {index} ({label})"
    ai = obj["a_invariants"]
    if (
        not isinstance(ai, list)
        or len(ai) != 5
        or not all(type(a) is int for a in ai)
    ):
        raise ParseError(f"{where}: a_invariants must be five integers")
    N = obj["conductor"]
    if type(N) is not int or N < 1:
        raise ParseError(f"{where}: conductor must be a positive integer")
    cm = obj.get("cm_discriminant")
    if cm is not None and (type(cm) is not int or cm >= 0):
        raise ParseError(f"{where}: cm_discriminant must be a negative integer")
    deg = obj.get("modular_degree")
    if deg is not None and (type(deg) is not int or deg < 1):
        raise ParseError(f"{where}: modular_degree must be a positive integer")
    gens = []
    for j, g in enumerate(obj.get("known_generators", ())):
        gwhere = f"{where}, generator {j}"
        if not isinstance(g, list) or len(g) != 2:
            raise ParseError(f"{gwhere}: expected [x, y]")
        gens.append((_parse_rational(g[0], gwhere), _parse_rational(g[1], gwhere)))
    entry = CurveDatabaseEntry(
        label=label,
        a_invariants=tuple(ai),
        conductor=N,
        cm_discriminant=cm,
        modular_degree=deg,
        known_generators=tuple(gens),
    )
    _validate(entry, where)
    return entry


def _kraus(c4: int, c6: int) -> bool:
    """Kraus's conditions (Kraus 1989; Cremona, Algorithms for Modular
    Elliptic Curves, 3.2): some integral model has invariants c4, c6 iff
    1728 | c4^3 - c6^2, v3(c6) != 2, and c6 = -1 mod 4 or v2(c4) >= 4 and
    c6 = 0 or 8 mod 32."""
    return ((c4**3 - c6**2) % 1728 == 0 and (c6 % 9 or c6 % 27 == 0)
            and (c6 % 4 == 3 or c4 % 16 == 0 and c6 % 32 in (0, 8)))


def _validate(entry: CurveDatabaseEntry, where: str) -> None:
    E, N = entry.curve(), entry.conductor
    if E.discriminant == 0:
        raise ValidationError(f"{where}: singular model (discriminant 0)")
    # Ogg: ord_p N <= ord_p Delta on any integral model
    if E.discriminant % N:
        raise ValidationError(
            f"{where}: conductor {N} does not divide the"
            f" discriminant {E.discriminant}"
        )
    # a minimal model has bad reduction exactly at the primes of Delta
    if arith.prime_to_B_part(abs(E.discriminant), N) != 1:
        raise ValidationError(
            f"{where}: conductor {N} and discriminant {E.discriminant} have"
            " different prime divisors"
        )
    # non-minimal at p iff the model scaled by u = p is integral (Kraus);
    # for p >= 5 the conditions then always hold
    c4, c6 = E.c_invariants
    for p in arith.prime_divisors(N):
        if c4 % p**4 == 0 and c6 % p**6 == 0 and _kraus(c4 // p**4,
                                                         c6 // p**6):
            raise ValidationError(f"{where}: the model is not minimal at {p}")
        e = 1 if c4 % p else 2  # multiplicative, else additive reduction
        if p >= 5 and (N % p**e or N % p ** (e + 1) == 0):  # tame (Tate)
            raise ValidationError(f"{where}: conductor {N} must have"
                                  f" exponent {e} at {p}, by Tate")
    # the CM order is read off j(E), so a stored one must agree with it
    d = E.cm_order_discriminant
    if entry.cm_discriminant not in (None, d):
        raise ValidationError(
            f"{where}: cm_discriminant {entry.cm_discriminant} disagrees with"
            f" j = {Fraction(c4**3, E.discriminant)}, whose CM order has"
            f" discriminant {d}")
    for j, (x, y) in enumerate(entry.known_generators):
        if not E.on_curve(x, y):
            raise ValidationError(
                f"{where}, generator {j}: ({x}, {y}) is not on the curve"
            )


def load_database(path: str | None = None) -> tuple[CurveDatabaseEntry, ...]:
    """Load and validate a curve database; with no path, the bundled one."""
    if path is None:
        text = (
            resources.files("heegnerlab").joinpath("data/curves.json").read_text()
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, list):
        raise ParseError("top level must be an array of entries")
    entries = tuple(_parse_entry(obj, i) for i, obj in enumerate(doc))
    labels = [e.label for e in entries]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate labels in database")
    return entries


def find_curve(label: str, path: str | None = None) -> CurveDatabaseEntry:
    for entry in load_database(path):
        if entry.label == label:
            return entry
    raise ValidationError(f"no curve labelled {label!r} in database")
