"""Exact elliptic curve core: Weierstrass models, group law over Q and over
quadratic fields, point counting mod p, Hecke coefficient recursion, and the
Lutz-Nagell torsion enumeration.

Analytic pieces (period lattices, Weierstrass map, elliptic logarithm) live
in the lattice module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .errors import (
    BadReductionPrime,
    FieldMismatch,
    NonIntegralAtP,
)

Rat = Fraction


def _sqfree_split(d: int) -> tuple[int, int]:
    # d = s^2 * d0 with d0 squarefree; returns (d0, s)
    s = 1
    d0 = d
    f = 2
    while f * f <= abs(d0):
        while d0 % (f * f) == 0:
            d0 //= f * f
            s *= f
        f += 1
    return d0, s


@dataclass(frozen=True)
class QuadElt:
    """Exact element x + y*sqrt(d) of a quadratic field, d squarefree != 0, 1."""

    x: Rat
    y: Rat
    d: int

    @staticmethod
    def make(x, y, d) -> "QuadElt | Fraction":
        x, y = Fraction(x), Fraction(y)
        if y == 0:
            return x
        d0, s = _sqfree_split(d)
        return QuadElt(x, y * s, d0)

    def _coerce(self, other):
        if isinstance(other, QuadElt):
            if other.d != self.d:
                raise FieldMismatch(f"sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElt(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElt.make(self.x + o.x, self.y + o.y, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElt(-self.x, -self.y, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElt.make(self.x - o.x, self.y - o.y, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElt.make(
            self.x * o.x + self.y * o.y * self.d, self.x * o.y + self.y * o.x, self.d
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.x * self.x - self.y * self.y * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return QuadElt.make(self.x / n, -self.y / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        result: QuadElt | Fraction = Fraction(1)
        for _ in range(n):
            result = self * result
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        if isinstance(other, QuadElt):
            return self.d == other.d and self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def conjugate(self):
        return QuadElt(self.x, -self.y, self.d)

    def __str__(self):
        return f"{self.x} + {self.y}*sqrt({self.d})"


def field_disc(value) -> int | None:
    """The d of Q(sqrt(d)) the value lives in, None for rationals."""
    return value.d if isinstance(value, QuadElt) else None


@dataclass(frozen=True)
class CurveModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""
    cm_discriminant: int | None = None
    modular_degree: int | None = None

    @property
    def a_invariants(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a_invariants
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return (b2, b4, b6, b8)

    @property
    def c_invariants(self) -> tuple[int, int]:
        b2, b4, b6, _ = self.b_invariants
        return (b2 * b2 - 24 * b4, -b2**3 + 36 * b2 * b4 - 216 * b6)

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def rhs(self, x):
        return x * x * x + self.a2 * x * x + self.a4 * x + self.a6

    def on_curve(self, x, y) -> bool:
        return y * y + self.a1 * x * y + self.a3 * y == self.rhs(x)


@dataclass(frozen=True)
class CurvePoint:
    """Either the point at infinity or affine (x, y) with exact coordinates
    (Fraction, or QuadElt over one quadratic field)."""

    x: object = None
    y: object = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def field(self) -> int | None:
        if self.is_infinity:
            return None
        dx, dy = field_disc(self.x), field_disc(self.y)
        if dx is not None and dy is not None and dx != dy:
            raise FieldMismatch(f"coordinates in sqrt({dx}) vs sqrt({dy})")
        return dx if dx is not None else dy

    def __str__(self):
        return "O" if self.is_infinity else f"({self.x}, {self.y})"


INFINITY = CurvePoint()


def point(x, y) -> CurvePoint:
    return CurvePoint(Fraction(x) if isinstance(x, int) else x,
                      Fraction(y) if isinstance(y, int) else y)


def _check_same_field(P: CurvePoint, Q: CurvePoint) -> None:
    dp, dq = P.field(), Q.field()
    if dp is not None and dq is not None and dp != dq:
        raise FieldMismatch(f"points over sqrt({dp}) and sqrt({dq})")


def point_neg(P: CurvePoint, E: CurveModel) -> CurvePoint:
    if P.is_infinity:
        return P
    return CurvePoint(P.x, -P.y - E.a1 * P.x - E.a3)


def point_add(P: CurvePoint, Q: CurvePoint, E: CurveModel) -> CurvePoint:
    """Exact group law on the general Weierstrass model."""
    _check_same_field(P, Q)
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    a1, a2, a3, a4, _ = E.a_invariants
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def point_mul(n: int, P: CurvePoint, E: CurveModel) -> CurvePoint:
    if n < 0:
        return point_mul(-n, point_neg(P, E), E)
    result = INFINITY
    acc = P
    while n:
        if n & 1:
            result = point_add(result, acc, E)
        acc = point_add(acc, acc, E)
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# point counting and Fourier coefficients


def _count_points(E: CurveModel, p: int) -> int:
    """#E(F_p) including infinity, by direct counting (nonsingular model)."""
    if p == 2:
        n = 1
        for x in range(2):
            for y in range(2):
                if (y * y + E.a1 * x * y + E.a3 * y - E.rhs(x)) % 2 == 0:
                    n += 1
        return n
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, b4, b6, _ = E.b_invariants
    qr = bytearray(p)
    for i in range(1, (p + 1) // 2):
        qr[i * i % p] = 1
    n = p + 1
    for x in range(p):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if g == 0:
            continue
        n += 1 if qr[g] else -1
    return n


def ap(E: CurveModel, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at a good prime."""
    if E.conductor % p == 0:
        raise BadReductionPrime(f"p={p} divides the conductor {E.conductor}")
    a = p + 1 - _count_points(E, p)
    assert a * a <= 4 * p, f"Hasse bound violated at {p}"
    return a


def ap_bad(E: CurveModel, p: int) -> int:
    """a_p at a bad prime of the minimal model: p minus the number of
    nonsingular F_p-points, which is +1 split multiplicative, -1 non-split,
    0 additive."""
    if E.conductor % p:
        raise ValueError(f"p={p} is a good prime")
    a1, a2, a3, a4, a6 = E.a_invariants
    n = 1  # infinity is always smooth
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - E.rhs(x)) % p:
                continue
            # partials: f_x = a1 y - 3x^2 - 2 a2 x - a4 ; f_y = 2y + a1 x + a3
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            if fx or fy:
                n += 1
    return p - n


@dataclass(frozen=True)
class QExpansion:
    coefficients: tuple[int, ...]  # a_1 .. a_M
    level: int

    def a(self, n: int) -> int:
        return self.coefficients[n - 1]


def an_coeffs(E: CurveModel, M: int, prefix: QExpansion | None = None) -> QExpansion:
    """Fourier coefficients a_1..a_M of the newform attached to E, from
    counting a_p at primes and the Hecke recursion.  prefix, an earlier
    result for E, is kept: only the a_n beyond it are computed."""
    if M < 1 or M > 10**6:
        raise ValueError("M out of range")
    known = prefix.coefficients if prefix is not None else (1,)
    if len(known) >= M:
        return QExpansion(known[:M], E.conductor)
    a = [0, *known] + [0] * (M - len(known))
    # smallest prime factor: the last, hence least, i <= sqrt(n) to write n
    spf = list(range(M + 1))
    for i in range(math.isqrt(M), 1, -1):
        spf[i * i :: i] = [i] * len(range(i * i, M + 1, i))
    for n in range(len(known) + 1, M + 1):
        p = pk = spf[n]
        while n % (pk * p) == 0:
            pk *= p
        if pk < n:  # n = pk * m with gcd(pk, m) = 1
            a[n] = a[pk] * a[n // pk]
        elif E.conductor % p:  # p^k at a good prime
            a[n] = ap(E, p) if n == p else a[p] * a[n // p] - p * a[n // p // p]
        else:
            a[n] = ap_bad(E, p) if n == p else a[p] * a[n // p]
    return QExpansion(tuple(a[1:]), E.conductor)


# ---------------------------------------------------------------------------
# torsion


def torsion_subgroup(E: CurveModel) -> tuple[tuple[CurvePoint, ...], tuple[int, ...]]:
    """Q-rational torsion points via Lutz-Nagell on the model
    Y^2 = X^3 - 27 c4 X - 54 c6 (X = 36x + 3b2, Y = 108(2y + a1x + a3)),
    orders confirmed by iterated addition up to 12.

    Returns (points including infinity, group invariants as for
    elementary divisors).
    """
    c4, c6 = E.c_invariants
    b2 = E.b_invariants[0]
    A, B = -27 * c4, -54 * c6
    disc = abs(-16 * (4 * A**3 + 27 * B * B))
    candidates_Y = [0]
    fact = arith.factorize(disc) if disc > 1 else {}
    divs = [1]
    for p, e in fact.items():
        divs = [d * p**k for d in divs for k in range(e // 2 + 1)]
    candidates_Y.extend(sorted(set(divs)))
    pts = {INFINITY}
    for Y in candidates_Y:
        for X in _integer_cubic_roots(A, B - Y * Y):
            x = Fraction(X - 3 * b2, 36)
            y = (Fraction(Y, 108) - E.a1 * x - E.a3) / 2
            P = CurvePoint(x, y)
            if not E.on_curve(P.x, P.y):
                continue
            if _torsion_order(P, E) is not None:
                pts.add(P)
                pts.add(point_neg(P, E))
    ordered = sorted(
        pts, key=lambda P: (0,) if P.is_infinity else (1, P.x, P.y)
    )
    structure = _torsion_structure(ordered, E)
    return tuple(ordered), structure


def _integer_cubic_roots(A: int, C: int) -> list[int]:
    # integer roots of X^3 + A X + C, from rounded numeric real roots
    from mpmath import mp, polyroots

    roots = []
    with mp.workprec(80):
        rts = polyroots([1, 0, A, C], maxsteps=200, extraprec=60)
    for r in rts:
        if abs(mp.im(r)) < 1e-6:
            n = int(mp.nint(mp.re(r)))
            for X in (n - 1, n, n + 1):
                if X**3 + A * X + C == 0:
                    roots.append(X)
    return sorted(set(roots))


def _torsion_order(P: CurvePoint, E: CurveModel) -> int | None:
    acc = P
    for n in range(1, 13):
        if acc.is_infinity:
            return n
        acc = point_add(acc, P, E)
    return None


def _torsion_structure(pts, E: CurveModel) -> tuple[int, ...]:
    n = len(pts)
    if n == 1:
        return ()
    orders = [1 if P.is_infinity else _torsion_order(P, E) for P in pts]
    mx = max(orders)
    if mx == n:
        return (n,)
    assert mx * 2 == n, "unexpected torsion structure"
    return (2, mx)


# ---------------------------------------------------------------------------
# reduction mod p


def reduce_mod_p(P: CurvePoint, E: CurveModel, p: int) -> tuple[int, int] | None:
    """Image of a rational point under coordinate-wise reduction mod p;
    None encodes the point at infinity on the reduced curve."""
    if E.conductor % p == 0:
        raise BadReductionPrime(f"p={p} divides the conductor")
    if P.is_infinity:
        return None
    if not isinstance(P.x, Fraction) or not isinstance(P.y, Fraction):
        raise FieldMismatch("reduction mod p is for rational points")
    for coord in (P.x, P.y):
        if coord.denominator % p == 0:
            raise NonIntegralAtP(f"{coord} is not p-integral at {p}")
    xr = P.x.numerator * pow(P.x.denominator, -1, p) % p
    yr = P.y.numerator * pow(P.y.denominator, -1, p) % p
    rhs = xr**3 + E.a2 * xr * xr + E.a4 * xr + E.a6
    assert (yr * yr + E.a1 * xr * yr + E.a3 * yr - rhs) % p == 0
    return (xr, yr)
