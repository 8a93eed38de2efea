"""Measurement harness on top of the orbit machinery.

Orbit-degree counts (the field-degree observable), bounded integer-relation
search across all conjugate embeddings with exact group-law verification,
odd-part bookkeeping, and assembled independence reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from mpmath import mp

from . import arith
from .ellcurve import CurveModel, CurvePoint, INFINITY, point, point_add, point_mul
from .errors import (
    ClusterAmbiguous,
    FieldMismatch,
    HeegnerlabError,
    RecognitionFailed,
)
from .heegner import heegner_condition
from .modparam import (OrbitEvaluation, orbit_points, recognize_trace,
                       trace_point)

_TORSION_CAP = 12
_MAX_POINTS = 4  # points one relation search combines


def orbit_degree(orbit: OrbitEvaluation, n: int) -> int:
    """Number of distinct x(n P^sigma) over the orbit: as x(P) = x(Q)
    exactly when Q = +-P, the classes of n z^sigma in C/L up to sign.

    With K = prec + 20 (prec = orbit.lattice.precision_bits) the orbit's
    z's are its integer torus_coordinates (A, B), and n (A, B) stands for
    n z mod 2^K Z^2.
    Two classes merge when both coordinates of their difference, or both
    of their sum, lie within tol = 2^(K - prec/2) of a multiple of 2^K; a
    nearest offset in [tol, 2^10 tol) raises ClusterAmbiguous.  The
    identity is the class of 0.

    Margin: if z is accurate to eta in C, its coordinates are accurate to
    eta scale / |det| (scale = max(|w1|, |w2|), det = Im(conj(w1) w2)), and
    (A, B) is within 1/2 + 2^K eta scale / |det| units of (s, t) 2^K.  For
    two points of one class, the difference or the sum of n (A, B) is then
    within n (1 + 2^(K+1) eta scale / |det|) units of a multiple of 2^K.
    eval_phi errs below 2^-(prec+3), a truncation tail below 2^-(prec+4)
    plus Horner rounding below 2^-(prec+20); the premise holds, as its term
    count bounds the tail with the true |a_n| <= 2n.  So eta stays below
    2^-(prec-5) |det| / scale whenever |det| / scale > 2^-8 (about 2 on the
    bundled curves).  That bounds 2^(K+1) eta scale / |det| by 2^26 and the
    offset by 12 (1 + 2^26) < 2^30 units, far below tol = 2^(prec/2 + 20)
    >= 2^46 units.  Distinct classes closer than 2^10 tol, 2^-(prec/2 - 10)
    of a period, raise rather than merge.
    """
    if not 1 <= n <= _TORSION_CAP:
        raise ValueError("n must be in 1..12")
    prec = orbit.lattice.precision_bits
    K = prec + 20
    period = 1 << K
    tol = 1 << (K - prec // 2)

    def offset(a, b):  # max-norm distance of (a, b) to 2^K Z^2
        return max(abs((a + period // 2) % period - period // 2),
                   abs((b + period // 2) % period - period // 2))

    reps: list[tuple[int, int]] = []
    for A, B in orbit.torus_coordinates:
        a, b = n * A, n * B
        nearest = min((min(offset(a - ra, b - rb), offset(a + ra, b + rb))
                       for ra, rb in reps), default=period)
        if nearest < tol:
            continue
        if nearest < 2**10 * tol:
            raise ClusterAmbiguous(
                f"classes {nearest / period:.3e} of a period apart, within "
                "2^10 of the tolerance"
            )
        reps.append((a, b))
    return len(reps)


@dataclass(frozen=True)
class Relation:
    """t*(n_1 P_1 + ... + n_r P_r) = identity, t a torsion slack <= 12."""

    coefficients: tuple[int, ...]
    torsion_slack: int

    def __post_init__(self):
        if not any(self.coefficients):
            raise ValueError("coefficients must not all vanish")
        if not 1 <= self.torsion_slack <= _TORSION_CAP:
            raise ValueError("torsion_slack must be in 1..12")


def _coefficient_vectors(r: int, B: int):
    # lexicographic: n_1 ascending from 0, later entries -B..B ascending
    first = range(0, B + 1)
    rest = [range(-B, B + 1)] * (r - 1)
    for vec in itertools.product(first, *rest):
        if any(vec):
            yield vec


def relation_search(orbits, B: int) -> Relation | None:
    """Exhaustive box search for integer dependence among points, one per
    orbit, whose conjugate embeddings z_i^(sigma) are the orbit's points_z;
    the orbits share one lattice L, and precision_bits = L.precision_bits.
    A candidate (n_1..n_r, t), 0 <= n_1 <= B, |n_i| <= B, 1 <= t <= 12, is
    accepted only if z = t * sum n_i z_i^(sigma) is within tol * scale of L
    at every combination of available conjugate embeddings, with the
    next-nearest lattice point at least 2^10 times farther; here tol =
    2^-(precision_bits/2) and scale = max(|w1|, |w2|).  The first accepted
    candidate in lexicographic order (vector, then t) wins.

    That mpmath test runs only on the candidates that pass an exact integer
    sieve.  With K = precision_bits + 20, every embedding z_i is read from
    its orbit's torus_coordinates, its lattice coordinates (a_i, b_i)
    rounded to integers A_i = round(a_i 2^K), B_i = round(b_i 2^K), and a
    candidate survives only if, at every combination, t * sum n_i A_i and
    t * sum n_i B_i both lie within sigma of a multiple of 2^K.  The sieve never rejects an accepted candidate:
    if |z - m| = |w| < tol * scale for a lattice point m, the coordinates
    (s, t') of w satisfy |s| <= |w2| |w| / |det| and |t'| <= |w1| |w| / |det|
    (det = Im(conj(w1) w2)), so both are below scale^2 tol / |det|.  sigma
    is twice that in units of 2^-K, plus 2^13 units: rounding the A_i
    contributes at most t * sum |n_i| <= 2,400 half units, and the float
    error of both sides at K bits is far below the spare scale^2 tol / |det|
    >= 2^(K - precision_bits/2) units.  So the result equals that of the
    plain box search, at a tiny fraction of its mpmath work.
    """
    r = len(orbits)
    if not 2 <= r <= _MAX_POINTS:
        raise ValueError(f"relation search supports 2..{_MAX_POINTS} points")
    if not 1 <= B <= 50:
        raise ValueError("B must be in 1..50")
    L = orbits[0].lattice
    if any(o.lattice != L for o in orbits):
        raise ValueError("the orbits must share one lattice")
    embeddings = [o.points_z for o in orbits]
    tol = mp.mpf(2) ** (-(L.precision_bits // 2))
    K = L.precision_bits + 20
    mask = (1 << K) - 1
    fixed = [o.torus_coordinates for o in orbits]
    with mp.workprec(K):
        combos = list(itertools.product(*(range(len(zs)) for zs in embeddings)))
        scale = max(abs(L.omega1), abs(L.omega2))
        det = abs(mp.im(mp.conj(L.omega1) * L.omega2))
        sigma = int(mp.ceil(mp.ldexp(2 * scale**2 * tol / det, K))) + 2**13
        for vec in _coefficient_vectors(r, B):
            sums = []  # integer coordinate sums, one per combination as needed
            for t in range(1, _TORSION_CAP + 1):
                for k, combo in enumerate(combos):
                    if k == len(sums):
                        sums.append(_coordinate_sums(vec, combo, fixed))
                    a, b = sums[k]
                    if ((t * a + sigma) & mask) > 2 * sigma or (
                        (t * b + sigma) & mask
                    ) > 2 * sigma:
                        break
                else:
                    if _near_lattice_everywhere(vec, t, embeddings, combos, L,
                                                tol * scale):
                        return Relation(coefficients=vec, torsion_slack=t)
    return None


def _coordinate_sums(vec, combo, fixed) -> tuple[int, int]:
    a = b = 0
    for n, coords, ci in zip(vec, fixed, combo):
        a += n * coords[ci][0]
        b += n * coords[ci][1]
    return a, b


def _near_lattice_everywhere(vec, t, embeddings, combos, L, bound) -> bool:
    # the acceptance test: z within bound of L, next-nearest 2^10 farther
    for combo in combos:
        z = mp.mpc(0)
        for i, (zs, ci) in enumerate(zip(embeddings, combo)):
            z += vec[i] * zs[ci]
        z *= t
        d0, d1 = L.nearest_distances(z)
        if d0 >= bound or d1 < (2**10) * bound:
            return False
    return True


def verify_relation(exact_points, rel: Relation, E: CurveModel) -> bool:
    """Exact group-law check of t * sum n_i P_i = identity.

    exact_points: CurvePoints with coordinates in Q or a quadratic field.
    The group law raises FieldMismatch when the relation adds points over
    two different quadratic fields (verification then stays numerical); a
    point with coefficient 0 takes no part, whatever its field.  A relation
    with more or fewer coefficients than points raises ValueError.
    """
    if len(rel.coefficients) != len(exact_points):
        raise ValueError("the relation needs one coefficient per point")
    acc = INFINITY
    for n, P in zip(rel.coefficients, exact_points):
        acc = point_add(acc, point_mul(n, P, E), E)
    acc = point_mul(rel.torsion_slack, acc, E)
    return acc.is_infinity


@dataclass(frozen=True)
class FieldEntry:
    discriminant: int
    admissible: bool
    error: str | None = None
    class_number: int | None = None
    odd_part: int | None = None
    prime_to_bound_part: int | None = None  # part of h coprime to the search bound
    orbit_degrees: tuple[int, ...] = ()  # degrees for n = 1, 2, 3
    recognition: str | None = None  # human-readable outcome
    trace_is_identity: bool | None = None
    divisibility_ok: bool | None = None  # h | orbitdeg * (modular_degree)!


@dataclass(frozen=True)
class IndependenceReport:
    curve_label: str
    entries: tuple[FieldEntry, ...]
    search_bound: int
    relation: Relation | None
    verdict: str  # relation_found_verified | relation_found_numerical | no_relation_up_to_bound
    hypothesis_note: str


def independence_report(
    E: CurveModel,
    discs,
    B: int,
    precision_bits: int,
) -> IndependenceReport:
    """Run the whole pipeline over several imaginary quadratic fields and
    assemble the three-valued verdict.  At most four discriminants may be
    admissible, the relation search's limit.  A domain error
    (HeegnerlabError) in one field is recorded in its entry as
    "<stage>: <type>: <message>", with stage one of orbit, degree, trace,
    recognize; any other exception propagates.  The relation's coefficients
    are aligned with discs, 0 for a field that did not join the search."""
    if len(set(discs)) != len(discs):
        raise ValueError("discriminants must be distinct")
    admissible = [heegner_condition(D, E.conductor) for D in discs]
    if sum(admissible) > _MAX_POINTS:
        raise ValueError(
            f"the relation search takes at most {_MAX_POINTS} admissible fields")
    entries = []
    orbits = []
    exact = []  # recognized rational points, aligned with orbits; None gaps
    joined = []  # index in discs of each orbit
    for i, (D, ok) in enumerate(zip(discs, admissible)):
        if not ok:
            entries.append(
                FieldEntry(
                    discriminant=D,
                    admissible=False,
                    error="HeegnerConditionFailed",
                )
            )
            continue
        entry, orbit, exact_pt = _field_entry(E, D, precision_bits, B)
        entries.append(entry)
        if orbit is not None:
            orbits.append(orbit)
            exact.append(exact_pt)
            joined.append(i)
    relation = None
    verdict = "no_relation_up_to_bound"
    if len(orbits) >= 2:
        found = relation_search(orbits, B)
        if found is not None:
            verdict = "relation_found_numerical"
            if all(p is not None for p in exact):
                try:
                    if verify_relation(exact, found, E):
                        verdict = "relation_found_verified"
                except FieldMismatch:
                    pass
            coefficients = [0] * len(discs)
            for i, n in zip(joined, found.coefficients):
                coefficients[i] = n
            relation = Relation(tuple(coefficients), found.torsion_slack)
    odd_parts = [e.odd_part for e in entries if e.odd_part is not None]
    note = (
        "measured odd parts of the class numbers: "
        + ", ".join(str(o) for o in odd_parts)
        + "; the independence criterion requires them to exceed a constant "
        "depending only on the curve and its parametrization, which is not "
        "explicit - the values are recorded, not compared."
    )
    return IndependenceReport(
        curve_label=E.label or f"conductor {E.conductor}",
        entries=tuple(entries),
        search_bound=B,
        relation=relation,
        verdict=verdict,
        hypothesis_note=note,
    )


def _field_entry(E, D, precision_bits, B):
    """(entry, orbit, exact trace point) for one admissible field.  An orbit
    that was evaluated joins the relation search even if a later stage
    fails; the exact point is then None."""
    stage = "orbit"
    orbit = None
    try:
        orbit = orbit_points(E, D, precision_bits)
        h = len(orbit.points_z)  # one fiber point per ideal class
        stage = "degree"
        degs = tuple(orbit_degree(orbit, n) for n in (1, 2, 3))
        stage = "trace"
        tr = trace_point(orbit)
        stage = "recognize"
        recog, exact_pt = _recognize_trace(tr)
    except HeegnerlabError as exc:
        error = f"{stage}: {type(exc).__name__}: {exc}"
        return FieldEntry(discriminant=D, admissible=True, error=error), orbit, None
    div_ok = None
    if E.modular_degree is not None:
        div_ok = (degs[0] * math.factorial(E.modular_degree)) % h == 0
    entry = FieldEntry(
        discriminant=D,
        admissible=True,
        class_number=h,
        odd_part=arith.odd_part(h).odd_part,
        prime_to_bound_part=arith.prime_to_B_part(h, B),
        orbit_degrees=degs,
        recognition=recog,
        trace_is_identity=tr.is_identity,
        divisibility_ok=div_ok,
    )
    return entry, orbit, exact_pt


def _recognize_trace(tr):
    # (human-readable outcome, exact point or None) for a trace point
    if tr.is_identity:
        return "trace is the identity", None
    try:
        rec = recognize_trace(tr)
    except RecognitionFailed as exc:
        return f"unrecognized: {exc}", None
    if rec.kind == "rational":
        rx, ry = rec.value
        return f"rational ({rx}, {ry})", point(rx, ry)
    return f"{rec.kind} {rec.value}", CurvePoint(rec.value[0], rec.value[1])
