"""Measurement harness on top of the orbit machinery.

Orbit-degree counts (the field-degree observable), bounded integer-relation
search across all conjugate embeddings with exact group-law verification,
odd-part bookkeeping, and assembled independence reports.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import arith
from .ellcurve import CurveModel, CurvePoint, INFINITY, point_add, point_mul
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


def _check_bound(B: int) -> None:
    # the coefficient bound of one relation search
    if not 1 <= B <= 50:
        raise ValueError("B must be in 1..50")


def orbit_degree(orbit: OrbitEvaluation, n: int) -> int:
    """Number of distinct x(n P^sigma) over the orbit: as x(P) = x(Q)
    exactly when Q = +-P, the classes of n z^sigma in C/L up to sign.

    The orbit stores each z as its torus_coordinates (A, B), exact mod 2^K,
    and n (A, B) stands for n z.  Two classes merge when the difference or
    the sum of their n (A, B) is near L (Lattice.near; its docstring shows
    that two points of one class always are, given a premise on L's size).
    Distinct classes within 2^10 times the radius 2^-(prec/2) max|w_i|
    (slack 10) raise ClusterAmbiguous.  The identity is the class of 0.
    """
    if not 1 <= n <= _TORSION_CAP:
        raise ValueError("n must be in 1..12")
    L = orbit.lattice
    reps: list[tuple[int, int]] = []
    for A, B in orbit.torus_coordinates:
        a, b = n * A, n * B
        offsets = [(a - e * ra, b - e * rb) for ra, rb in reps for e in (1, -1)]
        close = [o for o in offsets if L.near(*o, slack=10)]
        if any(L.near(*o) for o in close):
            continue
        if close:
            raise ClusterAmbiguous(
                "two classes within 2^10 times the merge radius")
        reps.append((a, b))
    return len(reps)


class Relation(arith._Record):
    """t*(n_1 P_1 + ... + n_r P_r) = identity, t a torsion slack <= 12."""

    coefficients: tuple[int, ...]
    torsion_slack: int

    def __post_init__(self):
        if not any(self.coefficients):
            raise ValueError("coefficients must not all vanish")
        if not 1 <= self.torsion_slack <= _TORSION_CAP:
            raise ValueError("torsion_slack must be in 1..12")


def relation_search(orbits, B: int) -> Relation | None:
    """Exhaustive box search for integer dependence among points, one per
    orbit, whose conjugate embeddings z_i^(sigma) are the orbit's
    torus_coordinates (A_i, B_i); the orbits share one lattice L.  A
    candidate (n_1..n_r, t), 0 <= n_1 <= B, |n_i| <= B, not all 0, 1 <= t <=
    12, is accepted only if Lattice.near holds for the exact sum t sum n_i
    (A_i, B_i) at every combination of embeddings: z = t sum n_i z_i^(sigma)
    is within 2^-(prec/2) max|w_i| of L, prec = L.precision_bits, and the
    next-nearest lattice point is 2^10 times farther.  The first accepted
    candidate in lexicographic order (vector, then t) wins.  The scan
    takes the prefixes (n_1..n_(r-1)) in lexicographic order; the sums of
    a prefix at the first embeddings form a line, (a + k A_r, b + k B_r),
    k = n_r + B = 0..2B, and L.torsion_on_line returns its points with the
    t at which t times the sum passes near's bail-out bound sigma, a
    necessary condition of near there, after one screen that drops none:
    such a sum's first coordinate x has |t x - j 2^K| <= sigma, j in 0..t,
    so x lies within sigma + 1 of the key floor(j 2^K / t).
    """
    r = len(orbits)
    if not 2 <= r <= _MAX_POINTS:
        raise ValueError(f"relation search supports 2..{_MAX_POINTS} points")
    _check_bound(B)
    L = orbits[0].lattice
    if any(o.lattice != L for o in orbits):
        raise ValueError("the orbits must share one lattice")
    fixed = [o.torus_coordinates for o in orbits]
    *head, (Ar, Br) = (c[0] for c in fixed)
    for prefix in itertools.product(range(B + 1),
                                    *[range(-B, B + 1)] * (r - 2)):
        a = sum(n * x for n, (x, _) in zip(prefix, head)) - B * Ar
        b = sum(n * y for n, (_, y) in zip(prefix, head)) - B * Br
        for k, ts in L.torsion_on_line(a, b, Ar, Br, 2 * B + 1, _TORSION_CAP):
            vec = (*prefix, k - B)
            if not any(vec):
                continue
            for t in ts:
                if all(L.near(t * sum(n * x for n, (x, _) in zip(vec, pts)),
                              t * sum(n * y for n, (_, y) in zip(vec, pts)))
                       for pts in itertools.product(*fixed)):
                    return Relation(coefficients=vec, torsion_slack=t)
    return None


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


class FieldEntry(arith._Record):
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


class IndependenceReport(arith._Record):
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
    admissible and B must be in 1..50, the relation search's limits, both
    checked before any orbit is evaluated.  A domain error
    (HeegnerlabError) in one field is recorded in its entry as
    "<stage>: <type>: <message>", with stage one of orbit, degree, trace,
    recognize; any other exception propagates.  The relation's coefficients
    are aligned with discs, 0 for a field that did not join the search."""
    if len(set(discs)) != len(discs):
        raise ValueError("discriminants must be distinct")
    _check_bound(B)
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
            entries.append(FieldEntry(discriminant=D, admissible=False,
                                      error="HeegnerConditionFailed"))
            continue
        try:
            orbit = orbit_points(E, D, precision_bits)
        except HeegnerlabError as exc:
            error = f"orbit: {type(exc).__name__}: {exc}"
            entries.append(FieldEntry(D, admissible=True, error=error))
            continue
        entry, exact_pt = _orbit_entry(orbit)
        if entry.error is None:  # the one fact that depends on B
            entry = entry.replace(prime_to_bound_part=arith.prime_to_B_part(
                entry.class_number, B))
        entries.append(entry)
        orbits.append(orbit)  # it joins the search even if a stage failed
        exact.append(exact_pt)
        joined.append(i)
    relation = None
    verdict = "no_relation_up_to_bound"
    if len(orbits) >= 2:
        found = relation_search(orbits, B)
        if found is not None:
            verdict = "relation_found_numerical"
            # a point with coefficient 0 takes no part: it needs no exact point
            points = [INFINITY if n == 0 else P
                      for n, P in zip(found.coefficients, exact)]
            if None not in points:
                try:
                    if verify_relation(points, found, E):
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


@lru_cache(maxsize=32)
def _orbit_entry(orbit):
    """(entry but its B-part, exact trace point or None) of an orbit, kept
    for the last 32 orbits: a field two reports share is traced once."""
    h = len(orbit.torus_coordinates)  # one fiber point per ideal class
    D, E = orbit.discriminant, orbit.curve
    stage = "degree"
    try:
        degs = tuple(orbit_degree(orbit, n) for n in (1, 2, 3))
        stage = "trace"
        tr = trace_point(orbit)
        stage = "recognize"
        recog, exact_pt = _recognize_trace(tr)
    except HeegnerlabError as exc:
        error = f"{stage}: {type(exc).__name__}: {exc}"
        return FieldEntry(discriminant=D, admissible=True, error=error), None
    div_ok = None
    if E.modular_degree is not None:
        div_ok = (degs[0] * math.factorial(E.modular_degree)) % h == 0
    entry = FieldEntry(
        discriminant=D,
        admissible=True,
        class_number=h,
        odd_part=arith.odd_part(h),
        orbit_degrees=degs,
        recognition=recog,
        trace_is_identity=tr.is_identity,
        divisibility_ok=div_ok,
    )
    return entry, exact_pt


def _recognize_trace(tr):
    # (human-readable outcome, exact point or None) for a trace point
    if tr.is_identity:
        return "trace is the identity", None
    try:
        rec = recognize_trace(tr)
    except RecognitionFailed as exc:
        return f"unrecognized: {exc}", None
    P = CurvePoint(*rec.value)
    return f"{rec.kind} {P}", P
