"""Measurement harness on top of the orbit machinery.

Orbit-degree counts (the field-degree observable), bounded integer-relation
search across all conjugate embeddings with exact group-law verification,
odd-part bookkeeping, and assembled independence reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from mpmath import mp, mpc

from . import arith, qform
from .ellcurve import CurveModel, CurvePoint, INFINITY, point, point_add, point_mul
from .errors import (
    ClusterAmbiguous,
    FieldMismatch,
    HeegnerConditionFailed,
    HeegnerlabError,
    RecognitionFailed,
)
from .heegner import heegner_condition
from .lattice import Lattice, weierstrass_map
from .modparam import (OrbitEvaluation, orbit_points, recognize_trace,
                       trace_point)

_CLUSTER_TOL = 1e-10
_TORSION_CAP = 12


def _cluster_count(values, tol: float) -> int:
    """Number of distinct values up to tol; ambiguous when a merge decision
    falls in the (tol, 10*tol) dead zone."""
    vals = sorted(values, key=lambda v: (mp.re(v), mp.im(v)))
    reps: list[mpc] = []
    for v in vals:
        dists = [abs(v - r) for r in reps]
        if dists and min(dists) <= tol:
            continue
        if dists and min(dists) < 10 * tol:
            raise ClusterAmbiguous(
                f"cluster gap {float(min(dists)):.3e} within 10x of tolerance"
            )
        reps.append(v)
    return len(reps)


def orbit_degree(E: CurveModel, D: int, n: int, precision_bits: int) -> int:
    """Distinct x-coordinates among {x(n * P^sigma)} over the full conjugate
    orbit of discriminant D."""
    if not 1 <= n <= _TORSION_CAP:
        raise ValueError("n must be in 1..12")
    if not heegner_condition(D, E.conductor):
        raise HeegnerConditionFailed(f"D={D} inadmissible for level {E.conductor}")
    return _orbit_degree(orbit_points(E, D, precision_bits), n)


def _orbit_degree(orbit: OrbitEvaluation, n: int) -> int:
    # n-multiplication is done on the torus as n*z mod the lattice
    prec = orbit.precision_bits
    L = orbit.lattice
    xs = []
    has_identity = False
    with mp.workprec(prec + 20):
        if n == 1:  # orbit_points mapped every point, raising on the identity
            return _cluster_count([x for x, _ in orbit.points_xy], _CLUSTER_TOL)
        for z in orbit.points_z:
            nz = L.reduce(n * z)
            if L.distance(nz) < mp.mpf(2) ** (-(prec // 2)):
                has_identity = True  # n*P is the identity; one shared value
            else:
                xs.append(weierstrass_map(nz, orbit.curve, L)[0])
        count = _cluster_count(xs, _CLUSTER_TOL) if xs else 0
        return count + has_identity


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


@dataclass(frozen=True)
class EmbeddingSet:
    """One base point with all its conjugate logarithm embeddings."""

    zs: tuple[mpc, ...]
    lattice: Lattice

    @staticmethod
    def from_orbit(orbit: OrbitEvaluation) -> "EmbeddingSet":
        return EmbeddingSet(zs=tuple(orbit.points_z), lattice=orbit.lattice)


def _coefficient_vectors(r: int, B: int):
    # lexicographic: n_1 ascending from 0, later entries -B..B ascending
    first = range(0, B + 1)
    rest = [range(-B, B + 1)] * (r - 1)
    for vec in itertools.product(first, *rest):
        if any(vec):
            yield vec


def relation_search(points, B: int, precision_bits: int) -> Relation | None:
    """Exhaustive box search for integer dependence among base points.

    points: sequence of EmbeddingSet (or OrbitEvaluation).  A candidate
    (n_1..n_r, t), 0 <= n_1 <= B, |n_i| <= B, 1 <= t <= 12, is accepted only
    if z = t * sum n_i z_i^(sigma) is within tol * scale of the lattice L of
    the first point at every combination of available conjugate embeddings,
    with the next-nearest lattice point at least 2^10 times farther; here
    tol = 2^-(precision_bits/2) and scale = max(|w1|, |w2|).  The first
    accepted candidate in lexicographic order (vector, then t) wins.

    That mpmath test runs only on the candidates that pass an exact integer
    sieve.  With K = precision_bits + 20, every embedding z_i is stored as
    its lattice coordinates (a_i, b_i) rounded to integers A_i = round(a_i
    2^K), B_i = round(b_i 2^K), and a candidate survives only if, at every
    combination, t * sum n_i A_i and t * sum n_i B_i both lie within sigma
    of a multiple of 2^K.  The sieve never rejects an accepted candidate:
    if |z - m| = |w| < tol * scale for a lattice point m, the coordinates
    (s, t') of w satisfy |s| <= |w2| |w| / |det| and |t'| <= |w1| |w| / |det|
    (det = Im(conj(w1) w2)), so both are below scale^2 tol / |det|.  sigma
    is twice that in units of 2^-K, plus 2^13 units: rounding the A_i
    contributes at most t * sum |n_i| <= 2,400 half units, and the float
    error of both sides at K bits is far below the spare scale^2 tol / |det|
    >= 2^(K - precision_bits/2) units.  So the result equals that of the
    plain box search, at a tiny fraction of its mpmath work.
    """
    sets = [
        EmbeddingSet.from_orbit(p) if isinstance(p, OrbitEvaluation) else p
        for p in points
    ]
    r = len(sets)
    if not 2 <= r <= 4:
        raise ValueError("relation search supports 2..4 points")
    if not 1 <= B <= 50:
        raise ValueError("B must be in 1..50")
    tol = mp.mpf(2) ** (-(precision_bits // 2))
    K = precision_bits + 20
    mask = (1 << K) - 1
    # all embeddings share the first point's lattice when the points sit on
    # one curve; use that lattice for the sum
    L = sets[0].lattice
    with mp.workprec(K):
        combos = list(itertools.product(*(range(len(s.zs)) for s in sets)))
        scale = max(abs(L.omega1), abs(L.omega2))
        det = abs(mp.im(mp.conj(L.omega1) * L.omega2))
        sigma = int(mp.ceil(mp.ldexp(2 * scale**2 * tol / det, K))) + 2**13
        fixed = [
            [tuple(int(mp.nint(mp.ldexp(c, K))) for c in L.coordinates(z))
             for z in s.zs]
            for s in sets
        ]
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
                    if _near_lattice_everywhere(vec, t, sets, combos, L, tol * scale):
                        return Relation(coefficients=vec, torsion_slack=t)
    return None


def _coordinate_sums(vec, combo, fixed) -> tuple[int, int]:
    a = b = 0
    for n, coords, ci in zip(vec, fixed, combo):
        a += n * coords[ci][0]
        b += n * coords[ci][1]
    return a, b


def _near_lattice_everywhere(vec, t, sets, combos, L, bound) -> bool:
    # the acceptance test: z within bound of L, next-nearest 2^10 farther
    for combo in combos:
        z = mp.mpc(0)
        for i, (s, ci) in enumerate(zip(sets, combo)):
            z += vec[i] * s.zs[ci]
        z *= t
        d0, d1 = L.nearest_distances(z)
        if d0 >= bound or d1 < (2**10) * bound:
            return False
    return True


def verify_relation(exact_points, rel: Relation, E: CurveModel) -> bool:
    """Exact group-law check of t * sum n_i P_i = identity.

    exact_points: CurvePoints with coordinates in Q or a single common
    quadratic field (FieldMismatch otherwise - verification stays numerical).
    """
    fields = set()
    for P in exact_points:
        f = P.field()
        if f is not None:
            fields.add(f)
    if len(fields) > 1:
        raise FieldMismatch(f"points live over sqrt of {sorted(fields)}")
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
    ring_class_number: int | None = None
    ring_class_odd_part: int | None = None
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
    conductor: int | None = None,
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
    if sum(admissible) > 4:
        raise ValueError("the relation search takes at most 4 admissible fields")
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
        entry, orbit, exact_pt = _field_entry(E, D, precision_bits, conductor, B)
        entries.append(entry)
        if orbit is not None:
            orbits.append(orbit)
            exact.append(exact_pt)
            joined.append(i)
    relation = None
    verdict = "no_relation_up_to_bound"
    if len(orbits) >= 2:
        found = relation_search(orbits, B, precision_bits)
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


def _field_entry(E, D, precision_bits, conductor, B):
    """(entry, orbit, exact trace point) for one admissible field.  An orbit
    that was evaluated joins the relation search even if a later stage
    fails; the exact point is then None."""
    stage = "orbit"
    orbit = None
    try:
        h = len(qform.enumerate_reduced(D).forms)
        rc = rc_odd = None
        if conductor is not None:
            rc = qform.ring_class_number(D, conductor)
            rc_odd = arith.odd_part(rc).odd_part
        orbit = orbit_points(E, D, precision_bits)
        stage = "degree"
        degs = tuple(_orbit_degree(orbit, n) for n in (1, 2, 3))
        stage = "trace"
        tr = trace_point(orbit)
        stage = "recognize"
        recog, exact_pt = _recognize_trace(tr, E, precision_bits)
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
        ring_class_number=rc,
        ring_class_odd_part=rc_odd,
        divisibility_ok=div_ok,
    )
    return entry, orbit, exact_pt


def _recognize_trace(tr, E, precision_bits):
    # (human-readable outcome, exact point or None) for a trace point
    if tr.is_identity:
        return "trace is the identity", None
    try:
        rec = recognize_trace(tr, E, precision_bits)
    except RecognitionFailed as exc:
        return f"unrecognized: {exc}", None
    if rec.kind == "rational":
        rx, ry = rec.value
        return f"rational ({rx}, {ry})", point(rx, ry)
    return f"{rec.kind} {rec.value}", CurvePoint(rec.value[0], rec.value[1])
