"""Tests for orbit degrees, relation search/verification, and reports."""

import ast
import functools
import importlib
import inspect
import itertools
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

import heegnerlab
from heegnerlab import analysis, lattice, modparam, qform
from heegnerlab.analysis import (
    Relation,
    independence_report,
    orbit_degree,
    relation_search,
    verify_relation,
)
from heegnerlab.db import find_curve
from heegnerlab.ellcurve import QuadElt, point, point_mul, point_neg
from heegnerlab.errors import (
    ClusterAmbiguous,
    ConvergenceTooSlow,
    FiberIncomplete,
    FieldMismatch,
    HeegnerConditionFailed,
)
from heegnerlab.lattice import periods, weierstrass_map
from heegnerlab.modparam import OrbitEvaluation, orbit_points

PREC = 200

E37 = find_curve("37a").curve()
E32 = find_curve("32a").curve()
E49 = find_curve("49a").curve()
CURVES = {"37a": E37, "32a": E32, "49a": E49}


@functools.cache
def _lattice(label, prec):
    return periods(CURVES[label], prec)


# fibers on which orbit_degree must meet the p oracle, class numbers 1..10
ORACLE_FIBERS = {
    "37a": (-7, -44, -47, -63, -71, -95, -104, -108),
    "49a": (-19, -20, -31, -55, -87, -111, -143),
    "32a": (-7, -15, -39, -71, -95, -119),
}


def _coefficient_vectors(r: int, B: int):
    # lexicographic: n_1 ascending from 0, later entries -B..B ascending
    first = range(0, B + 1)
    rest = [range(-B, B + 1)] * (r - 1)
    for vec in itertools.product(first, *rest):
        if any(vec):
            yield vec


def box_search_oracle(embeddings, L, B, precision_bits):
    """The plain box search: the mpmath test on every candidate, in the
    order relation_search must reproduce."""
    r = len(embeddings)
    tol = mp.mpf(2) ** (-(precision_bits // 2))
    with mp.workprec(precision_bits + 20):
        combos = list(itertools.product(*(range(len(zs)) for zs in embeddings)))
        scale = max(abs(L.omega1), abs(L.omega2))
        for vec in _coefficient_vectors(r, B):
            for t in range(1, 13):
                ok = True
                for combo in combos:
                    z = mp.mpc(0)
                    for i, (zs, ci) in enumerate(zip(embeddings, combo)):
                        z += vec[i] * zs[ci]
                    z *= t
                    d0, d1 = L.nearest_distances(z)
                    if d0 >= tol * scale or d1 < (2**10) * tol * scale:
                        ok = False
                        break
                if ok:
                    return Relation(coefficients=vec, torsion_slack=t)
    return None


_CLUSTER_TOL = 1e-10


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


def p_orbit_degree_oracle(orbit: OrbitEvaluation, n: int) -> int:
    """The p-based orbit degree that orbit_degree replaced: distinct
    x(n P^sigma) by clustering the complex x-values."""
    # n-multiplication is done on the torus as n*z mod the lattice
    L = orbit.lattice
    prec = L.precision_bits
    xs = []
    has_identity = False
    with mp.workprec(prec + 20):
        if n == 1:  # map every point, as orbit_points once did
            return _cluster_count([weierstrass_map(z, orbit.curve, L)[0]
                                   for z in orbit.points_z], _CLUSTER_TOL)
        for z in orbit.points_z:
            nz = L.reduce(n * z)
            if L.distance(nz) < mp.mpf(2) ** (-(prec // 2)):
                has_identity = True  # n*P is the identity; one shared value
            else:
                xs.append(weierstrass_map(nz, orbit.curve, L)[0])
        count = _cluster_count(xs, _CLUSTER_TOL) if xs else 0
        return count + has_identity


def _synthetic_orbit(coordinates, prec=PREC):
    # an orbit of 37a whose points have the given lattice coordinates
    L = _lattice("37a", prec)
    with mp.workprec(prec + 20):
        zs = tuple(s * L.omega1 + t * L.omega2 for s, t in coordinates)
    return OrbitEvaluation(curve=E37, discriminant=-7,
                           torus_coordinates=tuple(map(L.torus, zs)),
                           terms_used=0, lattice=L)


def _orbits(sets, L):
    # one stand-in orbit per tuple of conjugate z's on L, the shape that
    # relation_search takes; the search reads only the points and L
    return [OrbitEvaluation(curve=E37, discriminant=-7,
                            torus_coordinates=tuple(map(L.torus, zs)),
                            terms_used=0, lattice=L) for zs in sets]


class TestClusterCount:
    # dyadic coordinates, exact at every precision
    def test_distinct_values(self):
        orbit = _synthetic_orbit([(0, 0), (0.125, 0), (0.25, 0.5)])
        assert orbit_degree(orbit, 1) == 3

    def test_merges_close_values(self):
        # a point, its negative and a 2^-prec shift are one class up to sign
        with mp.workprec(PREC + 20):
            shifted = 0.375 + mp.ldexp(1, -PREC)
        orbit = _synthetic_orbit([(0.375, 0.625), (0.625, 0.375),
                                  (shifted, 0.625)])
        assert orbit_degree(orbit, 1) == 1

    def test_pair_beyond_the_radius_is_two_classes(self):
        # 2^5 times the merge radius 2^-(prec/2) of a period apart: two
        # points of one class lie within 2^-9 of that radius, so these are
        # two classes
        with mp.workprec(PREC + 20):
            shifted = 0.625 + mp.ldexp(1, 5 - PREC // 2)
        orbit = _synthetic_orbit([(0.375, 0.625), (0.375, shifted)])
        assert orbit_degree(orbit, 1) == 2

    def test_classes_of_unequal_size_raise(self):
        # three points, two of them one class: the classes of a Galois orbit
        # are cosets of one subgroup, so sizes 2 and 1 cannot both occur
        with mp.workprec(PREC + 20):
            shifted = 0.375 + mp.ldexp(1, -PREC)
        orbit = _synthetic_orbit([(0.375, 0.625), (0.125, 0.25),
                                  (shifted, 0.625)])
        with pytest.raises(ClusterAmbiguous, match=r"sizes \[1, 2\]"):
            orbit_degree(orbit, 1)


class TestOrbitDegree:
    def test_degree_one_for_class_number_one(self):
        assert orbit_degree(orbit_points(E37, -7, PREC), 1) == 1

    def test_degree_three_for_class_number_three(self):
        assert orbit_degree(orbit_points(E37, -83, PREC), 1) == 3

    def test_multiplication_degrees_divide(self):
        orbit = orbit_points(E37, -83, PREC)
        d1 = orbit_degree(orbit, 1)
        for n in (2, 3):
            dn = orbit_degree(orbit, n)
            assert d1 % dn == 0
            assert d1 // dn <= n * n

    def test_n_one_reuses_the_orbit_coordinates(self, monkeypatch):
        # the degree is counted on the torus: no p for any n
        orbit = orbit_points(E37, -83, PREC)

        def no_p(*args):
            raise AssertionError("p evaluated by orbit_degree")

        monkeypatch.setattr(lattice, "weierstrass_p", no_p)  # under the map too
        degrees = [orbit_degree(orbit, n) for n in range(1, 13)]
        assert degrees[0] == 3
        assert all(3 % d == 0 for d in degrees)

    @pytest.mark.parametrize("label, D, h", [("37a", -50003, 56),
                                             ("49a", -6375, 60)])
    def test_too_little_precision_raises(self, label, D, h):
        # at 53 bits two of the h classes lie within the merge radius of
        # each other and the counts come out unequal; at 200 bits all h
        # classes are distinct
        with pytest.raises(ClusterAmbiguous):
            orbit_degree(orbit_points(CURVES[label], D, 53), 1)
        assert orbit_degree(orbit_points(CURVES[label], D, PREC), 1) == h

    def test_n_out_of_range(self):
        orbit = orbit_points(E37, -7, PREC)
        with pytest.raises(ValueError):
            orbit_degree(orbit, 0)
        with pytest.raises(ValueError):
            orbit_degree(orbit, 13)

    def test_inadmissible_discriminant(self):
        with pytest.raises(HeegnerConditionFailed):
            orbit_degree(orbit_points(E37, -20, PREC), 1)

    @pytest.mark.parametrize("label", sorted(ORACLE_FIBERS))
    def test_matches_the_p_oracle(self, label):
        for D in ORACLE_FIBERS[label]:
            orbit = orbit_points(CURVES[label], D, PREC)
            for n in (1, 2, 3, 6):
                assert orbit_degree(orbit, n) == p_orbit_degree_oracle(orbit, n)


class TestRelationDataclass:
    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Relation(coefficients=(0, 0), torsion_slack=1)

    def test_torsion_slack_range(self):
        with pytest.raises(ValueError):
            Relation(coefficients=(1, 0), torsion_slack=0)
        with pytest.raises(ValueError):
            Relation(coefficients=(1, 0), torsion_slack=13)


class TestRelationSearch:
    def _base_orbit(self):
        return orbit_points(E37, -7, PREC)

    def test_point_and_double(self):
        orb = self._base_orbit()
        L = orb.lattice
        z = orb.points_z[0]
        with mp.workprec(PREC + 20):
            doubled = (L.reduce(2 * z),)
        rel = relation_search(_orbits([orb.points_z, doubled], L), 5)
        assert rel is not None
        assert rel.coefficients == (2, -1)
        assert rel.torsion_slack == 1

    def test_point_and_negation(self):
        orb = self._base_orbit()
        L = orb.lattice
        z = orb.points_z[0]
        with mp.workprec(PREC + 20):
            negated = (L.reduce(-z),)
        rel = relation_search(_orbits([orb.points_z, negated], L), 5)
        assert rel is not None
        assert rel.coefficients == (1, 1)
        assert rel.torsion_slack == 1

    def test_negation_moved_across_the_radius(self):
        # -z moved 0.9 and 1.1 radii along omega1, a direction in which both
        # pass the sieve, so only the acceptance test tells them apart
        orb = self._base_orbit()
        L = orb.lattice
        with mp.workprec(PREC + 20):
            radius = mp.ldexp(max(abs(L.omega1), abs(L.omega2)), -(PREC // 2))
            step = radius * L.omega1 / abs(L.omega1)
            inside, outside = ((L.reduce(r * step - orb.points_z[0]),)
                               for r in (0.9, 1.1))
        for moved, expected in ((inside, Relation((1, 1), 1)),
                                (outside, None)):
            sets = [orb.points_z, moved]
            assert box_search_oracle(sets, L, 1, PREC) == expected
            assert relation_search(_orbits(sets, L), 1) == expected

    def test_transcendental_pair_has_no_relation(self):
        orb = self._base_orbit()
        L = orb.lattice
        with mp.workprec(PREC + 20):
            s1 = (L.reduce(L.omega1 / mp.pi),)
            s2 = (L.reduce(L.omega2 * mp.sqrt(2) / mp.e),)
        assert relation_search(_orbits([s1, s2], L), 10) is None

    def test_precision_read_from_the_lattice(self):
        # 100-bit orbits: the search works at the lattice's 100 bits
        o7, o11 = (orbit_points(E37, D, 100) for D in (-7, -11))
        assert o7.lattice.precision_bits == 100
        rel = relation_search([o7, o11], 5)
        assert rel == Relation(coefficients=(1, 1), torsion_slack=1)

    def test_argument_validation(self):
        orb = self._base_orbit()
        one = [orb]
        with pytest.raises(ValueError):
            relation_search(one, 5)
        with pytest.raises(ValueError):
            relation_search(one * 2, 0)
        with pytest.raises(ValueError):
            relation_search(one * 2, 51)
        with pytest.raises(ValueError):  # two lattices
            relation_search([orb, orbit_points(E37, -7, 100)], 5)


class TestVerifyRelation:
    def test_true_relation(self):
        P = point(0, 0)
        Q = point_mul(2, P, E37)
        rel = Relation(coefficients=(2, -1), torsion_slack=1)
        assert verify_relation([P, Q], rel, E37) is True

    def test_negation_relation(self):
        P = point(0, 0)
        rel = Relation(coefficients=(1, 1), torsion_slack=1)
        assert verify_relation([P, point_neg(P, E37)], rel, E37) is True

    def test_false_relation(self):
        P = point(0, 0)
        rel = Relation(coefficients=(1, 0), torsion_slack=1)
        assert verify_relation([P, point_mul(2, P, E37)], rel, E37) is False

    def test_point_with_coefficient_zero_takes_no_part(self):
        # P, -P over Q(sqrt(97)) and Q over Q(sqrt(241)) on 37a: only a
        # relation that combines the two fields leaves the exact group law
        P = point(3, QuadElt.make(Fraction(-1, 2), Fraction(1, 2), 97))
        Q = point(4, QuadElt.make(Fraction(-1, 2), Fraction(1, 2), 241))
        points = [P, Q, point_neg(P, E37)]
        assert verify_relation(points, Relation((1, 0, 1), 1), E37) is True
        with pytest.raises(FieldMismatch):
            verify_relation(points, Relation((1, 1, 0), 1), E37)

    @pytest.mark.parametrize("coefficients", [(1, 1, 5), (1,)])
    def test_length_mismatch_rejected(self, coefficients):
        # every coefficient needs its point, and every point its coefficient
        P = point(0, 0)
        with pytest.raises(ValueError):
            verify_relation([P, point_neg(P, E37)], Relation(coefficients, 1),
                            E37)


class TestIndependenceReport:
    def test_relation_found_and_verified(self):
        rep = independence_report(E37, [-7, -11], 20, PREC)
        assert rep.verdict == "relation_found_verified"
        assert rep.relation is not None
        assert rep.relation.coefficients == (1, 1)
        assert len(rep.entries) == 2
        for e in rep.entries:
            assert e.admissible and e.error is None
            assert e.class_number == 1
            assert e.odd_part == 1
            assert e.orbit_degrees[0] == 1
        assert "odd parts" in rep.hypothesis_note

    def test_verified_on_the_points_it_uses(self):
        # the D = -603 trace is unrecognized, but its coefficient is 0: the
        # relation (0, 0) + (0, -1) = O is checked without it
        rep = independence_report(E37, [-7, -11, -603], 3, PREC)
        assert rep.entries[2].recognition.startswith("unrecognized")
        assert rep.relation == Relation(coefficients=(1, 1, 0), torsion_slack=1)
        assert rep.verdict == "relation_found_verified"

    def test_inadmissible_entry_is_recorded(self):
        rep = independence_report(E37, [-7, -20], 20, PREC)
        flagged = rep.entries[1]
        assert flagged.discriminant == -20
        assert flagged.admissible is False
        assert flagged.error == "HeegnerConditionFailed"
        # with a single usable orbit there is nothing to search
        assert rep.relation is None
        assert rep.verdict == "no_relation_up_to_bound"

    def test_field_mismatch_leaves_the_relation_numerical(self,
                                                          monkeypatch):
        # exact points that the group law cannot combine do not verify
        def mismatch(*args):
            raise FieldMismatch("forced")

        monkeypatch.setattr(analysis, "verify_relation", mismatch)
        rep = independence_report(E37, [-7, -11], 20, PREC)
        assert rep.relation == Relation(coefficients=(1, 1), torsion_slack=1)
        assert rep.verdict == "relation_found_numerical"

    def test_no_relation_case(self):
        rep = independence_report(E32, [-7, -15], 8, PREC)
        assert rep.verdict == "no_relation_up_to_bound"
        assert rep.relation is None
        assert [e.class_number for e in rep.entries] == [1, 2]
        assert [e.orbit_degrees[0] for e in rep.entries] == [1, 2]

    def test_coefficients_align_with_discriminants(self):
        # -20 is inadmissible at 37 and does not join the search
        rep = independence_report(E37, [-20, -7, -11], 5, PREC)
        assert rep.relation == Relation(coefficients=(0, 1, 1), torsion_slack=1)
        assert rep.verdict == "relation_found_verified"

    def test_more_than_four_admissible_fields_rejected(self, monkeypatch):
        seen = []
        monkeypatch.setattr(analysis, "orbit_points",
                            lambda *args: seen.append(args))
        with pytest.raises(ValueError):
            independence_report(E37, [-47, -71, -83, -7, -11], 1, 100)
        assert seen == []

    def test_duplicate_discriminants_rejected(self):
        with pytest.raises(ValueError):
            independence_report(E37, [-7, -7], 5, PREC)

    @pytest.mark.parametrize("discs, B", [([-7, -11], 0), ([-7, -11], 51),
                                          ([-7], 100)])
    def test_bound_checked_before_any_orbit(self, monkeypatch, discs, B):
        # one check of 1 <= B <= 50, shared with relation_search, before
        # any orbit is evaluated, also when no search will run
        seen = []
        monkeypatch.setattr(analysis, "orbit_points",
                            lambda *args: seen.append(args))
        with pytest.raises(ValueError, match=r"B must be in 1\.\.50"):
            independence_report(E37, discs, B, PREC)
        assert seen == []

    def test_quadratic_recognition_text(self):
        # an exact point prints as CurvePoint does, in Q(sqrt(D)) too
        rep = independence_report(E49, [-19, -31], 4, PREC)
        assert [e.recognition for e in rep.entries] == [
            "quadratic (1/2 + -1/2*sqrt(-19), -5/2 + -1/2*sqrt(-19))",
            "quadratic (-19/32 + 3/32*sqrt(-31), -45/128 + -3/128*sqrt(-31))",
        ]

    def test_divisibility_column(self):
        rep = independence_report(E37, [-7, -11], 5, PREC)
        for e in rep.entries:
            assert e.divisibility_ok is True


# (r, B) boxes that the oracle scans in well under a second
BOXES = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (4, 1)]
# boxes whose lines of 2B + 1 points run long or wrap mod 2^K many times;
# the oracle takes 1-4 s on one, so they get a short test of their own
LARGE_BOXES = [(4, 2), (2, 25)]
EXTRA_EMBEDDINGS = ["none", "shift", "half", "generic", "negated"]


def _generic_point(L, rng):
    # transcendental lattice coordinates: no small relation with anything
    s = mp.frac(mp.sqrt(rng.randrange(2, 10**6)) * mp.pi)
    t = mp.frac(mp.sqrt(rng.randrange(2, 10**6)) * mp.e)
    return s * L.omega1 + t * L.omega2


def _extra_embedding(kind, z, L, rng):
    if kind == "shift":  # the same point mod L, left unreduced
        return (z + L.omega2,)
    if kind == "half":  # moved by a 2-torsion point
        return (L.reduce(z + L.omega1 / 2),)
    if kind == "generic":
        return (_generic_point(L, rng),)
    if kind == "negated":
        return (L.reduce(-z),)
    return ()


@st.composite
def planted_sets(draw, boxes=BOXES):
    """Points with slack * sum n_i z_i within near * tol * scale of L for a
    drawn (n, slack) in the box, each point with an optional second
    embedding.  near < 1 is inside the acceptance radius, near = 1.75
    outside it but, in most directions, inside the sieve's bound.

    A candidate (m n, t) puts the planted sum at k = m t times its offset,
    k near / slack radii from L when k lam / slack is integral.  The near
    values keep k near / slack at least 1% away from 1 for every integer k
    and slack <= 4 (0.53: 6%, 0.99: 1%, 1.75: 12%), so no candidate lies
    on the radius, where the oracle's answer would be its own rounding
    error."""
    label = draw(st.sampled_from(sorted(CURVES)))
    prec = draw(st.sampled_from([53, 100, 200]))
    r, B = draw(st.sampled_from(boxes))
    slack = draw(st.integers(1, 4))
    vec = draw(st.lists(st.integers(-B, B), min_size=r, max_size=r))
    j = draw(st.integers(0, r - 1))
    vec[j] = draw(st.sampled_from([1, -1]))
    if vec[0] < 0:
        vec = [-n for n in vec]
    lam = draw(st.tuples(st.integers(0, slack - 1), st.integers(0, slack - 1)))
    extras = draw(
        st.lists(st.sampled_from(EXTRA_EMBEDDINGS), min_size=r, max_size=r)
    )
    near = draw(st.sampled_from([0, 0, 0.53, 0.99, 1.75]))
    rng = draw(st.randoms(use_true_random=False))
    L = _lattice(label, prec)
    with mp.workprec(prec + 20):
        zs = [_generic_point(L, rng) for _ in range(r)]
        radius = mp.mpf(2) ** (-(prec // 2)) * max(abs(L.omega1), abs(L.omega2))
        miss = near * radius / slack * mp.expjpi(2 * mp.mpf(rng.random()))
        target = (lam[0] * L.omega1 + lam[1] * L.omega2) / slack + miss
        rest = sum(vec[i] * zs[i] for i in range(r) if i != j)
        zs[j] = L.reduce(vec[j] * (target - rest))
        sets = [
            (z,) + _extra_embedding(kind, z, L, rng)
            for z, kind in zip(zs, extras)
        ]
    planted_holds = near < 1 and all(kind in ("none", "shift") for kind in extras)
    return sets, L, B, prec, planted_holds


@st.composite
def generic_sets(draw, boxes=BOXES):
    """Points with transcendental coordinates, one or two embeddings each."""
    label = draw(st.sampled_from(sorted(CURVES)))
    prec = draw(st.sampled_from([53, 100, 200]))
    r, B = draw(st.sampled_from(boxes))
    sizes = draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    rng = draw(st.randoms(use_true_random=False))
    L = _lattice(label, prec)
    with mp.workprec(prec + 20):
        sets = [tuple(_generic_point(L, rng) for _ in range(k)) for k in sizes]
    return sets, L, B, prec


class TestSieveMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=planted_sets())
    def test_planted_relations(self, case):
        sets, L, B, prec, planted_holds = case
        expected = box_search_oracle(sets, L, B, prec)
        if planted_holds:
            assert expected is not None
        assert relation_search(_orbits(sets, L), B) == expected

    @settings(max_examples=25, deadline=None)
    @given(case=generic_sets())
    def test_transcendental_sets(self, case):
        sets, L, B, prec = case
        assert (relation_search(_orbits(sets, L), B)
                == box_search_oracle(sets, L, B, prec))

    @settings(max_examples=5, deadline=None)
    @given(case=st.one_of(planted_sets(LARGE_BOXES),
                          generic_sets(LARGE_BOXES).map(lambda c: (*c, False))))
    def test_large_boxes(self, case):
        sets, L, B, prec, planted_holds = case
        expected = box_search_oracle(sets, L, B, prec)
        if planted_holds:
            assert expected is not None
        assert relation_search(_orbits(sets, L), B) == expected

    def test_known_relations_unchanged(self):
        orb = orbit_points(E37, -7, PREC)
        L = orb.lattice
        z = orb.points_z[0]
        with mp.workprec(PREC + 20):
            base = orb.points_z
            doubled = (L.reduce(2 * z),)
            negated = (L.reduce(-z),)
        for other, coefficients in ((doubled, (2, -1)), (negated, (1, 1))):
            rel = relation_search(_orbits([base, other], L), 5)
            assert rel == Relation(coefficients=coefficients, torsion_slack=1)
            assert rel == box_search_oracle([base, other], L, 5, PREC)


class TestFieldFailures:
    def _fail_for(self, monkeypatch, name, exc):
        # make analysis.<name> raise exc for the field D = -11 only
        real = getattr(analysis, name)

        def patched(*args):
            D = args[1] if name == "orbit_points" else args[0].discriminant
            if D == -11:
                raise exc
            return real(*args)

        monkeypatch.setattr(analysis, name, patched)

    @pytest.mark.parametrize(
        "name, stage",
        [("orbit_points", "orbit"), ("orbit_degree", "degree"),
         ("trace_point", "trace")],
    )
    def test_domain_error_records_stage(self, monkeypatch, name, stage):
        self._fail_for(monkeypatch, name, ConvergenceTooSlow("forced"))
        rep = independence_report(E37, [-7, -11], 2, PREC)
        assert rep.entries[0].error is None
        assert rep.entries[1].admissible is True
        assert rep.entries[1].error == f"{stage}: ConvergenceTooSlow: forced"
        if stage == "orbit":
            assert rep.relation is None
        else:
            # the evaluated orbit still joins the search; with no exact
            # point the relation stays numerical
            assert rep.relation == Relation(coefficients=(1, 1), torsion_slack=1)
            assert rep.verdict == "relation_found_numerical"

    def test_reports_sharing_a_failed_field_run_it_once(self, monkeypatch):
        # the field keeps its orbit-stage error as it keeps a success
        real = analysis.orbit_points
        seen = []

        def failing(E, D, precision_bits):
            seen.append(D)
            if D == -11:
                raise ConvergenceTooSlow("forced")
            return real(E, D, precision_bits)

        monkeypatch.setattr(analysis, "orbit_points", failing)
        first = independence_report(E37, [-7, -11], 2, PREC)
        second = independence_report(E37, [-11, -47], 2, PREC)
        assert first.entries[1] == second.entries[0]
        assert second.entries[0].error == "orbit: ConvergenceTooSlow: forced"
        assert seen == [-7, -11, -47]

    def test_recognize_stage(self, monkeypatch):
        real = analysis.recognize_trace
        calls = []

        def patched(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # the second field, D = -11
                raise ConvergenceTooSlow("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "recognize_trace", patched)
        rep = independence_report(E37, [-7, -11], 2, PREC)
        assert rep.entries[0].error is None
        assert rep.entries[1].error == "recognize: ConvergenceTooSlow: forced"

    def test_incomplete_fiber_records_the_orbit_stage(self, monkeypatch):
        real = modparam.heegner_fiber

        def incomplete(D, N):
            if D == -11:
                raise FiberIncomplete("forced")
            return real(D, N)

        monkeypatch.setattr(modparam, "heegner_fiber", incomplete)
        rep = independence_report(E37, [-7, -11], 2, PREC)
        assert rep.entries[1].error == "orbit: FiberIncomplete: forced"
        assert rep.relation is None

    def test_non_domain_error_propagates(self, monkeypatch):
        self._fail_for(monkeypatch, "trace_point", TypeError("bug"))
        with pytest.raises(TypeError):
            independence_report(E37, [-7, -11], 2, PREC)

    def test_each_orbit_evaluated_once(self, monkeypatch):
        real = analysis.orbit_points
        seen = []

        def counting(E, D, precision_bits):
            seen.append(D)
            return real(E, D, precision_bits)

        monkeypatch.setattr(analysis, "orbit_points", counting)
        independence_report(E37, [-7, -11, -47], 2, PREC)
        assert seen == [-7, -11, -47]

    def test_reports_sharing_a_field_evaluate_its_orbit_once(self,
                                                             monkeypatch):
        # the report keeps each (E, D, precision) field: the second report
        # reads D = -47 from the first, as the benchmark's reports do
        real = modparam.eval_phi
        sizes = []

        def counting(E, taus, precision_bits):
            sizes.append(len(taus))
            return real(E, taus, precision_bits)

        monkeypatch.setattr(modparam, "eval_phi", counting)
        first = independence_report(E37, [-7, -47], 2, PREC)
        second = independence_report(E37, [-47, -71], 2, PREC)
        # one call each for h(-7), h(-47), h(-71) = 1, 5, 7: a class whose
        # partner under w_N and complex conjugation is evaluated is derived
        assert sizes == [1, 3, 4]
        assert first.entries[1] == second.entries[0]

    def test_reports_sharing_a_field_trace_it_once(self, monkeypatch):
        # the orbit's degrees, trace and recognition are kept with it, so
        # the second report neither traces nor recognizes D = -47 again
        seen = {"orbit_degree": [], "trace_point": [], "_recognize_trace": []}

        def counting(name, real):
            def wrapper(x, *args):
                orbit = x.orbit if name == "_recognize_trace" else x
                seen[name].append(orbit.discriminant)
                return real(x, *args)
            return wrapper

        for name in seen:
            monkeypatch.setattr(analysis, name,
                                counting(name, getattr(analysis, name)))
        first = independence_report(E37, [-7, -47], 3, PREC)
        second = independence_report(E37, [-47, -71], 10, PREC)
        assert seen["trace_point"] == [-7, -47, -71]
        assert seen["_recognize_trace"] == [-7, -47, -71]
        assert seen["orbit_degree"] == [-7] * 3 + [-47] * 3 + [-71] * 3
        # the part of h prime to the bound is the one fact the report adds
        assert first.entries[1].prime_to_bound_part == 5
        assert first.entries[1] == second.entries[0].replace(
            prime_to_bound_part=5)

    def test_class_number_counted_once_per_field(self, monkeypatch):
        # the fiber holds one point per class: h is read from the orbit
        real = qform.enumerate_reduced
        seen = []

        def counting(D):
            seen.append(D)
            return real(D)

        monkeypatch.setattr(qform, "enumerate_reduced", counting)
        rep = independence_report(E37, [-7, -11, -47], 2, PREC)
        assert seen == [-7, -11, -47]
        assert [e.class_number for e in rep.entries] == [1, 1, 5]

    def test_p_evaluated_once_per_trace(self, monkeypatch):
        # orbit points stay on the torus; only a non-identity trace is mapped
        calls = []
        real = lattice.weierstrass_p

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lattice, "weierstrass_p", counting)
        rep = independence_report(E37, [-7, -11, -47], 2, PREC)
        traces = sum(not e.trace_is_identity for e in rep.entries)
        assert traces >= 1 and len(calls) == traces


def test_precision_is_read_from_the_object():
    # a function that takes a lattice, an orbit or a trace reads the
    # precision from it; a second precision parameter could disagree
    carriers = {"Lattice", "OrbitEvaluation", "TracePoint"}
    offenders = []
    for module in (analysis, lattice, modparam):
        tree = ast.parse(inspect.getsource(module))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            names = {a.arg for a in args}
            typed = {n.id for a in args if a.annotation
                     for n in ast.walk(a.annotation) if isinstance(n, ast.Name)}
            if typed & carriers and names & {"prec", "precision_bits"}:
                offenders.append(f"{module.__name__}.{fn.name}")
    assert offenders == []


def test_no_assert_in_the_package():
    # python -O strips assert statements: a check on a result raises
    offenders = []
    for info in pkgutil.iter_modules(heegnerlab.__path__):
        module = importlib.import_module(f"heegnerlab.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{module.__name__}:{node.lineno}")
    assert offenders == []


def test_no_runtime_error_in_the_package():
    # a failure the package foresees is a typed HeegnerlabError, which a
    # report records with its stage and the CLI turns into exit code 1
    offenders = []
    for info in pkgutil.iter_modules(heegnerlab.__path__):
        module = importlib.import_module(f"heegnerlab.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    offenders.append(f"{module.__name__}:{node.lineno}")
    assert offenders == []


def test_only_lattice_reads_the_basis():
    # the lattice owns its basis and the integer torus: every other module
    # goes through Lattice.torus, point, near and the other methods, and
    # reads neither the torus format nor near's bail-out bound
    basis = {"omega1", "omega2", "reduced_basis", "torus_bits", "near_bound"}
    offenders = []
    for info in pkgutil.iter_modules(heegnerlab.__path__):
        if info.name == "lattice":
            continue
        module = importlib.import_module(f"heegnerlab.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Attribute) and node.attr in basis:
                offenders.append(f"{module.__name__}:{node.lineno}")
    assert offenders == []


def test_one_lattice_membership_rule():
    # Lattice.near is the package's membership test; distance and
    # nearest_distances stay only as its oracles, so nothing calls them
    # but their own bodies
    oracles = {"distance", "nearest_distances"}
    offenders = []
    for info in pkgutil.iter_modules(heegnerlab.__path__):
        module = importlib.import_module(f"heegnerlab.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name in oracles
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in inside
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in oracles):
                offenders.append(f"{module.__name__}:{node.lineno}")
    assert offenders == []
