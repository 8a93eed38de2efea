"""Tests for orbit degrees, relation search/verification, and reports."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from heegnerlab import analysis
from heegnerlab.analysis import (
    EmbeddingSet,
    Relation,
    _cluster_count,
    _coefficient_vectors,
    independence_report,
    orbit_degree,
    relation_search,
    verify_relation,
)
from heegnerlab.db import find_curve
from heegnerlab.ellcurve import point, point_mul, point_neg
from heegnerlab.errors import (
    ClusterAmbiguous,
    ConvergenceTooSlow,
    HeegnerConditionFailed,
)
from heegnerlab.lattice import periods
from heegnerlab.modparam import orbit_points

PREC = 200

E37 = find_curve("37a").curve()
E32 = find_curve("32a").curve()
E49 = find_curve("49a").curve()


def box_search_oracle(sets, B, precision_bits):
    """The plain box search: the mpmath test on every candidate, in the
    order relation_search must reproduce."""
    r = len(sets)
    tol = mp.mpf(2) ** (-(precision_bits // 2))
    with mp.workprec(precision_bits + 20):
        combos = list(itertools.product(*(range(len(s.zs)) for s in sets)))
        scale = [
            max(abs(s.lattice.omega1), abs(s.lattice.omega2)) for s in sets
        ]
        for vec in _coefficient_vectors(r, B):
            for t in range(1, 13):
                ok = True
                for combo in combos:
                    L = sets[0].lattice
                    z = mp.mpc(0)
                    for i, (s, ci) in enumerate(zip(sets, combo)):
                        z += vec[i] * s.zs[ci]
                    z *= t
                    d0, d1 = L.nearest_distances(z)
                    if d0 >= tol * scale[0] or d1 < (2**10) * tol * scale[0]:
                        ok = False
                        break
                if ok:
                    return Relation(coefficients=vec, torsion_slack=t)
    return None


class TestClusterCount:
    def test_distinct_values(self):
        assert _cluster_count([mp.mpc(0), mp.mpc(1), mp.mpc(5)], 1e-10) == 3

    def test_merges_close_values(self):
        assert _cluster_count([mp.mpc(0), mp.mpc(1e-12)], 1e-10) == 1

    def test_dead_zone_raises(self):
        with pytest.raises(ClusterAmbiguous):
            _cluster_count([mp.mpc(0), mp.mpc(5e-10)], 1e-10)


class TestOrbitDegree:
    def test_degree_one_for_class_number_one(self):
        assert orbit_degree(E37, -7, 1, PREC) == 1

    def test_degree_three_for_class_number_three(self):
        assert orbit_degree(E37, -83, 1, PREC) == 3

    def test_multiplication_degrees_divide(self):
        d1 = orbit_degree(E37, -83, 1, PREC)
        for n in (2, 3):
            dn = orbit_degree(E37, -83, n, PREC)
            assert d1 % dn == 0
            assert d1 // dn <= n * n

    def test_n_one_reuses_the_orbit_coordinates(self, monkeypatch):
        # orbit_points already mapped every point; no second p per point
        orbit = orbit_points(E37, -83, PREC)

        def no_map(*args):
            raise AssertionError("weierstrass_map called for n = 1")

        monkeypatch.setattr(analysis, "weierstrass_map", no_map)
        assert analysis._orbit_degree(orbit, 1) == 3

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            orbit_degree(E37, -7, 0, PREC)
        with pytest.raises(ValueError):
            orbit_degree(E37, -7, 13, PREC)

    def test_inadmissible_discriminant(self):
        with pytest.raises(HeegnerConditionFailed):
            orbit_degree(E37, -20, 1, PREC)


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
            doubled = EmbeddingSet(zs=(L.reduce(2 * z),), lattice=L)
        rel = relation_search([EmbeddingSet.from_orbit(orb), doubled], 5, PREC)
        assert rel is not None
        assert rel.coefficients == (2, -1)
        assert rel.torsion_slack == 1

    def test_point_and_negation(self):
        orb = self._base_orbit()
        L = orb.lattice
        z = orb.points_z[0]
        with mp.workprec(PREC + 20):
            negated = EmbeddingSet(zs=(L.reduce(-z),), lattice=L)
        rel = relation_search([EmbeddingSet.from_orbit(orb), negated], 5, PREC)
        assert rel is not None
        assert rel.coefficients == (1, 1)
        assert rel.torsion_slack == 1

    def test_transcendental_pair_has_no_relation(self):
        orb = self._base_orbit()
        L = orb.lattice
        with mp.workprec(PREC + 20):
            s1 = EmbeddingSet(zs=(L.reduce(L.omega1 / mp.pi),), lattice=L)
            s2 = EmbeddingSet(
                zs=(L.reduce(L.omega2 * mp.sqrt(2) / mp.e),), lattice=L
            )
        assert relation_search([s1, s2], 10, PREC) is None

    def test_argument_validation(self):
        orb = self._base_orbit()
        one = [EmbeddingSet.from_orbit(orb)]
        with pytest.raises(ValueError):
            relation_search(one, 5, PREC)
        with pytest.raises(ValueError):
            relation_search(one * 2, 0, PREC)
        with pytest.raises(ValueError):
            relation_search(one * 2, 51, PREC)


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

    def test_inadmissible_entry_is_recorded(self):
        rep = independence_report(E37, [-7, -20], 20, PREC)
        flagged = rep.entries[1]
        assert flagged.discriminant == -20
        assert flagged.admissible is False
        assert flagged.error == "HeegnerConditionFailed"
        # with a single usable orbit there is nothing to search
        assert rep.relation is None
        assert rep.verdict == "no_relation_up_to_bound"

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

    def test_ring_class_columns(self):
        rep = independence_report(E37, [-7, -11], 5, PREC, conductor=3)
        for e in rep.entries:
            assert e.ring_class_number is not None
            assert e.ring_class_odd_part is not None

    def test_divisibility_column(self):
        rep = independence_report(E37, [-7, -11], 5, PREC)
        for e in rep.entries:
            assert e.divisibility_ok is True


CURVES = {"37a": E37, "32a": E32, "49a": E49}
# (r, B) boxes that the oracle scans in well under a second
BOXES = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (4, 1)]
EXTRA_EMBEDDINGS = ["none", "shift", "half", "generic", "negated"]


@functools.cache
def _lattice(label, prec):
    return periods(CURVES[label], prec)


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
def planted_sets(draw):
    """Points with slack * sum n_i z_i within near * tol * scale of L for a
    drawn (n, slack) in the box, each point with an optional second
    embedding.  near < 1 is inside the acceptance radius, near = 1.5
    outside it but inside the sieve's slack."""
    label = draw(st.sampled_from(sorted(CURVES)))
    prec = draw(st.sampled_from([53, 100, 200]))
    r, B = draw(st.sampled_from(BOXES))
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
    near = draw(st.sampled_from([0, 0, 0.5, 0.99, 1.5]))
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
            EmbeddingSet(zs=(z,) + _extra_embedding(kind, z, L, rng), lattice=L)
            for z, kind in zip(zs, extras)
        ]
    planted_holds = near < 1 and all(kind in ("none", "shift") for kind in extras)
    return sets, B, prec, planted_holds


@st.composite
def generic_sets(draw):
    """Points with transcendental coordinates, one or two embeddings each."""
    label = draw(st.sampled_from(sorted(CURVES)))
    prec = draw(st.sampled_from([53, 100, 200]))
    r, B = draw(st.sampled_from(BOXES))
    sizes = draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    rng = draw(st.randoms(use_true_random=False))
    L = _lattice(label, prec)
    with mp.workprec(prec + 20):
        sets = [
            EmbeddingSet(zs=tuple(_generic_point(L, rng) for _ in range(k)), lattice=L)
            for k in sizes
        ]
    return sets, B, prec


class TestSieveMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=planted_sets())
    def test_planted_relations(self, case):
        sets, B, prec, planted_holds = case
        expected = box_search_oracle(sets, B, prec)
        if planted_holds:
            assert expected is not None
        assert relation_search(sets, B, prec) == expected

    @settings(max_examples=25, deadline=None)
    @given(case=generic_sets())
    def test_transcendental_sets(self, case):
        sets, B, prec = case
        assert relation_search(sets, B, prec) == box_search_oracle(sets, B, prec)

    def test_known_relations_unchanged(self):
        orb = orbit_points(E37, -7, PREC)
        L = orb.lattice
        z = orb.points_z[0]
        with mp.workprec(PREC + 20):
            base = EmbeddingSet.from_orbit(orb)
            doubled = EmbeddingSet(zs=(L.reduce(2 * z),), lattice=L)
            negated = EmbeddingSet(zs=(L.reduce(-z),), lattice=L)
        for other, coefficients in ((doubled, (2, -1)), (negated, (1, 1))):
            rel = relation_search([base, other], 5, PREC)
            assert rel == Relation(coefficients=coefficients, torsion_slack=1)
            assert rel == box_search_oracle([base, other], 5, PREC)


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
        [("orbit_points", "orbit"), ("_orbit_degree", "degree"),
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
