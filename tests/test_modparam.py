import dataclasses
from fractions import Fraction as F

import pytest
from mpmath import mp

from heegnerlab import modparam
from heegnerlab.ellcurve import CurveModel, QuadElt, an_coeffs
from heegnerlab.errors import (ConvergenceTooSlow, HeegnerConditionFailed,
                              RecognitionFailed)
from heegnerlab.heegner import heegner_fiber
from heegnerlab.modparam import (
    _terms_needed,
    eval_phi,
    orbit_points,
    recognize,
    recognize_minpoly,
    recognize_quadratic,
    recognize_trace,
    trace_point,
)

E37 = CurveModel(0, 0, 1, -1, 0, 37, modular_degree=2, label="37a")
E32 = CurveModel(0, 0, 0, -1, 0, 32, cm_discriminant=-4, modular_degree=1, label="32a")
E49 = CurveModel(1, -1, 0, -2, -1, 49, cm_discriminant=-7, modular_degree=1, label="49a")

PREC = 200


def direct_sum_oracle(E, tau, terms, workprec):
    """Plain term-by-term summation at an explicit term count."""
    with mp.workprec(workprec):
        q = mp.exp(2j * mp.pi * tau)
        coeffs = an_coeffs(E, terms)
        return mp.fsum(
            (coeffs.a(n) * q**n / n for n in range(1, terms + 1)),
            absolute=False,
        )


def mpc_horner_oracle(tau, precision_bits, coeffs):
    """The mpc Horner loop that eval_phi ran before its fixed-point form:
    same term count M, arithmetic at precision_bits + 20; coeffs holds at
    least a_1..a_M of the curve."""
    with mp.workprec(precision_bits + 20):
        q = mp.exp(2j * mp.pi * tau)
        M = _terms_needed(abs(q), precision_bits)
        # Horner in q: phi = q*(c_1 + q*(c_2 + ...)), c_n = a_n/n
        acc = mp.mpc(0)
        for n in range(M, 0, -1):
            acc = acc * q + mp.mpf(coeffs.a(n)) / n
        return acc * q, M


# eval_phi's term counts on each fiber, in heegner_fiber order, at 200, 500
# and 1000 bits, as the mpc Horner loop chose them
FIBER_TERMS = {
    (37, -71): {200: [383, 839, 227, 646, 839, 383, 646],
                500: [1090, 2394, 497, 1842, 2394, 1090, 1842],
                1000: [2394, 4045, 1090, 3112, 4045, 2394, 3112]},
    (49, -31): {200: [839, 839, 383],
                500: [2394, 2394, 1090],
                1000: [4045, 4045, 2394]},
}


class TestFixedPointHorner:
    @pytest.mark.parametrize("prec", [200, 500, 1000])
    @pytest.mark.parametrize("E, D", [(E37, -71), (E49, -31)], ids=["37a", "49a"])
    def test_fiber_matches_oracles(self, E, D, prec):
        # every tau of the fiber, the largest-M one included
        fiber = heegner_fiber(D, E.conductor)
        terms = FIBER_TERMS[E.conductor, D][prec]
        assert len(fiber) == len(terms)
        coeffs = an_coeffs(E, max(terms))
        for rep, expected_M in zip(fiber, terms):
            tau = rep.tau(prec + 20)
            with mp.workprec(prec + 20):
                v, M = eval_phi(E, tau, prec)
            assert M == expected_M
            horner, horner_M = mpc_horner_oracle(tau, prec, coeffs)
            direct = direct_sum_oracle(E, tau, M, prec + 40)
            with mp.workprec(prec + 40):
                scale = 1 + abs(direct)
                # the bound of eval_phi's docstring, plus rounding to mpc
                assert abs(v - direct) < mp.mpf(2) ** -(prec + 19) * scale
                # the mpc loop itself errs by up to M units of 2^-(prec+20)
                assert horner_M == M
                assert abs(v - horner) < mp.mpf(2) ** -(prec + 6) * scale


class TestCoefficientPrefix:
    def test_one_growing_prefix_per_curve(self, monkeypatch):
        monkeypatch.setattr(modparam, "_PREFIXES", {})
        calls = []

        def counted(E, M, prefix=None):
            calls.append((M, prefix and len(prefix.coefficients)))
            return an_coeffs(E, M, prefix)

        monkeypatch.setattr(modparam, "an_coeffs", counted)
        # term counts 383, 839, 227, 646, 839, 383, 646
        for rep in heegner_fiber(-71, 37):
            eval_phi(E37, rep.tau(PREC + 20), PREC)
        assert calls == [(383, None), (839, 383)]
        # keyed on the a-invariants and the level, not on the label
        eval_phi(dataclasses.replace(E37, label="x"), rep.tau(PREC + 20), PREC)
        assert len(calls) == 2
        assert list(modparam._PREFIXES) == [((0, 0, 1, -1, 0), 37)]

    def test_oldest_curve_evicted(self, monkeypatch):
        monkeypatch.setattr(modparam, "_PREFIXES", {})
        monkeypatch.setattr(modparam, "_PREFIX_CURVES", 2)
        for E in (E37, E32, E49):
            modparam._coefficients(E, 10)
        assert list(modparam._PREFIXES) == [
            (E32.a_invariants, 32), (E49.a_invariants, 49)
        ]


class TestEvalPhi:
    def test_q_invariance(self):
        tau = heegner_fiber(-7, 37)[0].tau(PREC + 20)
        with mp.workprec(PREC + 20):
            v1, _ = eval_phi(E37, tau, PREC)
            v2, _ = eval_phi(E37, tau + 1, PREC)
            assert abs(v1 - v2) < mp.mpf(2) ** -(PREC - 5)

    def test_truncation_contract(self):
        tau = heegner_fiber(-83, 37)[0].tau(PREC + 60)
        with mp.workprec(PREC + 60):
            v1, _ = eval_phi(E37, tau, PREC)
            v2, _ = eval_phi(E37, tau, PREC + 40)
            assert abs(v1 - v2) < mp.mpf(2) ** -(PREC - 2)

    def test_matches_direct_summation_oracle(self):
        # (37a, tau = (-17 + sqrt(-7))/74, 150 bits)
        with mp.workprec(220):
            tau = (-17 + mp.sqrt(mp.mpc(-7))) / 74
            v, _ = eval_phi(E37, tau, 150)
            for terms in (600, 1200):
                oracle = direct_sum_oracle(E37, tau, terms, 220)
                assert abs(v - oracle) < mp.mpf(2) ** -140

    def test_gamma0_invariance_instances(self):
        tau = heegner_fiber(-7, 37)[0].tau(PREC + 20)
        with mp.workprec(PREC + 20):
            base, _ = eval_phi(E37, tau, PREC)
            for k in (1, 2):
                shifted, _ = eval_phi(E37, tau + 37 * k, PREC)
                assert abs(base - shifted) < mp.mpf(2) ** -(PREC - 5)

    def test_rejects_tiny_imaginary_part(self):
        with mp.workprec(100):
            with pytest.raises(ConvergenceTooSlow):
                eval_phi(E37, mp.mpc(0, 1e-4), 100)


class TestOrbits:
    def test_orbit_sizes(self):
        assert len(orbit_points(E37, -7, PREC).points_z) == 1
        assert len(orbit_points(E37, -83, PREC).points_z) == 3
        assert len(orbit_points(E32, -15, PREC).points_z) == 2

    def test_points_on_curve(self):
        orb = orbit_points(E37, -83, PREC)
        from heegnerlab.lattice import curve_equation_residual

        with mp.workprec(PREC + 20):
            for x, y in orb.points_xy:
                assert curve_equation_residual(E37, x, y) < mp.mpf(2) ** -(
                    PREC - 10
                )

    def test_inadmissible_rejected(self):
        with pytest.raises(HeegnerConditionFailed):
            orbit_points(E37, -20, PREC)

    def test_edge_point_reduces_near_zero(self):
        # z_1 of 37a D = -108 is real; at 300 bits rounding noise puts its
        # t just below 0 or just above, and either way it must stay near 0
        orb = orbit_points(E37, -108, 300)
        with mp.workprec(320):
            _, t = orb.lattice.coordinates(orb.points_z[1])
            assert abs(t) < mp.ldexp(1, -290)


class TestTrace:
    def test_trace_of_singleton_orbit(self):
        orb = orbit_points(E37, -7, PREC)
        tr = trace_point(orb)
        assert not tr.is_identity
        with mp.workprec(PREC):
            assert abs(tr.z - orb.points_z[0]) < mp.mpf(2) ** -(PREC - 20)

    def test_trace_invariant_under_permutation(self):
        import dataclasses

        orb = orbit_points(E37, -83, PREC)
        perm = dataclasses.replace(
            orb, points_z=orb.points_z[::-1], points_xy=orb.points_xy[::-1]
        )
        with mp.workprec(PREC):
            t1, t2 = trace_point(orb), trace_point(perm)
            assert abs(t1.z - t2.z) < mp.mpf(2) ** -(PREC - 20)

    def test_37a_trace_is_generator(self):
        tr = trace_point(orbit_points(E37, -7, PREC))
        rec = recognize([tr.xy], 1000, E37, precision_bits=PREC)
        assert rec.kind == "rational"
        assert rec.value == (F(0), F(0))


class TestRecognize:
    def test_near_integer(self):
        # a single value is the degree-1 case: X - 1 means the value 1
        with mp.workprec(100):
            v = mp.mpf(1) + mp.mpf(2) ** -60
            rec = recognize_minpoly([v], 10, precision_bits=80)
            assert rec.kind == "minpoly" and rec.value == (1, -1)

    def test_exact_linear_factors(self):
        rec = recognize_minpoly([mp.mpf(2), mp.mpf(3)], 10, precision_bits=100)
        assert rec.kind == "minpoly"
        assert tuple(rec.value) == (1, -5, 6)

    def test_minpoly_of_sqrt2(self):
        with mp.workprec(220):
            s = mp.sqrt(2)
            rec = recognize_minpoly([s, -s], 100, precision_bits=PREC)
            assert tuple(rec.value) == (1, 0, -2)

    def test_minpoly_of_class_field_conjugates(self):
        orb = orbit_points(E37, -83, PREC)
        xs = [p[0] for p in orb.points_xy]
        rec = recognize_minpoly(xs, 10**6, precision_bits=PREC)
        assert rec.kind == "minpoly"
        assert len(rec.value) == 4  # degree 3 = h(-83)

    def test_quadratic_point_49a(self):
        orb = orbit_points(E49, -31, PREC)
        tr = trace_point(orb)
        x, y = tr.xy
        with mp.workprec(PREC + 20):
            conj = (mp.conj(x), mp.conj(y))
        rec = recognize_quadratic(
            [(x, y), conj], 10**4, E49, -31, precision_bits=PREC
        )
        assert rec.kind == "quadratic"
        xq, yq = rec.value
        assert isinstance(xq, QuadElt) and xq.d == -31
        # exact curve membership was checked inside recognize; re-verify
        lhs = yq * yq + xq * yq
        rhs = xq**3 - xq * xq - 2 * xq - 1
        assert lhs == rhs

    def test_quadratic_point_in_another_field_fails(self):
        # the 49a D = -31 trace does not lie over Q(sqrt(-19))
        tr = trace_point(orbit_points(E49, -31, PREC))
        x, y = tr.xy
        with mp.workprec(PREC + 20):
            conj = (mp.conj(x), mp.conj(y))
        with pytest.raises(RecognitionFailed):
            recognize_quadratic([(x, y), conj], 10**6, E49, -19, precision_bits=PREC)

    def test_trace_of_non_fundamental_discriminant(self):
        # D = -124 = 2^2 * (-31): the trace lies over Q(sqrt(-31))
        tr = trace_point(orbit_points(E49, -124, PREC))
        assert tr.discriminant == -124 and not tr.is_real
        rec = recognize_trace(tr, E49, PREC)
        assert rec.kind == "quadratic"
        xq, yq = rec.value
        assert isinstance(xq, QuadElt) and xq.d == -31
        assert yq * yq + xq * yq == xq**3 - xq * xq - 2 * xq - 1

    def test_trace_routes_real_trace_to_rational(self):
        tr = trace_point(orbit_points(E37, -7, PREC))
        rec = recognize_trace(tr, E37, PREC)
        assert rec.kind == "rational" and rec.value == (F(0), F(0))

    def test_rejects_wrong_curve_point(self):
        with mp.workprec(PREC + 20):
            with pytest.raises(RecognitionFailed):
                recognize([(mp.mpf(1), mp.mpf(1))], 10, E37, precision_bits=PREC)

    def test_rejects_transcendental(self):
        with mp.workprec(PREC + 20):
            with pytest.raises(RecognitionFailed):
                recognize([(mp.pi, mp.e)], 10, E37, precision_bits=PREC)

    def test_rational_point_takes_exactly_one_pair(self):
        pair = (mp.mpf(0), mp.mpf(0))
        with pytest.raises(ValueError):
            recognize([pair, pair], 10, E37, precision_bits=PREC)

    def test_residual_reported(self):
        rec = recognize_minpoly([mp.mpf(0.5)], 10, precision_bits=100)
        assert rec.value == (2, -1)
        assert rec.residual >= 0
