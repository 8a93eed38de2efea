from fractions import Fraction as F

import pytest
from mpmath import mp

from heegnerlab.ellcurve import CurveModel, QuadElt, an_coeffs
from heegnerlab.errors import ConvergenceTooSlow, RecognitionFailed
from heegnerlab.heegner import heegner_fiber
from heegnerlab.modparam import (
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
        with pytest.raises(ValueError):
            orbit_points(E37, -20, PREC)


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
