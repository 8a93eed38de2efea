import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from heegnerlab.ellcurve import CurveModel, point, point_add, point_mul
from heegnerlab.errors import IdentityPoint, PrecisionUnachievable
from heegnerlab.lattice import (
    Lattice,
    complex_log_embedding,
    curve_equation_residual,
    elliptic_log,
    periods,
    weierstrass_map,
    weierstrass_p,
)

E37 = CurveModel(0, 0, 1, -1, 0, 37)
E32 = CurveModel(0, 0, 0, -1, 0, 32)
E49 = CurveModel(1, -1, 0, -2, -1, 49)

PREC = 200


def quadrature_real_period(E, workprec):
    """tanh-sinh oracle for the real period, independent of the AGM."""
    with mp.workprec(workprec):
        c4, c6 = E.c_invariants
        g2, g3 = mp.mpf(c4) / 12, mp.mpf(c6) / 216
        roots = sorted(
            (mp.re(r) for r in mp.polyroots([4, 0, -g2, -g3], extraprec=80)),
            reverse=True,
        )
        e1 = roots[0]

        def f(s):
            t = e1 + s * s
            return 2 / mp.sqrt(4 * (t - roots[1]) * (t - roots[2]))

        return 2 * mp.quad(f, [0, 1, 10, mp.inf], maxdegree=10)


def quadrature_periods_negative_disc(E, workprec):
    """Quadrature oracle for (w1, w2) of a curve with one real 2-division
    value, independent of the AGM: tanh-sinh for the real period, and
    Gauss-Legendre between e1 and the conjugate branch points for w2."""
    with mp.workprec(workprec):
        c4, c6 = E.c_invariants
        g2, g3 = mp.mpf(c4) / 12, mp.mpf(c6) / 216
        roots = mp.polyroots([4, 0, -g2, -g3], extraprec=workprec // 2 + 40)
        roots = sorted(roots, key=lambda r: abs(mp.im(r)))
        e1 = mp.re(roots[0])
        p_re, q_im = mp.re(roots[1]), abs(mp.im(roots[1]))

        # real period: 2 * int_{e1}^inf dt / sqrt(4(t-e1)((t-p)^2+q^2)),
        # desingularized by t = e1 + s^2.
        def f_real(s):
            return 1 / mp.sqrt((s * s + e1 - p_re) ** 2 + q_im**2)

        w1, err1 = mp.quad(f_real, [0, 1, 10, mp.inf], maxdegree=10, error=True)

        # second generator: i * (AJ(e2) - AJ(e1)) along the straight path
        # t = e1 + lam*v, v = (p - e1) + i q.  There
        # (t-e1)(t-e2) = -lam(1-lam) v^2 and t - e3 stays in the right
        # half-plane, so every square root below is branch-continuous.
        # lam = sin(theta)^2 removes the endpoint singularities, leaving an
        # analytic integrand that Gauss-Legendre resolves fully.
        def f_conn(theta):
            lam = mp.sin(theta) ** 2
            w3 = (1 - lam) * (e1 - p_re) + mp.mpc(0, 1) * q_im * (1 + lam)
            return 2 / mp.sqrt(w3)

        w2, err2 = mp.quad(
            f_conn, [0, mp.pi / 2], method="gauss-legendre", maxdegree=12,
            error=True,
        )
        assert max(err1, err2) < mp.mpf(2) ** -(workprec - 30)
        return 2 * w1, mp.mpc(0, 1) * w2


def _u_q(z, L, prec):
    # reduce z against the Gauss-reduced basis; return (u, q, w1_reduced)
    w1, w2 = L.reduced_basis
    tau = w2 / w1
    x1, y1 = mp.re(w1), mp.im(w1)
    x2, y2 = mp.re(w2), mp.im(w2)
    det = x1 * y2 - x2 * y1
    s = (mp.re(z) * y2 - mp.im(z) * x2) / det
    t = (x1 * mp.im(z) - y1 * mp.re(z)) / det
    t -= mp.nint(t)
    s -= mp.nint(s)
    q = mp.exp(2j * mp.pi * tau)
    u = mp.exp(2j * mp.pi * (s + t * tau))
    return u, q, w1


def series_weierstrass_p(z, L, prec):
    """Oracle: (p(z), p'(z)) by the q-series, at the ambient precision

      p(z) (w1/2 pi i)^2 = 1/12 + u/(1-u)^2
          + sum_{n>=1} [ q^n u/(1-q^n u)^2 + q^n/u /(1-q^n/u)^2 - 2 q^n/(1-q^n)^2 ]
    """
    u, q, w1 = _u_q(z, L, prec)
    tol = mp.mpf(2) ** (-prec - 10)
    one = mp.mpf(1)
    if abs(u - 1) < mp.mpf(2) ** (-prec // 2):
        raise IdentityPoint("z is a lattice point to working precision")
    s_p = one / 12 + u / (1 - u) ** 2
    s_dp = u * (1 + u) / (1 - u) ** 3
    qn = mp.mpc(1)
    n = 0
    while True:
        n += 1
        qn *= q
        a = qn * u
        b = qn / u
        term_p = a / (1 - a) ** 2 + b / (1 - b) ** 2 - 2 * qn / (1 - qn) ** 2
        term_dp = a * (1 + a) / (1 - a) ** 3 - b * (1 + b) / (1 - b) ** 3
        s_p += term_p
        s_dp += term_dp
        if abs(term_p) + abs(term_dp) < tol and n > 2:
            break
        if n > 10_000:
            raise PrecisionUnachievable("p-series did not converge")
    c = 2j * mp.pi / w1
    return (c**2 * s_p, c**3 * s_dp)


def two_torsion(E, prec):
    """The three complex points of order 2 on E, from the 2-division values."""
    b2, b4, b6, _ = E.b_invariants
    with mp.workprec(prec):
        xs = mp.polyroots([4, b2, 2 * b4, b6], extraprec=prec)
        return [(x, -(E.a1 * x + E.a3) / 2) for x in xs]


class TestPeriods:
    def test_37a_values(self):
        L = periods(E37, PREC)
        with mp.workprec(PREC):
            assert abs(L.omega1 - mp.mpf("2.993458646231959629832009979")) < 1e-24
            assert abs(mp.im(L.omega2) - mp.mpf("2.451389381986790060854224831")) < 1e-24
            assert abs(mp.re(L.omega2)) < 1e-40

    def test_32a_square_lattice(self):
        L = periods(E32, PREC)
        with mp.workprec(PREC):
            # CM by i: the lattice is square
            assert abs(L.omega2 / L.omega1 - mp.mpc(0, 1)) < mp.mpf(2) ** -190

    def test_32a_agm_matches_quadrature_oracle(self):
        L = periods(E32, PREC)
        oracle = quadrature_real_period(E32, PREC + 40)
        with mp.workprec(PREC + 40):
            assert abs(L.omega1 - oracle) < mp.mpf(2) ** -(PREC - 8)

    def test_49a_rhombic(self):
        L = periods(E49, PREC)
        with mp.workprec(PREC):
            # complex conjugation fixes the lattice: w2 + conj(w2) in Z*w1
            s = L.omega2 + mp.conj(L.omega2)
            k = mp.nint(mp.re(s / L.omega1))
            assert abs(s - k * L.omega1) < mp.mpf(2) ** -180

    def test_49a_agm_matches_quadrature_oracle(self):
        L = periods(E49, PREC)
        o1, o2 = quadrature_periods_negative_disc(E49, PREC + 40)
        with mp.workprec(PREC + 40):
            oracle = Lattice(o1, o2, PREC)
            tol = mp.mpf(2) ** -(PREC - 8)
            for w, (s0, t0) in ((L.omega1, (1, 0)), (L.omega2, (0, 1))):
                s, t = oracle.coordinates(w)
                assert abs(s - s0) < tol and abs(t - t0) < tol

    def test_bad_precision_rejected(self):
        with pytest.raises(PrecisionUnachievable):
            periods(E37, 20)
        with pytest.raises(PrecisionUnachievable):
            periods(E37, 4000)


class TestWeierstrassP:
    def test_periodicity(self):
        L = periods(E37, PREC)
        with mp.workprec(PREC + 20):
            z = mp.mpf("0.3") * L.omega1 + mp.mpf("0.21") * L.omega2
            p1, dp1 = weierstrass_p(z, L, PREC)
            p2, dp2 = weierstrass_p(z + 3 * L.omega1 - 2 * L.omega2, L, PREC)
            assert abs(p1 - p2) < mp.mpf(2) ** -(PREC - 15)
            assert abs(dp1 - dp2) < mp.mpf(2) ** -(PREC - 15)

    def test_evenness(self):
        L = periods(E49, PREC)
        with mp.workprec(PREC + 20):
            z = mp.mpf("0.27") * L.omega1 + mp.mpf("0.4") * L.omega2
            p1, dp1 = weierstrass_p(z, L, PREC)
            p2, dp2 = weierstrass_p(-z, L, PREC)
            assert abs(p1 - p2) < mp.mpf(2) ** -(PREC - 15)
            assert abs(dp1 + dp2) < mp.mpf(2) ** -(PREC - 15)

    @pytest.mark.parametrize("E", [E37, E32])
    def test_half_period_keeps_guard_bits(self, E):
        # p((w1 + w2)/2) = e2, the middle 2-division value, to 2^-(PREC+10):
        # the reduced basis carries the guard bits that periods computes
        L = periods(E, PREC)
        c4, c6 = E.c_invariants
        with mp.workprec(PREC + 60):
            roots = mp.polyroots(
                [4, 0, -mp.mpf(c4) / 12, -mp.mpf(c6) / 216], extraprec=PREC
            )
            e2 = sorted(mp.re(r) for r in roots)[1]
        with mp.workprec(PREC + 20):
            p, _ = weierstrass_p((L.omega1 + L.omega2) / 2, L, PREC + 20)
            assert abs(p - e2) < mp.mpf(2) ** -(PREC + 10)

    def test_identity_raises(self):
        L = periods(E37, PREC)
        with pytest.raises(IdentityPoint):
            weierstrass_p(mp.mpc(0), L, PREC)

    def test_differential_equation(self):
        # (p')^2 = 4p^3 - g2 p - g3
        L = periods(E37, PREC)
        with mp.workprec(PREC + 20):
            c4, c6 = E37.c_invariants
            g2, g3 = mp.mpf(c4) / 12, mp.mpf(c6) / 216
            z = mp.mpf("0.37") * L.omega1 + mp.mpf("0.11") * L.omega2
            p, dp = weierstrass_p(z, L, PREC)
            assert abs(dp * dp - (4 * p**3 - g2 * p - g3)) < mp.mpf(2) ** -(
                PREC - 20
            )


class TestMapAndLog:
    @pytest.mark.parametrize("E", [E37, E32, E49])
    def test_curve_equation_residual(self, E):
        L = periods(E, PREC)
        with mp.workprec(PREC + 40):
            for k in range(5):
                z = (0.11 + 0.17 * k) * L.omega1 + (0.07 + 0.13 * k) * L.omega2
                x, y = weierstrass_map(z, E, L)
                assert curve_equation_residual(E, x, y) < mp.mpf(2) ** -(PREC - 10)

    def test_rational_point_log_roundtrip(self):
        L = periods(E37, PREC)
        P = point(F(0), F(0))
        with mp.workprec(PREC + 20):
            z = elliptic_log(P, E37, L)
            x, y = weierstrass_map(z, E37, L)
            assert abs(x) < mp.mpf(2) ** -(PREC - 20)
            assert abs(y) < mp.mpf(2) ** -(PREC - 20)

    def test_two_torsion_log(self):
        L = periods(E32, PREC)
        with mp.workprec(PREC + 20):
            for xy in [(F(-1), F(0)), (F(0), F(0)), (F(1), F(0))]:
                z = elliptic_log(point(*xy), E32, L)
                assert L.distance(2 * z) < mp.mpf(2) ** -(PREC - 20)
                x, y = weierstrass_map(z, E32, L)
                assert abs(x - int(xy[0])) < mp.mpf(2) ** -(PREC - 30)

    def test_log_is_homomorphism(self):
        L = periods(E37, PREC)
        P = point(F(0), F(0))
        Q = point(F(1), F(0))
        R = point_add(P, Q, E37)
        with mp.workprec(PREC + 20):
            zP = elliptic_log(P, E37, L)
            zQ = elliptic_log(Q, E37, L)
            zR = elliptic_log(R, E37, L)
            assert L.distance(zP + zQ - zR) < mp.mpf(2) ** -(PREC - 20)

    def test_random_roundtrips(self):
        rng = random.Random(11)
        L = periods(E37, PREC)
        with mp.workprec(PREC + 40):
            for _ in range(10):
                s, t = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
                z = s * L.omega1 + t * L.omega2
                x, y = weierstrass_map(z, E37, L)
                z2 = complex_log_embedding(x, y, E37, L)
                assert L.distance(z - z2) < mp.mpf(2) ** -(PREC - 12)


class TestLatticeOps:
    def test_reduce_into_fundamental_domain(self):
        L = periods(E37, PREC)
        with mp.workprec(PREC):
            z = 17 * L.omega1 - 9 * L.omega2 + 0.3 * L.omega1
            r = L.reduce(z)
            assert L.distance(z - r) < mp.mpf(2) ** -(PREC - 20)

    def test_distance_zero_on_lattice_points(self):
        L = periods(E49, PREC)
        with mp.workprec(PREC):
            assert L.distance(3 * L.omega1 - 2 * L.omega2) < mp.mpf(2) ** -(
                PREC - 20
            )

    def test_nearest_distances_ordering(self):
        L = periods(E37, PREC)
        with mp.workprec(PREC):
            d0, d1 = L.nearest_distances(0.3 * L.omega1 + 0.4 * L.omega2)
            assert d0 <= d1
            assert d0 > 0


LATTICES = {E: periods(E, PREC) for E in (E37, E32, E49)}
PRECS = (200, 500, 1000)
LATTICES_BY_PREC = {(E, p): periods(E, p) for E in (E37, E32, E49) for p in PRECS}


class TestThetaAgainstSeriesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        E=st.sampled_from([E37, E32, E49]),
        prec=st.sampled_from(PRECS),
        s=st.floats(0.02, 0.98),
        t=st.floats(0.02, 0.98),
    )
    def test_matches_series(self, E, prec, s, t):
        # at prec + 20, as weierstrass_map and the elliptic log call it
        L = LATTICES_BY_PREC[E, prec]
        work = prec + 20
        with mp.workprec(work):
            z = s * L.omega1 + t * L.omega2
            p, dp = weierstrass_p(z, L, work)
            po, dpo = series_weierstrass_p(z, L, work)
            assert abs(p - po) < mp.mpf(2) ** -(prec + 5) * (1 + abs(po))
            assert abs(dp - dpo) < mp.mpf(2) ** -(prec + 5) * (1 + abs(dpo))

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("E", [E37, E32, E49], ids=["37a", "32a", "49a"])
    def test_half_periods(self, E, prec):
        # p' vanishes at w1/2, w2/2 and (w1 + w2)/2; p matches the oracle
        L = LATTICES_BY_PREC[E, prec]
        work = prec + 20
        with mp.workprec(work):
            for z in (L.omega1 / 2, L.omega2 / 2, (L.omega1 + L.omega2) / 2):
                p, dp = weierstrass_p(z, L, work)
                po, _ = series_weierstrass_p(z, L, work)
                assert abs(dp) < mp.mpf(2) ** -(prec + 5)
                assert abs(p - po) < mp.mpf(2) ** -(prec + 5) * (1 + abs(po))

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("E", [E37, E32, E49], ids=["37a", "32a", "49a"])
    def test_near_the_origin(self, E, prec):
        # p ~ 1/z^2 ~ 2^120: the series at prec + 20 loses about 60 bits
        # here, the theta quotient keeps them
        L = LATTICES_BY_PREC[E, prec]
        with mp.workprec(prec + 200):
            z = mp.mpf(2) ** -60 * L.omega1 + mp.mpf(3) ** -40 * L.omega2
            po, dpo = series_weierstrass_p(z, L, prec + 200)
        with mp.workprec(prec + 20):
            p, dp = weierstrass_p(z, L, prec + 20)
            tol = mp.mpf(2) ** -(prec - 10)
            assert abs(p - po) < tol * abs(po)
            assert abs(dp - dpo) < tol * abs(dpo)


class TestLogProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        E=st.sampled_from([E37, E32, E49]),
        s=st.floats(0.02, 0.98),
        t=st.floats(0.02, 0.98),
    )
    @example(E=E37, s=0.5, t=0.5)  # a half period, where p' vanishes
    def test_map_log_round_trip(self, E, s, t):
        L = LATTICES[E]
        with mp.workprec(PREC + 40):
            z = s * L.omega1 + t * L.omega2
            x, y = weierstrass_map(z, E, L)
            z2 = complex_log_embedding(x, y, E, L)
            assert L.distance(z - z2) < mp.mpf(2) ** -(PREC - 12)

    @pytest.mark.parametrize("E", [E37, E32, E49])
    def test_two_torsion_logs(self, E):
        L = LATTICES[E]
        with mp.workprec(PREC + 20):
            for x, y in two_torsion(E, PREC + 20):
                z = complex_log_embedding(x, y, E, L)
                assert L.distance(2 * z) < mp.mpf(2) ** -(PREC - 20)
                x2, _ = weierstrass_map(z, E, L)
                assert abs(x2 - x) < mp.mpf(2) ** -(PREC - 20) * (1 + abs(x))

    @pytest.mark.parametrize("n", [-8, -3, -1, 1, 2, 3, 4, 5, 6, 7, 8])
    def test_multiples_on_37a(self, n):
        # several multiples of (0, 0) lie on the real egg
        L = LATTICES[E37]
        Q = point_mul(n, point(F(0), F(0)), E37)
        with mp.workprec(PREC + 20):
            qx = mp.mpf(Q.x.numerator) / Q.x.denominator
            qy = mp.mpf(Q.y.numerator) / Q.y.denominator
            z = elliptic_log(Q, E37, L)
            x, y = weierstrass_map(z, E37, L)
            tol = mp.mpf(2) ** -(PREC - 20) * (1 + abs(qx))
            assert abs(x - qx) < tol
            assert abs(y - qy) < tol * (1 + abs(qx))
