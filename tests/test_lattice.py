import ast
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import heegnerlab
from heegnerlab.ellcurve import (CurveModel, CurvePoint, point, point_add,
                                 point_mul)
from heegnerlab.errors import IdentityPoint, PrecisionUnachievable
from heegnerlab import lattice
from heegnerlab.lattice import (
    Lattice,
    _thetas,
    _two_division,
    elliptic_log,
    periods,
    weierstrass_map,
    weierstrass_p,
)

E37 = CurveModel(0, 0, 1, -1, 0, 37)
E32 = CurveModel(0, 0, 0, -1, 0, 32)
E49 = CurveModel(1, -1, 0, -2, -1, 49)

PREC = 200


def curve_equation_residual(E, x, y):
    return abs(
        y * y + E.a1 * x * y + E.a3 * y - (x**3 + E.a2 * x * x + E.a4 * x + E.a6)
    )


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
            p1, dp1 = weierstrass_p(z, L)
            p2, dp2 = weierstrass_p(z + 3 * L.omega1 - 2 * L.omega2, L)
            assert abs(p1 - p2) < mp.mpf(2) ** -(PREC - 15)
            assert abs(dp1 - dp2) < mp.mpf(2) ** -(PREC - 15)

    def test_evenness(self):
        L = periods(E49, PREC)
        with mp.workprec(PREC + 20):
            z = mp.mpf("0.27") * L.omega1 + mp.mpf("0.4") * L.omega2
            p1, dp1 = weierstrass_p(z, L)
            p2, dp2 = weierstrass_p(-z, L)
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
            p, _ = weierstrass_p((L.omega1 + L.omega2) / 2, L)
            assert abs(p - e2) < mp.mpf(2) ** -(PREC + 10)

    def test_identity_raises(self):
        L = periods(E37, PREC)
        with pytest.raises(IdentityPoint):
            weierstrass_p(mp.mpc(0), L)

    def test_differential_equation(self):
        # (p')^2 = 4p^3 - g2 p - g3
        L = periods(E37, PREC)
        with mp.workprec(PREC + 20):
            c4, c6 = E37.c_invariants
            g2, g3 = mp.mpf(c4) / 12, mp.mpf(c6) / 216
            z = mp.mpf("0.37") * L.omega1 + mp.mpf("0.11") * L.omega2
            p, dp = weierstrass_p(z, L)
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
                z2 = elliptic_log(CurvePoint(x, y), E37, L)
                assert L.distance(z - z2) < mp.mpf(2) ** -(PREC - 12)


class TestLatticeOps:
    def test_reduce_into_fundamental_domain(self):
        L = periods(E37, PREC)
        with mp.workprec(PREC):
            z = 17 * L.omega1 - 9 * L.omega2 + 0.3 * L.omega1
            r = L.reduce(z)
            assert L.distance(z - r) < mp.mpf(2) ** -(PREC - 20)

    def test_reduce_representative(self):
        # coordinates in [-d, 1 - d), d = 2^-(prec - 10)
        L = periods(E37, PREC)
        d = mp.ldexp(1, 10 - PREC)
        with mp.workprec(PREC + 20):
            for s, t in [(0, 0), (0.5, 0.999), (-3.25, 7.5), (0.999, -0.001)]:
                a, b = L.coordinates(L.reduce(s * L.omega1 + t * L.omega2))
                assert -d <= a < 1 - d and -d <= b < 1 - d

    def test_reduce_edge_lands_near_zero(self):
        # noise on either side of an edge moves z by that noise, not a period
        L = periods(E37, PREC)
        eps = mp.ldexp(1, -PREC)
        with mp.workprec(PREC + 20):
            for t in (1 - eps, -eps, eps):
                assert abs(L.reduce(t * L.omega2)) < 4 * eps

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


class TestTorus:
    @pytest.mark.parametrize("E", [E37, E32, E49])
    def test_methods_ignore_the_ambient_precision(self, E):
        # a 200-bit lattice used at the default 53 bits gives what it gives
        # under mp.workprec(K), to the bit
        L = periods(E, PREC)
        K = PREC + 20
        with mp.workprec(K):
            z = mp.mpf("0.3") * L.omega1 - mp.mpf("2.71") * L.omega2
            want = L.coordinates(z), L.reduce(z), L.nearest_distances(z)
        with mp.workprec(53):
            assert (L.coordinates(z), L.reduce(z),
                    L.nearest_distances(z)) == want
        assert L.torus_bits == K
        with mp.workprec(K):
            A, B = L.torus(z)
            want_point = L.point(A, B)
        with mp.workprec(53):
            assert L.torus(z) == (A, B)
            assert L.point(A, B) == want_point

    @settings(max_examples=60, deadline=None)
    @given(E=st.sampled_from([E37, E32, E49]),
           prec=st.sampled_from([53, 200, 1000]), data=st.data())
    def test_point_torus_round_trip(self, E, prec, data):
        L = periods(E, prec)
        K, d = L.torus_bits, 1 << 30
        coordinate = (st.integers(-(2 ** (K + 3)), 2 ** (K + 3))
                      | st.integers(-d - 3, -d + 3)
                      | st.integers(2**K - d - 3, 2**K - d + 3))
        A, B = data.draw(coordinate), data.draw(coordinate)
        m, n = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
        z = L.point(A, B)
        assert L.point(A + m * 2**K, B + n * 2**K) == z
        # z and its coordinates are each formed at K bits: a few roundings of
        # 2^-K relative, magnified by at most scale^2 / det <= 1.52 (49a),
        # keep the round trip within 13 * 1.52 + 1 < 21 units (4 measured)
        for got, c in zip(L.torus(z), (A, B)):
            # the representative of c mod 2^K in [-d, 2^K - d)
            assert abs(got - ((c + d) % 2**K - d)) < 21


class TestNearAgainstDistanceOracle:
    # a lattice point plus r times the radius 2^-(prec/2) max|w_i| in a
    # drawn direction
    @settings(max_examples=80, deadline=None)
    @given(
        E=st.sampled_from([E37, E32, E49]),
        prec=st.sampled_from([53, 100, 200, 1000]),
        r=st.sampled_from([0, 0.5, 0.99, 1.01, 1.5]),
        m=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        angle=st.floats(0, 7),
    )
    def test_agrees_with_nearest_distances(self, E, prec, r, m, angle):
        L = periods(E, prec)
        K = prec + 20
        with mp.workprec(K + 20):
            radius = mp.ldexp(max(abs(L.omega1), abs(L.omega2)), -(prec // 2))
            z = m[0] * L.omega1 + m[1] * L.omega2 + r * radius * mp.expj(angle)
            a, b = (int(mp.nint(mp.ldexp(c, K))) for c in L.coordinates(z))
            expected = L.nearest_distances(z)[0] < radius
        assert expected == (r < 1)
        assert L.near(a, b) == expected

    @pytest.mark.parametrize("exponent, raises", [(-87, False), (-88, True)])
    def test_tiny_lattice_raises(self, exponent, raises):
        # the margin for orbit_degree needs scale > 2^(12 + h - prec),
        # 2^-88 at 200 bits; the bundled lattices have scale about 3
        w = mp.ldexp(1, exponent)
        L = Lattice(mp.mpc(w), mp.mpc(0, w), 200)
        if raises:
            with pytest.raises(PrecisionUnachievable, match="scale"):
                L.near(0, 0)
        else:
            assert L.near(0, 0)

    def test_skewed_lattice_raises(self):
        # det / scale^2 = 10^-3 < 2^-8: no answer rather than a wrong one
        L = Lattice(1, 1000j, 200)
        with pytest.raises(PrecisionUnachievable):
            L.near(0, 0)
        with pytest.raises(PrecisionUnachievable):
            L.near_bound()


def _centred(x, K):
    # the representative of x mod 2^K in [-2^(K-1), 2^(K-1))
    x %= 1 << K
    return x - (1 << K) if x >= 1 << (K - 1) else x


def _screened_pair(draw, L):
    # a pair that some t0 <= 12 sends to within an offset e of a lattice
    # point, e drawn inside, on and just outside the screen's bound sigma
    # and near zero, or a pair of arbitrary integers
    K, sigma = L.torus_bits, L.near_bound()
    if draw(st.booleans()):
        wide = st.integers(-(2 ** (K + 3)), 2 ** (K + 3))
        return draw(wide), draw(wide)
    t0 = draw(st.integers(1, 12))
    edge = st.sampled_from([s * (sigma + e) for s in (1, -1) for e in (-1, 0, 1)])
    offset = st.one_of(st.integers(-3, 3), st.integers(-2 * sigma, 2 * sigma),
                       edge)
    return tuple((draw(st.integers(-(2 ** K), 2 ** K)) * 2**K + draw(offset))
                 // t0 for _ in range(2))


@st.composite
def screened_pairs(draw):
    """(L, a, b): a pair that some t0 <= 12 sends to within an offset e of
    a lattice point, e drawn inside, on and just outside the screen's bound
    sigma and near zero, or a pair of arbitrary integers."""
    L = periods(draw(st.sampled_from([E37, E32, E49])),
                draw(st.sampled_from([53, 100, 200])))
    return (L, *_screened_pair(draw, L))


@st.composite
def screened_lines(draw):
    """(L, a, b, da, db, count): a line of count points whose k0-th point is
    a screened pair, with a step that wraps mod 2^K (arbitrary integers),
    stays within a few units, or is itself a screened pair, so that many
    points of the line lie near j 2^K / t."""
    L, a0, b0 = draw(screened_pairs())
    count = draw(st.integers(1, 51))
    k0 = draw(st.integers(0, count - 1))
    if draw(st.booleans()):
        da, db = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    else:
        da, db = _screened_pair(draw, L)
    return L, a0 - k0 * da, b0 - k0 * db, da, db, count


def closed_form_torsion(L, a, b, limit):
    """The t in 1..limit with both centred coordinates of t (a, b) mod 2^K
    at most near_bound(): the per-point test that torsion_on_line's screen
    must not change."""
    K, sigma = L.torus_bits, L.near_bound()
    return [t for t in range(1, limit + 1)
            if abs(_centred(t * a, K)) <= sigma
            and abs(_centred(t * b, K)) <= sigma]


K200 = PREC + 20


class TestTorsionCandidates:
    # 3 (a, b) = (5 2^K + 1, -2^K - 2), 1 and -2 units from L: near holds at
    # t = 3, 6, 9, 12, and t (a, b) is a third of a period away for the rest
    @settings(max_examples=150, deadline=None)
    @given(case=screened_pairs())
    @example(case=(periods(E37, PREC), (5 * 2**K200 + 1) // 3,
                   -(2**K200 + 2) // 3))
    def test_screen_is_centred_bound_and_keeps_near(self, case):
        # a line of one point: its t are the closed form, which keeps near
        L, a, b = case
        hits = list(L.torsion_on_line(a, b, 0, 0, 1, 12))
        ts = hits[0][1] if hits else []
        assert hits == ([(0, ts)] if ts else [])
        assert ts == closed_form_torsion(L, a, b, 12)
        for t in range(1, 13):
            if L.near(t * a, t * b):
                assert t in ts

    @settings(max_examples=150, deadline=None)
    @given(case=screened_lines(), limit=st.integers(1, 12))
    def test_line_matches_the_closed_form(self, case, limit):
        # exactly the k whose closed-form list is not empty, with that list
        L, a, b, da, db, count = case
        expected = [(k, ts) for k in range(count)
                    if (ts := closed_form_torsion(L, a + k * da, b + k * db,
                                                  limit))]
        assert list(L.torsion_on_line(a, b, da, db, count, limit)) == expected

    def test_screen_tolerance_edges(self):
        # t x at most sigma, or sigma + 1, from j 2^K (x = (j 2^K + e) / t
        # rounded towards j 2^K / t): the screen keeps every point with a t
        L = periods(E37, PREC)
        K, sigma = L.torus_bits, L.near_bound()
        for t in range(1, 13):
            for j in range(t + 1):
                for e in (-sigma - 1, -sigma, sigma, sigma + 1):
                    x = (j * 2**K + e) // t if e > 0 else -((-j * 2**K - e) // t)
                    ts = closed_form_torsion(L, x, 0, 12)
                    assert t in ts or abs(e) > sigma
                    assert (list(L.torsion_on_line(x, 0, 0, 0, 1, 12))
                            == ([(0, ts)] if ts else []))


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
        # weierstrass_p works at prec + 20; the oracle sums there too
        L = LATTICES_BY_PREC[E, prec]
        work = prec + 20
        with mp.workprec(work):
            z = s * L.omega1 + t * L.omega2
            p, dp = weierstrass_p(z, L)
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
                p, dp = weierstrass_p(z, L)
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
            p, dp = weierstrass_p(z, L)
            tol = mp.mpf(2) ** -(prec - 10)
            assert abs(p - po) < tol * abs(po)
            assert abs(dp - dpo) < tol * abs(dpo)


class TestThetaKernel:
    # _thetas against mpmath's jtheta, which it replaced, on v over the
    # reduced parallelogram: |Im v| at its maximum pi Im tau / 2 (t = +-1/2)
    # and |v| down to 2^-(prec/2) + 1, the least that weierstrass_p admits
    @settings(max_examples=60, deadline=None)
    @given(
        E=st.sampled_from([E37, E32, E49]),
        prec=st.sampled_from([53, 200, 500, 1000]),
        s=st.floats(-0.5, 0.5),
        t=st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.5, -0.5])),
        tiny=st.one_of(st.none(), st.tuples(st.floats(0, 1), st.floats(0, 7))),
    )
    def test_matches_jtheta(self, E, prec, s, t, tiny):
        L = periods(E, prec)
        p = prec + 30  # what weierstrass_p asks for
        with mp.workprec(p + 60):
            w1, w2 = L.reduced_basis
            tau = w2 / w1
            if tiny is None:
                v = mp.pi * (s + t * tau)
            else:  # 2^-(prec/2) + 1 <= |v| <= 2^-4
                depth, angle = tiny
                v = mp.expj(angle) * mp.ldexp(1, -(4 + int(depth * (prec // 2 - 5))))
            q = mp.expjpi(tau)
            expected = [mp.jtheta(n, v, q) for n in (1, 2, 3, 4)]
            got = _thetas(v, q, p)
            for g, e in zip(got, expected):
                assert abs(g - e) < mp.ldexp(1, -p)
            if 0 < abs(v) <= 0.5:  # th1(0) = 0, which jtheta misses
                assert abs(got[0] - expected[0]) < mp.ldexp(abs(expected[0]), -p)

    def test_theta_constants_match_jtheta(self):
        for E in (E37, E32, E49):
            L = periods(E, PREC)
            tau, q, c, p0, t34, t234 = L.theta_constants
            with mp.workprec(PREC + 40):
                th2, th3, th4 = (mp.jtheta(n, 0, q) for n in (2, 3, 4))
                assert abs(t34 - th3 * th4) < mp.ldexp(1, -(PREC + 35))
                assert abs(t234 - (th2 * th3 * th4) ** 2) < mp.ldexp(1, -(PREC + 35))


def test_no_jtheta_in_the_package():
    # _thetas sums every theta the package needs; mpmath's jtheta stays only
    # as its oracle here
    offenders = []
    for info in pkgutil.iter_modules(heegnerlab.__path__):
        module = importlib.import_module(f"heegnerlab.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr",
                                getattr(node.func, "id", None)) == "jtheta"):
                offenders.append(f"{module.__name__}:{node.lineno}")
    assert offenders == []


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
            z2 = elliptic_log(CurvePoint(x, y), E, L)
            assert L.distance(z - z2) < mp.mpf(2) ** -(PREC - 12)

    @pytest.mark.parametrize("E", [E37, E32, E49])
    def test_two_torsion_logs(self, E):
        L = LATTICES[E]
        with mp.workprec(PREC + 20):
            for x, y in two_torsion(E, PREC + 20):
                z = elliptic_log(CurvePoint(x, y), E, L)
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


def two_division_values_oracle(c4: int, c6: int, prec: int):
    # roots of 4t^3 - g2 t - g3, the 2-division values of the p-function
    with mp.workprec(prec):
        g2 = mpf(c4) / 12
        g3 = mpf(c6) / 216
        roots = mp.polyroots([4, 0, -g2, -g3], extraprec=prec // 2 + 40)
    return roots, g2, g3


def _sorted_roots(roots):
    return sorted(roots, key=lambda r: (mp.re(r), mp.im(r)))


class TestTwoDivisionValues:
    # the lattice keeps the e_i its AGM solved at prec + 40; elliptic_log
    # solved them again at prec + 20 with two_division_values_oracle
    @pytest.mark.parametrize("prec", [53, 200, 1000])
    @pytest.mark.parametrize("E", [E37, E32, E49], ids=["37a", "32a", "49a"])
    def test_match_the_cubic_solve_of_elliptic_log(self, E, prec):
        L = periods(E, prec)
        roots, _, _ = two_division_values_oracle(*E.c_invariants, prec + 20)
        assert len(L.two_division) == 3
        with mp.workprec(prec + 40):
            for e, o in zip(_sorted_roots(L.two_division),
                            _sorted_roots(roots)):
                assert abs(e - o) <= mp.ldexp(1, -(prec + 10)) * (1 + abs(o))

    def test_elliptic_log_solves_no_cubic(self, monkeypatch):
        L = periods(E49, PREC)  # built, and cached, before the spy
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("polyroots called")

        monkeypatch.setattr(mp, "polyroots", spy)
        z = elliptic_log(point(F(2), F(-1)), E49, L)
        with mp.workprec(PREC + 20):
            x, _ = weierstrass_map(z, E49, L)
            assert abs(x - 2) < mp.ldexp(1, -(PREC - 20))
        assert calls == []

    def test_hand_built_lattice_raises_value_error(self):
        L = periods(E37, PREC)
        bare = Lattice(L.omega1, L.omega2, PREC)
        with pytest.raises(ValueError, match="2-division values"):
            elliptic_log(point(F(0), F(0)), E37, bare)


def _ordered_as_the_agm_reads_them(roots, positive):
    # Delta > 0: three real values, descending; Delta < 0: the real value,
    # then the complex pair, negative imaginary part first
    if positive:
        return (all(isinstance(r, mpf) for r in roots)
                and roots[0] > roots[1] > roots[2])
    e1, e2, e3 = roots
    return (isinstance(e1, mpf) and e3.imag > 0 and e3.real == e2.real
            and e3.imag + e2.imag == 0)


class TestNewtonTwoDivision:
    # _two_division's Newton roots against the polyroots oracle at twice
    # the working bits (it loses accuracy on close roots), to within
    # 2^-(prec + 30) of the largest root, on random nonsingular (c4, c6)
    @settings(max_examples=60, deadline=None)
    @given(c4=st.integers(-10**6, 10**6), c6=st.integers(-10**9, 10**9),
           prec=st.integers(53, 1000))
    @example(c4=48, c6=-216, prec=200)  # 37a, Delta > 0
    @example(c4=105, c6=1323, prec=1000)  # 49a, Delta < 0
    @example(c4=48, c6=0, prec=53)  # 32a, a root at 0
    @example(c4=-192, c6=0, prec=500)  # 32a1, a purely imaginary pair
    @example(c4=0, c6=-864, prec=200)  # 36a1, j = 0
    @example(c4=10**6, c6=10**9 - 1, prec=300)  # 29 bits cancel in Delta
    def test_match_the_oracle(self, c4, c6, prec):
        assume(c4**3 != c6**2)
        work = prec + 40
        roots = _two_division(c4, c6, work)
        assert _ordered_as_the_agm_reads_them(roots, c4**3 > c6**2)
        oracle, _, _ = two_division_values_oracle(c4, c6, 2 * work)
        with mp.workprec(work):
            tol = mp.ldexp(max(map(abs, oracle)), -(prec + 30))
            for e, o in zip(_sorted_roots(roots), _sorted_roots(oracle)):
                assert abs(e - o) <= tol

    @pytest.mark.parametrize("E, prec", [
        (CurveModel(0, 0, 1, -7, 6, 5077), 321),  # Delta > 0
        (CurveModel(0, -1, 1, -10, -20, 11), 123),  # Delta < 0
    ], ids=["5077a", "11a1"])
    @pytest.mark.parametrize("seeds", ["coincident", "far"])
    def test_bad_seeds_raise(self, monkeypatch, E, prec, seeds):
        # coincident seeds converge to one root, so the discs overlap; a
        # seed 2^40 out is still far off after the Newton steps allowed
        real = lattice._cubic_seeds

        def bad(c4, c6):
            s, xs = real(c4, c6)
            x = xs[0] if seeds == "coincident" else mpf(2) ** 40
            return s, (x,) * len(xs)

        monkeypatch.setattr(lattice, "_cubic_seeds", bad)
        with pytest.raises(PrecisionUnachievable, match="uncertified"):
            periods(E, prec)  # a key no other test builds: not cached


def test_no_polyroots_in_the_package():
    # the cubic is solved by _two_division's Newton; mpmath's polyroots is
    # only a test oracle, and no module of the package names it
    names = []
    for info in pkgutil.iter_modules(heegnerlab.__path__):
        module = importlib.import_module(f"heegnerlab.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        names += [info.name for node in ast.walk(tree)
                  if getattr(node, "attr", getattr(node, "id", None))
                  == "polyroots"]
    assert names == []


class TestConjugate:
    @pytest.mark.parametrize("E, shift", [(E37, 0), (E32, 0), (E49, 1)],
                             ids=["37a", "32a", "49a"])
    def test_shift(self, E, shift):
        # c = round(2 Re(w2/w1)): rectangular lattices 0, 49a's rhombic 1
        L = LATTICES[E]
        assert L.conjugate(5, 7) == (5 + 7 * shift, -7)

    @settings(max_examples=60, deadline=None)
    @given(E=st.sampled_from([E37, E32, E49]), s=st.floats(-2, 2),
           t=st.floats(-2, 2))
    def test_is_complex_conjugation_on_the_torus(self, E, s, t):
        L = LATTICES[E]
        A, B = (int(c * 2**L.precision_bits) << 20 for c in (s, t))
        with mp.workprec(PREC + 40):
            zbar = mp.conj(L.point(A, B))
        Ac, Bc = L.conjugate(A, B)
        a, b = L.torus(zbar)
        assert L.near(a - Ac, b - Bc)

    @pytest.mark.parametrize("E", [E37, E49], ids=["37a", "49a"])
    def test_fixed_points_are_the_real_components(self, E):
        # z = s w1 + t w2 is real exactly for t = 0, and also t = 1/2 on a
        # lattice with two real components (37a, disc > 0)
        L = LATTICES[E]
        K = L.torus_bits
        for s in (0, 3, 11):
            for t, real in ((0, True), (4, E is E37), (1, False), (3, False)):
                A, B = s << (K - 4), t << (K - 3)
                Ac, Bc = L.conjugate(A, B)
                assert L.near(A - Ac, B - Bc) == real, (s, t)
