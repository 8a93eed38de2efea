from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heegnerlab.ellcurve import (
    CurveModel,
    INFINITY,
    QuadElt,
    an_coeffs,
    ap,
    ap_bad,
    point,
    point_add,
    point_mul,
    point_neg,
    reduce_mod_p,
    torsion_subgroup,
)
from heegnerlab.errors import BadReductionPrime, FieldMismatch

E37 = CurveModel(0, 0, 1, -1, 0, 37)
E32 = CurveModel(0, 0, 0, -1, 0, 32)
E49 = CurveModel(1, -1, 0, -2, -1, 49)


def naive_ap(E, p):
    # direct point count over F_p, including the point at infinity
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y + E.a1 * x * y + E.a3 * y - (x**3 + E.a2 * x * x + E.a4 * x + E.a6)) % p == 0:
                n += 1
    return p + 1 - n


class TestQuadElt:
    def test_arithmetic(self):
        a = QuadElt.make(F(1, 2), F(3), -7)
        b = QuadElt.make(F(2), F(-1), -7)
        assert a + b == QuadElt.make(F(5, 2), F(2), -7)
        assert a * b == QuadElt.make(F(1) + F(3) * (-7) * (-1), 0, -7) + QuadElt.make(
            0, F(1, 2) * (-1) + F(3) * 2, -7
        )
        assert (a / a) == 1
        assert a - a == 0

    def test_normalizes_square_factors(self):
        v = QuadElt.make(0, 1, -28)  # sqrt(-28) = 2 sqrt(-7)
        assert v.d == -7 and v.y == 2

    def test_rational_collapse(self):
        assert QuadElt.make(F(3), F(0), -7) == F(3)
        assert isinstance(QuadElt.make(F(3), F(0), -7), F)

    def test_field_mismatch(self):
        a = QuadElt.make(0, 1, -7)
        b = QuadElt.make(0, 1, -11)
        with pytest.raises(FieldMismatch):
            a + b

    def test_conjugate(self):
        a = QuadElt.make(F(1, 2), F(3), -7)
        assert a + a.conjugate() == 1
        assert a * a.conjugate() == F(1, 4) - 9 * (-7)


class TestInvariants:
    def test_37a(self):
        assert E37.discriminant == 37
        assert E37.c_invariants == (48, -216)

    def test_32a(self):
        assert E32.discriminant == 64

    def test_49a(self):
        assert E49.discriminant == -7**3


class TestGroupLaw:
    def test_small_multiples_on_37a(self):
        P = point(F(0), F(0))
        assert point_mul(2, P, E37) == point(F(1), F(0))
        assert point_mul(3, P, E37) == point(F(-1), F(-1))
        assert point_mul(4, P, E37) == point(F(2), F(-3))

    def test_negation_and_cancellation(self):
        P = point(F(0), F(0))
        assert point_add(P, point_neg(P, E37), E37).is_infinity
        assert point_mul(-2, P, E37) == point_neg(point_mul(2, P, E37), E37)

    def test_associativity_sample(self):
        P = point(F(0), F(0))
        Q = point_mul(2, P, E37)
        R = point_mul(5, P, E37)
        lhs = point_add(point_add(P, Q, E37), R, E37)
        rhs = point_add(P, point_add(Q, R, E37), E37)
        assert lhs == rhs

    def test_identity(self):
        P = point(F(2), F(-3))
        assert point_add(P, INFINITY, E37) == P
        assert point_add(INFINITY, P, E37) == P

    def test_quadratic_field_points(self):
        # x = 2 gives y^2 + y = 6, y = (-1 + sqrt(25))/2 = 2 rational;
        # x = 3 gives y^2 + y = 24, y = (-1 + sqrt(97))/2 quadratic
        y = QuadElt.make(F(-1, 2), F(1, 2), 97)
        P = point(F(3), y)
        assert E37.on_curve(P.x, P.y)
        Q = point_mul(2, P, E37)
        lhs = Q.y * Q.y + Q.y
        rhs = Q.x**3 - Q.x
        assert lhs == rhs


class TestPointCounting:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43])
    def test_ap_vs_naive_37a(self, p):
        assert ap(E37, p) == naive_ap(E37, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_ap_vs_naive_32a(self, p):
        assert ap(E32, p) == naive_ap(E32, p)

    def test_a37_at_bad_prime(self):
        # multiplicative reduction at 37; tangent slopes at the node are
        # +-sqrt(15), a non-residue mod 37, so the reduction is nonsplit
        assert ap_bad(E37, 37) == -1

    def test_a2_at_bad_prime_32a(self):
        assert ap_bad(E32, 2) == 0  # additive reduction

    def test_a7_at_bad_prime_49a(self):
        assert ap_bad(E49, 7) == 0  # additive reduction


def loop_an_coeffs_oracle(E, M):
    """a_1..a_M as an_coeffs built them before the smallest-prime-factor
    sieve: a_p over a prime loop, prime powers from the Hecke recursion,
    composites from trial division."""
    a = [0] * (M + 1)
    a[1] = 1
    sieve = bytearray([1]) * (M + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(M**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    for p in range(2, M + 1):
        if not sieve[p]:
            continue
        good = E.conductor % p != 0
        app = ap(E, p) if good else ap_bad(E, p)
        a[p] = app
        pk = p * p
        while pk <= M:
            if good:
                a[pk] = app * a[pk // p] - p * a[pk // (p * p)]
            else:
                a[pk] = app * a[pk // p]
            pk *= p
    for n in range(2, M + 1):
        if sieve[n]:
            continue
        p = next(f for f in range(2, n + 1) if n % f == 0)
        pk = p
        while (n // pk) % p == 0:
            pk *= p
        m = n // pk
        if m > 1:
            a[n] = a[pk] * a[m]
    return tuple(a[1:])


class TestCoefficients:
    @pytest.mark.parametrize("E", [E37, E32, E49], ids=["37a", "32a", "49a"])
    def test_matches_loop_oracle(self, E):
        assert an_coeffs(E, 1500).coefficients == loop_an_coeffs_oracle(E, 1500)

    @settings(max_examples=40, deadline=None)
    @given(
        E=st.sampled_from([E37, E32, E49]),
        M0=st.integers(1, 400),
        M=st.integers(1, 400),
    )
    def test_extending_a_prefix_equals_building_afresh(self, E, M0, M):
        prefix = an_coeffs(E, M0)
        assert an_coeffs(E, M, prefix) == an_coeffs(E, M)

    def test_37a_initial_segment(self):
        q = an_coeffs(E37, 12)
        assert q.coefficients == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4, -5, -6)

    def test_multiplicativity(self):
        import math

        q = an_coeffs(E37, 2000)
        for m in range(2, 45):
            for n in range(2, 45):
                if math.gcd(m, n) == 1:
                    assert q.a(m * n) == q.a(m) * q.a(n)

    def test_hecke_recursion_at_prime_powers(self):
        q = an_coeffs(E37, 1000)
        for p in (2, 3, 5, 7):
            for k in range(2, 6):
                if p**k > 1000:
                    continue
                assert q.a(p**k) == q.a(p) * q.a(p ** (k - 1)) - p * q.a(p ** (k - 2))

    def test_hasse_bound(self):
        import math

        q = an_coeffs(E37, 500)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47):
            assert abs(q.a(p)) <= 2 * math.isqrt(p) + 1


class TestTorsion:
    def test_37a_trivial(self):
        points, structure = torsion_subgroup(E37)
        assert structure == ()
        assert len(points) == 1

    def test_32a_klein_four(self):
        points, structure = torsion_subgroup(E32)
        assert tuple(structure) == (2, 2)
        got = {(P.x, P.y) for P in points if not P.is_infinity}
        assert got == {(F(-1), F(0)), (F(0), F(0)), (F(1), F(0))}

    def test_49a_z2(self):
        points, structure = torsion_subgroup(E49)
        assert tuple(structure) == (2,)
        (P,) = [P for P in points if not P.is_infinity]
        assert (P.x, P.y) == (F(2), F(-1))

    def test_torsion_points_have_claimed_order(self):
        points, _ = torsion_subgroup(E32)
        for P in points:
            if P.is_infinity:
                continue
            assert point_mul(2, P, E32).is_infinity


class TestReduction:
    def test_good_reduction(self):
        P = point(F(1, 4), F(-5, 8))
        # not on 37a; use a real point instead
        P = point(F(2), F(-3))
        assert reduce_mod_p(P, E37, 5) == (2, 2)

    def test_denominator_becomes_infinity_like(self):
        P = point(F(1, 4), F(-5, 8))
        with pytest.raises(Exception):
            reduce_mod_p(P, E37, 2)

    def test_bad_prime_rejected(self):
        P = point(F(0), F(0))
        with pytest.raises(BadReductionPrime):
            reduce_mod_p(P, E37, 37)
