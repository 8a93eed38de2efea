import ast
import importlib
import inspect
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegnerlab import ellcurve
from heegnerlab.ellcurve import (
    CurveModel,
    INFINITY,
    QuadElt,
    an_coeffs,
    ap,
    point,
    point_add,
    point_mul,
    point_neg,
    torsion_subgroup,
)
from heegnerlab.arith import prime_divisors
from heegnerlab.errors import FieldMismatch

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

    @pytest.mark.parametrize("x, y, d, value", [
        (0, 1, 4, F(2)), (F(1, 2), F(1, 3), 9, F(3, 2)), (1, 1, 1, F(2)),
    ])
    def test_square_d_is_rational(self, x, y, d, value):
        # sqrt(4) = 2: make(0, 1, 4) was QuadElt(0, 2, d=1), unequal to 2
        v = QuadElt.make(x, y, d)
        assert isinstance(v, F) and v == value

    @pytest.mark.parametrize("y", [0, 1])
    def test_zero_d_raises(self, y):
        with pytest.raises(ValueError, match="d must be nonzero"):
            QuadElt.make(1, y, 0)

    def test_field_mismatch(self):
        a = QuadElt.make(0, 1, -7)
        b = QuadElt.make(0, 1, -11)
        with pytest.raises(FieldMismatch):
            a + b

    def test_conjugate(self):
        a = QuadElt.make(F(1, 2), F(3), -7)
        assert a + a.conjugate() == 1
        assert a * a.conjugate() == F(1, 4) - 9 * (-7)

    @pytest.mark.parametrize("n", [-13, -3, -2, -1, 0, 1, 2, 3, 8, 13])
    def test_integer_powers(self, n):
        # a negative exponent inverts: 1 + sqrt(-7) has norm 8
        a = QuadElt.make(1, 1, -7)
        assert a**n * a**-n == 1
        if n == -1:
            assert a**n == QuadElt.make(F(1, 8), F(-1, 8), -7)
        # against an n-fold product; sqrt(-7)^2 = -7 leaves the field type
        for b in (a, QuadElt.make(0, 1, -7), QuadElt.make(F(2, 3), -5, 10)):
            base, oracle = b if n >= 0 else b.inverse(), F(1)
            for _ in range(abs(n)):
                oracle = oracle * base
            assert b**n == oracle

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.integers(-10**5, 10**5).filter(bool),
           st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_make_matches_the_loop_oracle(self, s, d0, x, y):
        # QuadElt.make on s^2 d0 against the trial-division loop it replaced;
        # a square s^2 d0 (d = 1) gives the rational x + t y
        assume(y != 0)
        d, t = sqfree_split_oracle(s * s * d0)
        expected = x + y * t if d == 1 else QuadElt(x, y * t, d)
        assert QuadElt.make(x, y, s * s * d0) == expected


def sqfree_split_oracle(d):
    """(d0, s) with d = s^2 d0, d0 squarefree: the loop that QuadElt.make
    ran before it read the square part off arith.factorize."""
    s = 1
    d0 = d
    f = 2
    while f * f <= abs(d0):
        while d0 % (f * f) == 0:
            d0 //= f * f
            s *= f
        f += 1
    return d0, s


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


# generators for the group-law properties: 37a over Q (rank 1), 389a1
# over Q (rank 2), and 37a over Q(sqrt(97)) at x = 3
E389 = CurveModel(0, 1, 1, -2, 0, 389)
P97 = point(3, QuadElt.make(F(-1, 2), F(1, 2), 97))
P241 = point(4, QuadElt.make(F(-1, 2), F(1, 2), 241))  # 37a, x = 4
GROUPS = [
    (E37, (point(0, 0),)),
    (E389, (point(-1, 1), point(0, 0))),
    (E37, (P97,)),
]
small = st.integers(-4, 4)
nonzero = small.filter(bool)


def combination(E, gens, coeffs):
    acc = INFINITY
    for n, P in zip(coeffs, gens):
        acc = point_add(acc, point_mul(n, P, E), E)
    return acc


@st.composite
def group_points(draw):
    # (E, generators, three integer combinations of them)
    E, gens = draw(st.sampled_from(GROUPS))
    coeffs = st.tuples(*[small] * len(gens))
    return E, gens, [combination(E, gens, draw(coeffs)) for _ in range(3)]


class TestGroupLawProperties:
    @settings(max_examples=60, deadline=None)
    @given(group_points(), small, small)
    def test_group_laws(self, drawn, m, n):
        E, gens, (A, B, C) = drawn
        S = point_add(A, B, E)
        for R in (A, B, C, S):
            assert R.is_infinity or E.on_curve(R.x, R.y)
        assert point_add(A, INFINITY, E) == A == point_add(INFINITY, A, E)
        assert point_add(A, point_neg(A, E), E).is_infinity
        assert S == point_add(B, A, E)
        assert point_add(S, C, E) == point_add(A, point_add(B, C, E), E)
        P = gens[-1]
        assert point_mul(m + n, P, E) == point_add(
            point_mul(m, P, E), point_mul(n, P, E), E)

    @pytest.mark.parametrize("n, adds", [(0, 0), (1, 1), (2, 2), (3, 3),
                                         (8, 4), (-8, 4), (13, 6)])
    def test_point_mul_skips_the_doubling_above_the_top_bit(self, n, adds,
                                                            monkeypatch):
        # one doubling per bit below the top one, one addition per set bit
        calls = []

        def counted(P, Q, E):
            calls.append(1)
            return point_add(P, Q, E)

        monkeypatch.setattr(ellcurve, "point_add", counted)
        point_mul(n, point(0, 0), E37)
        assert len(calls) == adds

    @settings(max_examples=20, deadline=None)
    @given(nonzero, nonzero)
    def test_sum_over_two_fields_raises(self, m, n):
        P, Q = point_mul(m, P97, E37), point_mul(n, P241, E37)
        assert E37.on_curve(Q.x, Q.y)
        with pytest.raises(FieldMismatch):
            point_add(P, Q, E37)
        with pytest.raises(FieldMismatch):
            point_add(Q, P, E37)


def ap_bad_oracle(E, p):
    """a_p at a bad prime of the minimal model: p minus the number of
    nonsingular F_p-points, which is +1 split multiplicative, -1 non-split,
    0 additive."""
    if E.conductor % p:
        raise ValueError(f"p={p} is a good prime")
    a1, a2, a3, a4, a6 = E.a_invariants
    n = 1  # infinity is always smooth
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - E.rhs(x)) % p:
                continue
            # partials: f_x = a1 y - 3x^2 - 2 a2 x - a4 ; f_y = 2y + a1 x + a3
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            if fx or fy:
                n += 1
    return p - n


PRIMES_BELOW_3000 = [p for p in range(2, 3000)
                     if all(p % f for f in range(2, math.isqrt(p) + 1))]
# the O(p) count, bound before any test patches the module attribute
ellcurve_count_points = ellcurve._count_points


# minimal models with every reduction type: split and non-split
# multiplicative, additive at 2, 3 and 7, and prime conductors up to 5077
BAD_REDUCTION_CURVES = {
    "11a1": CurveModel(0, -1, 1, -10, -20, 11),
    "14a1": CurveModel(1, 0, 1, 4, -6, 14),
    "15a1": CurveModel(1, 1, 1, -10, -10, 15),
    "20a1": CurveModel(0, 1, 0, 4, 4, 20),
    "24a1": CurveModel(0, -1, 0, -4, 4, 24),
    "26b1": CurveModel(1, -1, 1, -3, 3, 26),
    "27a1": CurveModel(0, 0, 1, 0, -7, 27),
    "32a1": CurveModel(0, 0, 0, 4, 0, 32),
    "32a": E32,
    "36a1": CurveModel(0, 0, 0, 0, 1, 36),
    "37a": E37,
    "43a1": CurveModel(0, 1, 1, 0, 0, 43),
    "49a": E49,
    "64a1": CurveModel(0, 0, 0, -4, 0, 64),
    "121b1": CurveModel(0, -1, 1, -7, 10, 121),
    # CM by orders of conductor 2 and 3
    "27a4": CurveModel(0, 0, 1, -30, 63, 27),
    "32a3": CurveModel(0, 0, 0, -11, -14, 32),
    "36a2": CurveModel(0, 0, 0, -15, 22, 36),
    "49a2": CurveModel(1, -1, 0, -37, -78, 49),
    "389a1": CurveModel(0, 1, 1, -2, 0, 389),
    "5077a1": CurveModel(0, 0, 1, -7, 6, 5077),
}


# the CM models among them and the discriminant of each one's CM order:
# the maximal orders of Q(sqrt -1), Q(sqrt -3), Q(sqrt -7), Q(sqrt -11),
# and the orders of conductor 2 or 3 in the first three
CM_DISCRIMINANTS = {"32a": -4, "32a1": -4, "49a": -7, "27a1": -3,
                    "36a1": -3, "64a1": -4, "121b1": -11, "27a4": -27,
                    "32a3": -16, "36a2": -12, "49a2": -28}


# a model with CM by each order of test_norm_equation
CM_MODEL = {-4: "32a", -3: "27a1", -7: "49a", -27: "27a4"}


def cm_traces_oracle(d, p):
    """The a_p that Deuring allows at a prime p not dividing 6 d Delta on a
    curve with CM by the order of discriminant d: {0} at an inert p, where
    the reduction is supersingular, and the +-t with t^2 + |d| v^2 = 4p,
    v >= 1, at a split p, where Frobenius lies in the CM order."""
    if pow(d, (p - 1) // 2, p) != 1:
        return {0}
    return {s * t for v in range(1, math.isqrt(4 * p // -d) + 1)
            for t in [math.isqrt(4 * p + d * v * v)]
            if t * t == 4 * p + d * v * v for s in (1, -1)}


class TestCMTraces:
    @pytest.mark.parametrize("label", BAD_REDUCTION_CURVES)
    def test_cm_order_is_read_off_j(self, label):
        E = BAD_REDUCTION_CURVES[label]
        assert E.cm_order_discriminant == CM_DISCRIMINANTS.get(label)

    @pytest.mark.parametrize("d, p, traces", [
        (-4, 29, {-10, -4, 4, 10}),  # 29 = 5^2 + 2^2, two ways to write 4p
        (-3, 7, {-5, -4, -1, 1, 4, 5}),  # six units
        (-7, 11, {-4, 4}), (-27, 31, {-4, 4}),  # 124 = 4^2 + 27 * 2^2
        (-4, 31, {0}), (-7, 5, {0}), (-27, 5, {0}),  # inert
    ])
    def test_norm_equation(self, d, p, traces):
        # the points-only ap lands in the set Deuring allows
        assert cm_traces_oracle(d, p) == traces
        assert ap(BAD_REDUCTION_CURVES[CM_MODEL[d]], p) in traces

    @pytest.mark.parametrize("label", CM_DISCRIMINANTS)
    def test_points_only_ap_obeys_deuring(self, label):
        # ap assumes no CM theory; its a_p at every p < 3000 of good
        # reduction are 0 at inert p and traces of norm-p elements at split p
        E, d = BAD_REDUCTION_CURVES[label], CM_DISCRIMINANTS[label]
        for p in PRIMES_BELOW_3000:
            if 6 * E.discriminant % p:
                assert ap(E, p) in cm_traces_oracle(d, p), p

    @pytest.mark.parametrize("label", CM_DISCRIMINANTS)
    def test_inert_primes_do_no_point_arithmetic(self, label, monkeypatch):
        # Deuring: a_p = 0 at p inert in the CM field, so building the
        # prefix never asks ap there
        E = BAD_REDUCTION_CURVES[label]
        assert primes_sent_to_ap(E, 3000, -1, monkeypatch) == []

    @pytest.mark.parametrize("E, p", [
        (E37, 1009), (E37, 29), (E49, 1009), (E32, 1013),
    ])
    def test_baby_step_giant_step_with_or_without_cm(self, E, p, monkeypatch):
        # ap assumes no CM: it starts from the Hasse interval on every curve
        calls = []
        real = ellcurve._hasse_candidates

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ellcurve, "_hasse_candidates", spy)
        assert ap(E, p) == p + 1 - ellcurve_count_points(E, p)
        assert calls


class TestPointCounting:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
    def test_ap_vs_naive_37a(self, p):
        assert ap(E37, p) == naive_ap(E37, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_ap_vs_naive_32a(self, p):
        assert ap(E32, p) == naive_ap(E32, p)

    def test_a37_at_bad_prime(self):
        # multiplicative reduction at 37; tangent slopes at the node are
        # +-sqrt(15), a non-residue mod 37, so the reduction is nonsplit
        assert ap(E37, 37) == -1

    def test_a2_at_bad_prime_32a(self):
        assert ap(E32, 2) == 0  # additive reduction

    def test_a7_at_bad_prime_49a(self):
        assert ap(E49, 7) == 0  # additive reduction

    @pytest.mark.parametrize("label", BAD_REDUCTION_CURVES)
    def test_ap_at_bad_primes_matches_oracle(self, label):
        E = BAD_REDUCTION_CURVES[label]
        for p in prime_divisors(E.conductor):
            assert ap(E, p) == ap_bad_oracle(E, p), (label, p)

    def test_hasse_violation_raises(self, monkeypatch):
        # p = 37 divides the discriminant, so ap counts; a count of 1 gives
        # a_37 = 37, above 2 sqrt(37); the check is a raise, not an assert,
        # so it holds under python -O too
        monkeypatch.setattr(ellcurve, "_count_points", lambda E, p: 1)
        with pytest.raises(ArithmeticError, match="Hasse bound violated at 37"):
            ap(E37, 37)

    @pytest.mark.parametrize("E, p, counted", [
        (E37, 2, True), (E37, 3, True), (E37, 37, True),  # p | 6 Delta
        (E32, 29, True),  # every x0 leaves both -10 = a_29 and 10
        (E37, 29, False), (E32, 31, False), (E49, 1009, False),
    ])
    def test_only_bad_and_ambiguous_primes_are_counted(self, E, p, counted,
                                                       monkeypatch):
        calls = []

        def spy(E, p):
            calls.append(p)
            return ellcurve_count_points(E, p)

        monkeypatch.setattr(ellcurve, "_count_points", spy)
        assert ap(E, p) == naive_ap(E, p)
        assert calls == ([p] if counted else [])

    @pytest.mark.parametrize("label", ["37a", "389a1", "5077a1",
                                       *CM_DISCRIMINANTS])
    def test_ap_equals_the_count_at_good_primes_below_3000(self, label):
        E = BAD_REDUCTION_CURVES[label]
        for p in PRIMES_BELOW_3000:
            if E.conductor % p:
                assert ap(E, p) == p + 1 - ellcurve_count_points(E, p), p

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=5, max_size=5),
           st.sampled_from(PRIMES_BELOW_3000))
    def test_ap_equals_the_count_on_random_curves(self, ai, p):
        E = CurveModel(*ai, conductor=1)
        assume(E.discriminant != 0)
        assert ap(E, p) == p + 1 - ellcurve_count_points(E, p)


def loop_an_coeffs_oracle(E, M):
    """a_1..a_M as an_coeffs built them before the smallest-prime-factor
    sieve: a_p from the point count over a prime loop, prime powers from
    the Hecke recursion, composites from trial division."""
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
        app = p + 1 - ellcurve_count_points(E, p) if good else ap_bad_oracle(E, p)
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
        assert an_coeffs(E, 1500) == loop_an_coeffs_oracle(E, 1500)

    @settings(max_examples=40, deadline=None)
    @given(
        E=st.sampled_from([E37, E32, E49]),
        M0=st.integers(1, 400),
        M=st.integers(1, 400),
    )
    def test_extending_a_prefix_equals_building_afresh(self, E, M0, M):
        # the store is emptied for each build and restored afterwards
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            an_coeffs(E, M0)
            extended = an_coeffs(E, M)
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            assert extended == an_coeffs(E, M)

    def test_37a_initial_segment(self):
        assert an_coeffs(E37, 12) == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4, -5, -6)

    def test_multiplicativity(self):
        a = (0, *an_coeffs(E37, 2000))  # a[n] = a_n
        for m in range(2, 45):
            for n in range(2, 45):
                if math.gcd(m, n) == 1:
                    assert a[m * n] == a[m] * a[n]

    def test_hecke_recursion_at_prime_powers(self):
        a = (0, *an_coeffs(E37, 1000))  # a[n] = a_n
        for p in (2, 3, 5, 7):
            for k in range(2, 6):
                if p**k > 1000:
                    continue
                assert a[p**k] == a[p] * a[p ** (k - 1)] - p * a[p ** (k - 2)]

    def test_hasse_bound(self):
        a = (0, *an_coeffs(E37, 500))  # a[n] = a_n
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47):
            assert abs(a[p]) <= 2 * math.isqrt(p) + 1


def ap_an_coeffs_oracle(E, M):
    """a_1..a_M by the Hecke recursion from ap(E, p) at every prime p <= M,
    the per-prime point method that an_coeffs replaces at CM split primes."""
    a = [0, 1] + [0] * (M - 1)
    for n in range(2, M + 1):
        p = next(q for q in PRIMES_BELOW_3000 if n % q == 0)
        pk = p
        while n % (pk * p) == 0:
            pk *= p
        if pk < n:
            a[n] = a[pk] * a[n // pk]
        elif n == p:
            a[n] = ap(E, p)
        elif E.conductor % p:
            a[n] = a[p] * a[n // p] - p * a[n // p // p]
        else:
            a[n] = a[p] * a[n // p]
    return tuple(a[1:])


def primes_sent_to_ap(E, M, residue, monkeypatch):
    # the primes p not dividing 6 Delta with (d/p) = residue at which
    # building a_1..a_M from an empty store asks ap for a_p
    d, calls = E.cm_order_discriminant, []
    real = ellcurve.ap

    def spy(E, p, invariants=None):
        calls.append(p)
        return real(E, p, invariants)

    monkeypatch.setattr(ellcurve, "ap", spy)
    with mock.patch.dict(ellcurve._PREFIXES, clear=True):
        an_coeffs(E, M)
    return [p for p in calls if 6 * E.discriminant % p
            and pow(d, (p - 1) // 2, p) == residue % p]


class TestCharacterCoefficients:
    @pytest.mark.parametrize("label", CM_DISCRIMINANTS)
    def test_character_equals_ap_at_every_prime_below_3000(self, label):
        # ap itself equals the O(p) count below 3000 (TestPointCounting)
        E = BAD_REDUCTION_CURVES[label]
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            assert an_coeffs(E, 3000) == ap_an_coeffs_oracle(E, 3000)

    @pytest.mark.parametrize("label", ["32a", "49a", "64a1", "121b1"])
    def test_extension_learns_its_own_table(self, label):
        E = BAD_REDUCTION_CURVES[label]
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            an_coeffs(E, 700)
            extended = an_coeffs(E, 3000)
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            assert extended == an_coeffs(E, 3000)

    @pytest.mark.parametrize("E, M, most, split", [
        (E32, 756, 2, 62),  # one class of (O_K/f)^*/mu_K, f^3 = (2)
        (E49, 700, 6, 59),  # three classes, f = (sqrt -7)
    ], ids=["32a", "49a"])
    def test_two_points_per_class(self, E, M, most, split, monkeypatch):
        # ap is asked only at each class's first two split primes (the
        # per-prime point method asked at all of them)
        sent = primes_sent_to_ap(E, M, 1, monkeypatch)
        assert len(sent) <= most
        d = E.cm_order_discriminant
        assert split == len([p for p in PRIMES_BELOW_3000 if p <= M
                             and 6 * E.discriminant % p
                             and pow(d, (p - 1) // 2, p) == 1])

    def test_wrong_conductor_exponent_raises(self):
        # 32a with N = 16: f would be (2), and -1 = 1 mod 2, so eps(-1) =
        # -1 cannot hold (the second-prime check fails too, at a_13)
        E = CurveModel(0, 0, 0, -1, 0, 16)
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            with pytest.raises(ArithmeticError,
                               match="mu_K does not inject .* is 16 the"):
                an_coeffs(E, 1500)

    @pytest.mark.parametrize("N", [9, 12])
    def test_units_equal_mod_f_raise(self, N):
        # 36a1 with N = 9 or 12: f would be (sqrt -3) or (2), and a unit
        # u != 1 is 1 mod f (a cube root of unity mod sqrt -3, -1 mod 2), so
        # eps(u) = 1/u cannot hold; the second-prime check let these pass
        # with wrong a_n
        E = CurveModel(0, 0, 0, 0, 1, N)
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            with pytest.raises(ArithmeticError,
                               match=f"mu_K does not inject .* is {N} the"):
                an_coeffs(E, 1500)

    def test_second_prime_of_a_class_is_checked(self, monkeypatch):
        # 49a asks ap at 11, 23, 29, 37, 43 and 53 below 700, two split
        # primes in each of three classes, so 53 is its class's second
        real = ellcurve.ap

        def flipped(E, p, invariants=None):
            a = real(E, p, invariants)
            return -a if p == 53 else a

        monkeypatch.setattr(ellcurve, "ap", flipped)
        with mock.patch.dict(ellcurve._PREFIXES, clear=True):
            with pytest.raises(ArithmeticError,
                               match="a_53 = 10 does not fit a Hecke character"):
                an_coeffs(E49, 700)


# (Cremona label, a-invariants, conductor, torsion structure): cyclic of
# order 5..12 and Z/2 x Z/2m with m > 1
TORSION_CURVES = [
    ("11a1", (0, -1, 1, -10, -20), 11, (5,)),
    ("14a1", (1, 0, 1, 4, -6), 14, (6,)),
    ("26b1", (1, -1, 1, -3, 3), 26, (7,)),
    ("15a4", (1, 1, 1, 35, -28), 15, (8,)),
    ("90c3", (1, -1, 1, -122, 1721), 90, (12,)),
    ("15a1", (1, 1, 1, -10, -10), 15, (2, 4)),
    ("210e2", (1, 0, 0, -1070, 7812), 210, (2, 8)),
]


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

    @pytest.mark.parametrize("label, ainvs, N, structure", TORSION_CURVES,
                             ids=[c[0] for c in TORSION_CURVES])
    def test_cyclic_and_two_by_even_structures(self, label, ainvs, N,
                                               structure):
        E = CurveModel(*ainvs, N)
        points, got = torsion_subgroup(E)
        assert got == structure
        assert len(points) == math.prod(structure)
        # the exponent is the largest order, found by multiplying out
        orders = [next(n for n in range(1, 13) if point_mul(n, P, E).is_infinity)
                  for P in points]
        assert max(orders) == structure[-1]
        # independent oracle: the torsion injects into E(F_p) at good p > 2,
        # and here the gcd of the point counts over 5..43 is its order
        counts = [p + 1 - naive_ap(E, p) for p in range(5, 44)
                  if all(p % d for d in range(2, p)) and E.discriminant % p]
        assert math.gcd(*counts) == len(points)

    @pytest.mark.parametrize("k", [2, 30])
    def test_cube_twist_has_one_two_torsion_point(self, k):
        # y^2 = x^3 - 2^(3k): (2^k, 0) and nothing else; at k = 30 the
        # numerical root finder this replaced did not converge
        E = CurveModel(0, 0, 0, 0, -(2 ** (3 * k)), conductor=1)
        points, structure = torsion_subgroup(E)
        assert structure == (2,)
        assert [(P.x, P.y) for P in points if not P.is_infinity] == [
            (F(2**k), F(0))]


def polyroots_integer_cubic_roots(A, C):
    # the numerical root finder that _integer_cubic_roots replaced, verbatim:
    # rounded mpmath polyroots, kept as the oracle on small coefficients
    from mpmath import mp, polyroots

    roots = []
    with mp.workprec(80):
        rts = polyroots([1, 0, A, C], maxsteps=200, extraprec=60)
    for r in rts:
        if abs(mp.im(r)) < 1e-6:
            n = int(mp.nint(mp.re(r)))
            for X in (n - 1, n, n + 1):
                if X**3 + A * X + C == 0:
                    roots.append(X)
    return sorted(set(roots))


@settings(max_examples=150, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**9, 10**9))
def test_integer_cubic_roots_match_polyroots(A, C):
    assume(4 * A**3 + 27 * C**2 != 0)  # polyroots fails on a repeated root
    assert ellcurve._integer_cubic_roots(A, C) == polyroots_integer_cubic_roots(A, C)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-300, 300), min_size=2, max_size=2))
def test_integer_cubic_roots_of_split_cubics(r):
    # three integer roots summing to 0: X^3 + A X + C with A = e2, C = -e3;
    # repeated roots, on which polyroots does not converge, included
    r = [*r, -sum(r)]
    A, C = r[0] * r[1] + r[0] * r[2] + r[1] * r[2], -r[0] * r[1] * r[2]
    assert ellcurve._integer_cubic_roots(A, C) == sorted(set(r))
    if len(set(r)) == 3:
        assert polyroots_integer_cubic_roots(A, C) == sorted(r)


def exact_imports(root):
    """(modules reached, offending imports) from root through the package
    modules it imports: no mpmath, no float module, and from math only
    the integer functions."""
    exact = {"__future__", "fractions", "math"}
    integer_math = {"comb", "gcd", "isqrt", "lcm", "prod"}
    seen, todo, offenders = set(), [root], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                offenders += [a.name for a in node.names if a.name not in exact]
            elif isinstance(node, ast.ImportFrom) and node.level:
                todo += [f"heegnerlab.{node.module or a.name}" for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module not in exact:
                offenders.append(node.module)
            elif (isinstance(node, ast.Attribute) and node.attr not in integer_math
                  and isinstance(node.value, ast.Name) and node.value.id == "math"):
                offenders.append(f"math.{node.attr}")
    return seen, offenders


def test_ellcurve_imports_only_exact_modules():
    # ellcurve and the package modules it imports stay pure-integer
    seen, offenders = exact_imports("heegnerlab.ellcurve")
    assert seen == {"heegnerlab.ellcurve", "heegnerlab.arith", "heegnerlab.errors"}
    assert offenders == []


def test_qform_imports_only_exact_modules():
    # qform shares arith's double-and-add with ellcurve and is held to the
    # same pure-integer imports
    seen, offenders = exact_imports("heegnerlab.qform")
    assert seen == {"heegnerlab.qform", "heegnerlab.arith", "heegnerlab.errors"}
    assert offenders == []
