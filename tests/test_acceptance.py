"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (with its
runtime) directly to the terminal and enforces its time budget.
"""

import functools
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp
from sympy import isprime

from heegnerlab import analysis, arith, qform
from heegnerlab.analysis import (
    independence_report,
    orbit_degree,
    relation_search,
    verify_relation,
)
from heegnerlab.db import find_curve
from heegnerlab.ellcurve import (CurvePoint, an_coeffs, ap, point, point_mul,
                                 point_neg)
from heegnerlab.heegner import heegner_condition, heegner_fiber, star_act
from heegnerlab.lattice import elliptic_log, periods, weierstrass_map
from heegnerlab.modparam import orbit_points, recognize, trace_point
from test_analysis import _orbits

PREC = 200

E37 = find_curve("37a").curve()
E32 = find_curve("32a").curve()


class _Budget:
    def __init__(self, capfd, number, seconds):
        self.capfd = capfd
        self.number = number
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.seconds
        with self.capfd.disabled():
            print(
                f"CRITERION {self.number}: {'PASS' if ok else 'FAIL'}"
                f" ({elapsed:.1f}s / budget {self.seconds}s)",
                flush=True,
            )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
            )
        return False


def brute_class_number(D):
    """Direct reduced-form enumeration, independent of the library."""
    h = 0
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            h += 1
    return h


def naive_ap(E, p):
    """Trace of Frobenius by exhaustive point counting mod p."""
    affine = 0
    for x in range(p):
        rhs = (x * x * x + E.a2 * x * x + E.a4 * x + E.a6) % p
        for y in range(p):
            if (y * y + E.a1 * x * y + E.a3 * y - rhs) % p == 0:
                affine += 1
    return p + 1 - (affine + 1)


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


def rational_points_of_height(E, H):
    """All affine rational points with x = a/b, |a| <= H, 1 <= b <= H."""
    pts = []
    seen = set()
    for bden in range(1, H + 1):
        for anum in range(-H, H + 1):
            if math.gcd(anum, bden) != 1:
                continue
            x = Fraction(anum, bden)
            if x in seen:
                continue
            seen.add(x)
            # y^2 + (a1 x + a3) y - rhs = 0
            lin = E.a1 * x + Fraction(E.a3)
            disc = lin * lin + 4 * E.rhs(x)
            if disc < 0:
                continue
            rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
            if rn * rn != disc.numerator or rd * rd != disc.denominator:
                continue
            s = Fraction(rn, rd)
            for y in {(-lin + s) / 2, (-lin - s) / 2}:
                pts.append(point(x, y))
    return pts


def test_criterion_01_class_numbers(capfd):
    with _Budget(capfd, 1, 30):
        for D in range(-3, -10**4, -1):
            if not arith.is_fundamental_discriminant(D):
                continue
            assert len(qform.enumerate_reduced(D)) == brute_class_number(D)
        for D, h in ((-23, 3), (-47, 5), (-71, 7)):
            assert len(qform.enumerate_reduced(D)) == h


def test_criterion_02_group_axioms(capfd):
    with _Budget(capfd, 2, 60):
        for D in range(-3, -501, -1):
            if D % 4 not in (0, 1):
                continue
            forms = qform.enumerate_reduced(D)
            fset = set(forms)
            e = qform.principal_form(D)
            assert e in fset
            for f in forms:
                assert qform.compose(e, f) == f
                inv = qform.reduce(f.inverse())
                assert inv in fset
                assert qform.compose(f, inv) == e
                for g in forms:
                    fg = qform.compose(f, g)
                    assert fg in fset  # closure
                    assert fg == qform.compose(g, f)  # commutativity
            if len(forms) <= 12:
                for f in forms:
                    for g in forms:
                        fg = qform.compose(f, g)
                        for k in forms:
                            assert qform.compose(fg, k) == qform.compose(
                                f, qform.compose(g, k)
                            )


def test_criterion_03_ring_class_numbers(capfd):
    with _Budget(capfd, 3, 20):
        for D in range(-3, -301, -1):
            if not arith.is_fundamental_discriminant(D):
                continue
            for c in range(1, 13):
                assert qform.ring_class_number(D, c) == len(
                    qform.enumerate_reduced(c * c * D)
                )


def test_criterion_04_heegner_fibers(capfd):
    with _Budget(capfd, 4, 60):
        fiber = heegner_fiber(-7, 37)
        assert (37, 17, 2) in {(f.a, f.b, f.c) for f in fiber}
        for N in (1, 37):
            for D in range(-3, -201, -1):
                if D % 4 not in (0, 1) or not heegner_condition(D, N):
                    continue
                forms = qform.enumerate_reduced(D)
                fiber = heegner_fiber(D, N)
                assert len(fiber) == len(forms)
                keys = {(f.a, f.b, f.c) for f in fiber}
                assert len(keys) == len(fiber)
                for rep in fiber:
                    # the class-group action is free and transitive
                    images = {
                        (s.a, s.b, s.c)
                        for s in (star_act(b, rep, N) for b in forms)
                    }
                    assert images == keys


def test_criterion_05_q_expansion(capfd):
    with _Budget(capfd, 5, 60):
        for E in (E37, E32):
            for p in range(2, 100):
                if not isprime(p) or E.conductor % p == 0:
                    continue
                assert ap(E, p) == naive_ap(E, p)
            for p in range(2, 1000):
                if not isprime(p) or E.conductor % p == 0:
                    continue
                assert ap(E, p) ** 2 <= 4 * p  # Hasse bound
            a = (0, *an_coeffs(E, 10**4))  # a[n] = a_n
            for m in range(2, 101):
                for n in range(2, 10**4 // m + 1):
                    if math.gcd(m, n) == 1:
                        assert a[m * n] == a[m] * a[n]


def test_criterion_06_uniformization_round_trip(capfd):
    with _Budget(capfd, 6, 60):
        rng = random.Random(20260826)
        L = periods(E37, PREC)
        tol = mp.mpf(2) ** -(PREC - 12)
        with mp.workprec(PREC + 20):
            for _ in range(100):
                z = rng.uniform(0.03, 0.97) * L.omega1 + rng.uniform(
                    0.03, 0.97
                ) * L.omega2
                x, y = weierstrass_map(z, E37, L)
                back = elliptic_log(CurvePoint(x, y), E37, L)
                assert L.distance(back - z) < tol
        L32 = periods(E32, PREC)
        oracle = quadrature_real_period(E32, PREC + 40)
        with mp.workprec(PREC + 20):
            assert abs(L32.omega1 - oracle) < mp.mpf(2) ** -(PREC - 8)


def test_criterion_07_conjugate_counts_and_trace(capfd):
    with _Budget(capfd, 7, 120):
        assert orbit_degree(orbit_points(E37, -7, PREC), 1) == 1
        assert orbit_degree(orbit_points(E37, -83, PREC), 1) == 3
        tr = trace_point(orbit_points(E37, -7, PREC))
        assert not tr.is_identity and tr.is_real
        rec = recognize([tr.xy], 10**4, E37, precision_bits=PREC)
        assert rec.kind == "rational"
        P = point(rec.value[0], rec.value[1])
        G = point(0, 0)
        multiples = []
        for k in range(1, 11):
            kG = point_mul(k, G, E37)
            multiples += [kG, point_neg(kG, E37)]
        assert P in multiples
        # independent check: the recognized point shows up in a brute-force
        # sweep of small rational points
        small = rational_points_of_height(E37, 10)
        assert P in small
        assert G in small


def test_criterion_08_orbit_degree_tower(capfd):
    with _Budget(capfd, 8, 120):
        orbit = orbit_points(E37, -83, PREC)
        d1 = orbit_degree(orbit, 1)
        for n in (2, 3):
            dn = orbit_degree(orbit, n)
            assert d1 % dn == 0
            assert d1 // dn <= n * n


@pytest.fixture(scope="module")
def reports():
    """The 37a and 32a reports of criteria 9 and 10.  They are built on the
    first call, so whichever criterion runs first pays for them inside its
    own budget, and either criterion can run alone."""

    @functools.cache
    def build():
        return (
            independence_report(E37, [-7, -11], 20, PREC),
            independence_report(E32, [-7, -15], 8, PREC),
        )

    return build


def test_criterion_09_relation_machinery(capfd, reports):
    with _Budget(capfd, 9, 120):
        L = periods(E37, PREC)
        P = point(0, 0)
        with mp.workprec(PREC + 20):
            zP = L.reduce(elliptic_log(P, E37, L))
            sets = [(zP,), (L.reduce(2 * zP),)]
        rel = relation_search(_orbits(sets, L), 10)
        assert rel is not None
        assert rel.coefficients == (2, -1) and rel.torsion_slack == 1
        assert verify_relation([P, point_mul(2, P, E37)], rel, E37)
        with mp.workprec(PREC + 20):
            synth = [
                (L.reduce(L.omega1 / mp.pi),),
                (L.reduce(L.omega2 * mp.sqrt(2) / mp.e),),
            ]
        assert relation_search(_orbits(synth, L), 10) is None
        verdicts = {
            "relation_found_verified",
            "relation_found_numerical",
            "no_relation_up_to_bound",
        }
        rep37, rep32 = reports()
        for rep in (rep37, rep32):
            assert rep.verdict in verdicts
            if rep.relation is not None:
                assert rep.verdict in (
                    "relation_found_verified",
                    "relation_found_numerical",
                )
        assert rep37.verdict == "relation_found_verified"


def test_criterion_10_odd_part_instrumentation(capfd, reports):
    with _Budget(capfd, 10, 60):
        rep37, rep32 = reports()
        for rep, E in ((rep37, E37), (rep32, E32)):
            for e in rep.entries:
                if not e.admissible or e.error:
                    continue
                h = e.class_number
                assert e.odd_part == arith.odd_part(h)
                assert e.prime_to_bound_part == arith.prime_to_B_part(
                    h, rep.search_bound
                )
                assert E.modular_degree is not None
                fact = math.factorial(E.modular_degree)
                assert (e.orbit_degrees[0] * fact) % h == 0
                assert e.divisibility_ok is True
