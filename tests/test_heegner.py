import math

import pytest
from mpmath import mp

from heegnerlab import arith, heegner, modparam, qform
from heegnerlab.errors import FiberIncomplete, HeegnerConditionFailed
from heegnerlab.heegner import heegner_condition, heegner_fiber, star_act
from heegnerlab.heegner import tau as heegner_tau
from test_qform import reduce_oracle


def brute_fiber_forms(D, N, bound=500):
    """All reduced-class representatives (a, b, c) with N | a, b^2 - 4ac = D,
    found by direct scan; one per class, minimal a then minimal b."""
    classes = {}
    for a in range(N, bound * N + 1, N):
        for b in range(-2 * N, 2 * a + 2 * N):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            key = qform.reduce(qform.BinaryQuadraticForm(a, b, c))
            import math

            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            if key not in classes:
                classes[key] = (a, b, c)
    return classes


def fiber_oracle(D, N):
    """heegner_fiber's record-based scan before the integer kernel, verbatim
    (reducing by reduce_oracle, without the memo)."""
    if not heegner_condition(D, N):
        raise HeegnerConditionFailed(f"(D={D}, N={N}) fails the Heegner condition")
    beta = arith.sqrt_mod_4N(D, N)
    classes = qform.enumerate_reduced(D)
    h = len(classes)
    found: dict[qform.BinaryQuadraticForm, qform.BinaryQuadraticForm] = {}
    t = 0
    while len(found) < h:
        t += 1
        if t > 10000 * h:
            raise FiberIncomplete(
                f"fiber search for (D={D}, N={N}) did not complete")
        a = N * t
        for b in range(beta, 2 * a + 1, 2 * N):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if math.gcd(a, b, c) != 1:
                continue
            form = qform.BinaryQuadraticForm(a, b, c)
            found.setdefault(reduce_oracle(form), form)
    return tuple(found[f] for f in classes)


def partners_oracle(fiber, N):
    """modparam._partners on records before the integer kernel, verbatim."""
    if len(fiber) == 1:
        return [0]
    index = {reduce_oracle(f): i for i, f in enumerate(fiber)}
    form = qform.BinaryQuadraticForm
    return [index[reduce_oracle(form(N * f.c, f.b, f.a // N))] for f in fiber]


class TestCondition:
    def test_examples(self):
        assert heegner_condition(-7, 37)
        assert heegner_condition(-83, 37)
        assert not heegner_condition(-20, 37)  # 37 inert in Q(sqrt(-5))
        assert heegner_condition(-7, 32)
        assert heegner_condition(-15, 32)
        assert not heegner_condition(-4, 32)  # gcd(D, N) > 1
        assert heegner_condition(-31, 49)
        assert not heegner_condition(-7, 49)  # 7 | gcd(D, N)

    def test_split_test_also_refuses_common_primes(self):
        # the condition as two tests, the gcd one included: (D/p) = 0 when
        # p | D, so the split test alone gives the same answer
        for N in range(1, 100):
            primes = [p for p in range(2, N + 1)
                      if N % p == 0 and all(p % d for d in range(2, p))]
            for D in range(-3, -400, -1):
                if D % 4 in (0, 1):
                    want = math.gcd(D, N) == 1 and all(
                        arith.kronecker(D, p) == 1 for p in primes)
                    assert heegner_condition(D, N) == want, (D, N)

    def test_level_one_always_admissible(self):
        for D in range(-100, 0):
            if D % 4 in (0, 1):
                assert heegner_condition(D, 1)


class TestFiber:
    def test_known_form(self):
        fiber = heegner_fiber(-7, 37)
        assert len(fiber) == 1
        assert (fiber[0].a, fiber[0].b, fiber[0].c) == (37, 17, 2)

    def test_fiber_size_is_class_number(self):
        for D in (-7, -11, -47, -83, -95):
            if not heegner_condition(D, 37):
                continue
            assert len(heegner_fiber(D, 37)) == len(
                qform.enumerate_reduced(D)
            )

    def test_one_representative_per_class(self):
        fiber = heegner_fiber(-83, 37)
        classes = {qform.reduce(f) for f in fiber}
        assert len(classes) == len(fiber)
        assert classes == set(qform.enumerate_reduced(-83))

    def test_forms_land_in_fiber(self):
        for D, N in [(-7, 37), (-83, 37), (-15, 32), (-31, 49)]:
            for f in heegner_fiber(D, N):
                assert f.a % N == 0
                assert f.b * f.b - 4 * f.a * f.c == D

    def test_matches_brute_force_class_cover(self):
        for D, N in [(-7, 37), (-83, 37), (-15, 32)]:
            brute = brute_fiber_forms(D, N)
            fiber = heegner_fiber(D, N)
            assert {qform.reduce(f) for f in fiber} == set(brute)

    def test_tau_upper_half_plane(self):
        with mp.workprec(110):
            for f in heegner_fiber(-83, 37):
                tau = heegner_tau(f, 100)
                assert mp.im(tau) > 0
                # tau is a root of a tau^2 + b tau + c
                val = f.a * tau**2 + f.b * tau + f.c
                assert abs(val) < mp.mpf(2) ** -80


class TestIntegerScan:
    # the scan reduces bare triples and builds a form only per class
    @pytest.mark.parametrize("N", [11, 32, 37, 49])
    def test_fibers_and_partners_match_the_record_scan(self, N):
        for D in range(-3, -500, -1):
            if D % 4 in (0, 1) and heegner_condition(D, N):
                fiber = heegner_fiber(D, N)
                assert fiber == fiber_oracle(D, N), D
                assert modparam._partners(fiber, N) == partners_oracle(fiber, N), D

    def test_two_records_per_class(self, monkeypatch):
        # h = 51: enumerate_reduced's 51 classes and the 51 representatives;
        # the record scan built 317, one or two per primitive candidate
        built = []
        real = qform.BinaryQuadraticForm.__init__

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(qform.BinaryQuadraticForm, "__init__", counting)
        fiber = heegner_fiber(-1559, 49)
        assert len(fiber) == 51 and len(built) == 102
        modparam._partners(fiber, 49)
        assert len(built) == 102


class TestStarAction:
    def test_free_and_transitive(self):
        for D, N in [(-83, 37), (-95, 37), (-23, 1)]:
            if not heegner_condition(D, N):
                continue
            forms = qform.enumerate_reduced(D)
            fiber = heegner_fiber(D, N)
            base = fiber[0]
            images = {qform.reduce(star_act(b, base, N)) for b in forms}
            assert len(images) == len(forms)  # free
            assert images == {qform.reduce(f) for f in fiber}  # transitive

    def test_identity_acts_trivially(self):
        base = heegner_fiber(-83, 37)[0]
        e = qform.principal_form(-83)
        assert qform.reduce(star_act(e, base, 37)) == qform.reduce(base)

    def test_action_is_compatible_with_composition(self):
        forms = qform.enumerate_reduced(-83)
        base = heegner_fiber(-83, 37)[0]
        for b1 in forms:
            for b2 in forms:
                lhs = qform.reduce(star_act(b1, star_act(b2, base, 37), 37))
                rhs = qform.reduce(star_act(qform.compose(b1, b2), base, 37))
                assert lhs == rhs

    def test_missing_class_raises_a_typed_error(self, monkeypatch):
        # a fiber that lacks the target class is a domain error, which a
        # report records and the CLI turns into exit code 1
        fiber = heegner_fiber(-83, 37)
        monkeypatch.setattr(heegner, "heegner_fiber",
                            lambda D, N: fiber[:1])
        b = next(f for f in qform.enumerate_reduced(-83)
                 if qform.compose(qform.reduce(fiber[0]), f)
                 != qform.reduce(fiber[0]))
        with pytest.raises(FiberIncomplete, match="fiber element missing"):
            star_act(b, fiber[0], 37)
