import pytest

from heegnerlab import arith
from heegnerlab.errors import NoSquareRoot


def brute_sqrt_mod_4N(D, N):
    for b in range(0, 2 * N + 1):
        if (b * b - D) % (4 * N) == 0:
            return b
    return None


class TestKronecker:
    def test_euler_criterion_at_odd_primes(self):
        for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 97, 101]:
            for a in range(-30, 31):
                want = pow(a % p, (p - 1) // 2, p)
                want = -1 if want == p - 1 else want
                assert arith.kronecker(a, p) == want, (a, p)

    def test_at_two(self):
        # (a|2) is 0 for even a, 1 for a = +-1 mod 8, -1 for a = +-3 mod 8
        table = {1: 1, 3: -1, 5: -1, 7: 1}
        for a in range(-40, 41):
            want = 0 if a % 2 == 0 else table[a % 8]
            assert arith.kronecker(a, 2) == want, a

    def test_multiplicative_in_bottom(self):
        for a in [-23, -7, 5, 12, -84]:
            for m in range(1, 40):
                for n in range(1, 40):
                    assert arith.kronecker(a, m * n) == arith.kronecker(
                        a, m
                    ) * arith.kronecker(a, n)

    def test_unit_bottom(self):
        assert arith.kronecker(7, 1) == 1
        assert arith.kronecker(-7, 1) == 1

    def test_split_primes_example(self):
        # 37 splits in the field of discriminant -7: -7 is a square mod 37
        assert arith.kronecker(-7, 37) == 1
        assert arith.kronecker(-20, 37) == -1


class TestSqrtMod4N:
    @pytest.mark.parametrize("D,N", [(-7, 37), (-83, 37), (-7, 1), (-4, 1),
                                     (-15, 32), (-7, 32), (-31, 49)])
    def test_matches_brute_force_solutions(self, D, N):
        b = arith.sqrt_mod_4N(D, N)
        assert (b * b - D) % (4 * N) == 0
        assert 0 < b <= 2 * N
        assert b % 2 == D % 2

    def test_every_small_case_agrees_with_search(self):
        for N in range(1, 30):
            for D in range(-50, 0):
                if D % 4 not in (0, 1):
                    continue
                want = brute_sqrt_mod_4N(D, N)
                if want is None:
                    with pytest.raises(NoSquareRoot):
                        arith.sqrt_mod_4N(D, N)
                else:
                    b = arith.sqrt_mod_4N(D, N)
                    assert (b * b - D) % (4 * N) == 0

    def test_no_root(self):
        with pytest.raises(NoSquareRoot):
            arith.sqrt_mod_4N(-1, 3)


class TestParts:
    def test_odd_part(self):
        m = arith.odd_part(48)
        assert (m, 48 // m) == (3, 2**4)
        assert arith.odd_part(1) == 1
        assert arith.odd_part(7) == 7

    def test_odd_part_reconstructs(self):
        for n in range(1, 500):
            m = arith.odd_part(n)
            assert n % m == 0 and (n // m) & (n // m - 1) == 0  # n = m 2^k
            assert m % 2 == 1

    @pytest.mark.parametrize("n", [0, -4])
    def test_odd_part_of_a_non_positive_n(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            arith.odd_part(n)

    def test_prime_to_B_part(self):
        assert arith.prime_to_B_part(360, 6) == 5
        assert arith.prime_to_B_part(7, 14) == 1
        assert arith.prime_to_B_part(35, 6) == 35

    def test_prime_to_B_is_coprime_divisor(self):
        import math

        for n in range(1, 200):
            for B in range(1, 30):
                m = arith.prime_to_B_part(n, B)
                assert n % m == 0
                assert math.gcd(m, B) == 1
                # maximality: no larger divisor of n is coprime to B
                for d in range(m + 1, n + 1):
                    if n % d == 0 and math.gcd(d, B) == 1:
                        pytest.fail(f"{d} > {m} divides {n}, coprime to {B}")


class TestFundamental:
    def test_examples(self):
        assert arith.is_fundamental_discriminant(-7)
        assert arith.is_fundamental_discriminant(-4)
        assert arith.is_fundamental_discriminant(-8)
        assert arith.is_fundamental_discriminant(-3)
        assert not arith.is_fundamental_discriminant(-12)
        assert not arith.is_fundamental_discriminant(-28)
        assert not arith.is_fundamental_discriminant(-9)
        assert not arith.is_fundamental_discriminant(-5)

    def test_definition(self):
        # D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree
        for D in range(-100, 0):
            want = (D % 4 == 1 and arith.is_squarefree(D)) or (
                D % 4 == 0
                and (D // 4) % 4 in (2, 3)
                and arith.is_squarefree(D // 4)
            )
            assert arith.is_fundamental_discriminant(D) == want, D
