import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegnerlab import arith, qform
from heegnerlab.errors import (DiscriminantMismatch, InvalidForm,
                               NonFundamentalDiscriminant)
from heegnerlab.qform import BinaryQuadraticForm, _gcdext


def brute_reduced_forms(D):
    """Direct scan for primitive reduced forms (|b| <= a <= c, b >= 0 when
    |b| = a or a = c), independent of the enumeration under test."""
    import math

    out = set()
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            out.add((a, b, c))
        a += 1
    return out


def _solve_congruence(r1: int, m1: int, r2: int, m2: int) -> int:
    # x = r1 mod m1, x = r2 mod m2; the system must be consistent
    g = math.gcd(m1, m2)
    if (r1 - r2) % g != 0:
        raise ArithmeticError("inconsistent congruences")
    l = m1 // g * m2
    _, s, _ = _gcdext(m1 // g, m2 // g)
    return (r1 + m1 * ((r2 - r1) // g) * s) % l


def _equivalent_with_leading_coprime_to(
    g: BinaryQuadraticForm, m: int
) -> BinaryQuadraticForm:
    # properly equivalent form whose leading coefficient is coprime to m
    if math.gcd(g.a, m) == 1:
        return g
    bound = 1
    while bound < 64:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if math.gcd(x, y) != 1:
                    continue
                val = g.a * x * x + g.b * x * y + g.c * y * y
                if val > 0 and math.gcd(val, m) == 1:
                    _, v, u = _gcdext(x, y)
                    u = -u
                    # matrix [[x, u], [y, v]] has determinant 1
                    a2 = val
                    b2 = 2 * (g.a * x * u + g.c * y * v) + g.b * (x * v + y * u)
                    c2 = g.a * u * u + g.b * u * v + g.c * v * v
                    return BinaryQuadraticForm(a2, b2, c2)
        bound *= 2
    raise InvalidForm(f"no representative of {g} coprime to {m}")


def dirichlet_compose_oracle(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Reduced Gauss composition of the classes of f and g, as compose
    built it before Cohen's Alg. 5.4.7.

    Dirichlet composition: move g to a representative with leading
    coefficient coprime to f.a, solve B = b1 mod 2a1, B = b2 mod 2a2,
    and read off (a1*a2, B, (B^2-D)/(4*a1*a2)).
    """
    f.validate()
    g.validate()
    D = f.discriminant
    if g.discriminant != D:
        raise DiscriminantMismatch(f"{f} and {g} have different discriminants")
    g = _equivalent_with_leading_coprime_to(g, f.a)
    B = _solve_congruence(f.b, 2 * f.a, g.b, 2 * g.a)
    A = f.a * g.a
    C = (B * B - D) // (4 * A)
    return qform.reduce(BinaryQuadraticForm(A, B, C))


def _p_part(n: int, p: int) -> int:
    r = 1
    while n % p == 0:
        n //= p
        r *= p
    return r


def _exact_log(n: int, p: int) -> int:
    v = 0
    while n > 1:
        if n % p:
            raise ArithmeticError(f"{n} is not a power of {p}")
        n //= p
        v += 1
    return v


def partition_group_structure_oracle(forms) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (product = h) of the class group
    forms, computed from element orders as group_structure did before it
    read them off the p-ranks."""
    h = len(forms)
    if h == 1:
        divisors: tuple[int, ...] = ()
    else:
        orders = [qform._class_order(f, h) for f in forms]
        partitions: dict[int, list[int]] = {}
        for p, e in arith.factorize(h).items():
            cofactor = h // p**e
            partition: list[int] = []
            prev = 0
            for k in range(1, e + 1):
                nk = sum(1 for o in orders if p**k % _p_part(o, p) == 0)
                sk = _exact_log(nk // cofactor, p)
                parts_ge_k = sk - prev
                if parts_ge_k == 0:
                    break
                if k == 1:
                    partition = [1] * parts_ge_k
                else:
                    for i in range(parts_ge_k):
                        partition[i] += 1
                prev = sk
            partitions[p] = partition
        width = max(len(v) for v in partitions.values())
        out = []
        for i in range(width):
            d = 1
            for p, part in partitions.items():
                if i < len(part):
                    d *= p ** part[i]
            out.append(d)
        out.sort()
        assert math.prod(out) == h
        divisors = tuple(out)
    return divisors


def reduce_oracle(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """The record-based reduction loop that qform.reduced replaced, verbatim."""
    f.validate()
    a, b, c = f.a, f.b, f.c
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c = c + ((r * r - b * b) // (4 * a))
            b = r
            continue
        break
    return BinaryQuadraticForm(a, b, c)


@st.composite
def primitive_forms(draw):
    """(a, b, c) primitive, positive definite: any shape, or a tie a = c or
    |b| = a, which the reduced form breaks toward b >= 0."""
    a = draw(st.integers(1, 10**4))
    shape = draw(st.sampled_from(["any", "a = c", "|b| = a"]))
    if shape == "a = c":
        b, c = draw(st.integers(1 - 2 * a, 2 * a - 1)), a
    elif shape == "|b| = a":
        b = draw(st.sampled_from([a, -a]))
        c = draw(st.integers(a // 4 + 1, a + 10**4))
    else:  # c < a, b < 0 and |b| > a all occur
        b = draw(st.integers(-10**5, 10**5))
        c = b * b // (4 * a) + 1 + draw(st.integers(0, 10**4))
    assume(math.gcd(a, b, c) == 1)
    return a, b, c


def discriminants(lo):
    return [D for D in range(lo + 1, 0) if D % 4 in (0, 1)]


class TestReduction:
    def test_reduce_examples(self):
        f = qform.BinaryQuadraticForm(15, 47, 37)
        g = qform.reduce(f)
        assert g.discriminant == f.discriminant
        assert g.is_reduced()

    def test_reduce_preserves_class_value_set(self):
        # a reduced form represents its own leading coefficient
        f = qform.BinaryQuadraticForm(3, 1, 2)  # D = -23
        g = qform.reduce(f)
        assert (g.a, g.b, g.c) == (2, -1, 3) or (g.a, g.b, g.c) == (2, 1, 3)

    @settings(max_examples=600, deadline=None)
    @given(form=primitive_forms())
    def test_kernel_matches_the_record_loop(self, form):
        a, b, c = form
        want = reduce_oracle(BinaryQuadraticForm(a, b, c))
        assert qform.reduced(a, b, c) == (want.a, want.b, want.c)
        assert qform.reduce(BinaryQuadraticForm(a, b, c)) == want
        assert want.is_reduced() and want.discriminant == b * b - 4 * a * c

    def test_kernel_examples(self):
        assert qform.reduced(2, -2, 3) == (2, 2, 3)  # |b| = a
        assert qform.reduced(3, -1, 3) == (3, 1, 3)  # a = c
        assert qform.reduced(6, 1, 1) == (1, 1, 6)  # c < a
        assert qform.reduced(3, 13, 15) == (1, 1, 3)  # |b| > a
        assert qform.reduced(2, -5, 4) == (1, 1, 2)  # b < -a

    def test_invalid_form_rejected(self):
        with pytest.raises(InvalidForm):
            qform.BinaryQuadraticForm(1, 0, -1).validate()  # D > 0

    def test_reduced_flag_matches_inequalities(self):
        for (a, b, c) in [(1, 1, 6), (2, -1, 3), (2, 1, 3), (3, 1, 2)]:
            f = qform.BinaryQuadraticForm(a, b, c)
            want = abs(b) <= a <= c and not (b < 0 and (abs(b) == a or a == c))
            assert f.is_reduced() == want


class TestEnumeration:
    @pytest.mark.parametrize(
        "D,h", [(-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-15, 2),
                (-23, 3), (-47, 5), (-71, 7), (-83, 3), (-84, 4)]
    )
    def test_class_numbers(self, D, h):
        assert len(qform.enumerate_reduced(D)) == h

    def test_matches_brute_force_scan(self):
        for D in range(-400, 0):
            if D % 4 not in (0, 1):
                continue
            got = {(f.a, f.b, f.c) for f in qform.enumerate_reduced(D)}
            assert got == brute_reduced_forms(D), D

    def test_principal_form_first(self):
        for D in (-23, -84, -163):
            forms = qform.enumerate_reduced(D)
            assert forms[0] == qform.principal_form(D)


class TestComposition:
    def test_cubes_to_identity_in_h3(self):
        cg = qform.enumerate_reduced(-23)
        f = qform.BinaryQuadraticForm(2, 1, 3)
        f2 = qform.compose(f, f)
        f3 = qform.compose(f2, f)
        assert f3 == qform.principal_form(-23)
        assert f2 == f.inverse() or qform.reduce(f2) == qform.reduce(f.inverse())

    def test_group_axioms_sample(self):
        for D in (-23, -47, -84, -71, -120):
            forms = qform.enumerate_reduced(D)
            e = qform.principal_form(D)
            table = {}
            for f, g in itertools.product(forms, forms):
                h = qform.compose(f, g)
                assert h in forms  # closure
                table[(f, g)] = h
            for f, g in itertools.product(forms, forms):
                assert table[(f, g)] == table[(g, f)]  # commutative
            for f in forms:
                assert table[(f, e)] == f  # identity
                assert qform.compose(f, qform.reduce(f.inverse())) == e
            for f, g, h in itertools.product(forms, forms, forms):
                assert table[(table[(f, g)], h)] == table[(f, table[(g, h)])]

    def test_matches_dirichlet_oracle(self):
        # every pair of reduced forms for -1000 < D < 0
        for D in discriminants(-1000):
            forms = qform.enumerate_reduced(D)
            for f, g in itertools.product(forms, forms):
                assert qform.compose(f, g) == dirichlet_compose_oracle(f, g), (f, g)

    def test_discriminant_mismatch(self):
        with pytest.raises(DiscriminantMismatch):
            qform.compose(BinaryQuadraticForm(2, 1, 3), BinaryQuadraticForm(1, 1, 2))

    @settings(max_examples=600, deadline=None)
    @given(D=st.integers(3, 10**5).map(lambda n: -n).filter(lambda D: D % 4 in (0, 1)),
           data=st.data())
    def test_group_laws(self, D, data):
        forms = qform.enumerate_reduced(D)
        f, g, k = (data.draw(st.sampled_from(forms)) for _ in range(3))
        e = qform.principal_form(D)
        fg = qform.compose(f, g)
        assert fg == dirichlet_compose_oracle(f, g)
        assert fg == qform.compose(g, f)
        assert qform.compose(fg, k) == qform.compose(f, qform.compose(g, k))
        assert qform.compose(f, e) == f
        assert qform.compose(f, f.inverse()) == e

    def test_power(self):
        f = qform.BinaryQuadraticForm(2, 1, 3)
        assert qform.form_pow(f, 3) == qform.principal_form(-23)
        assert qform.form_pow(f, 1) == f
        assert qform.form_pow(f, 0) == qform.principal_form(-23)

    @pytest.mark.parametrize("D", [-23, -420, -3299])
    def test_power_matches_repeated_composition(self, D):
        # n in -2h..2h, on each class and on a non-reduced form of it
        forms = qform.enumerate_reduced(D)
        h, e = len(forms), qform.principal_form(D)
        for f in forms:
            g = BinaryQuadraticForm(f.a, f.b + 2 * f.a, f.a + f.b + f.c)
            assert qform.form_pow(f, 0) == qform.form_pow(g, 0) == e
            up = down = e
            for n in range(1, 2 * h + 1):
                up, down = qform.compose(up, f), qform.compose(down, f.inverse())
                assert qform.form_pow(f, n) == qform.form_pow(g, n) == up, (f, n)
                assert qform.form_pow(f, -n) == qform.form_pow(g, -n) == down, (f, -n)


class TestGroupStructure:
    @pytest.mark.parametrize(
        "D,divs",
        [(-23, (3,)), (-47, (5,)), (-84, (2, 2)), (-71, (7,)),
         (-3, ()), (-120, (2, 2)), (-231, (2, 6)), (-255, (2, 6))],
    )
    def test_invariant_factors(self, D, divs):
        got = qform.group_structure(qform.enumerate_reduced(D))
        assert tuple(got) == divs

    def test_matches_partition_oracle(self):
        for D in discriminants(-2000):
            forms = qform.enumerate_reduced(D)
            assert (qform.group_structure(forms)
                    == partition_group_structure_oracle(forms)), D

    def test_product_is_class_number(self):
        for D in range(-300, 0):
            if D % 4 not in (0, 1):
                continue
            forms = qform.enumerate_reduced(D)
            divs = qform.group_structure(forms)
            assert math.prod(divs) == len(forms)
            for i in range(len(divs) - 1):
                assert divs[i + 1] % divs[i] == 0


class TestRingClassNumber:
    @pytest.mark.parametrize(
        "D,c,h", [(-4, 5, 2), (-3, 2, 1), (-3, 3, 1), (-4, 2, 1),
                  (-7, 2, 1), (-7, 3, 4), (-8, 3, 2), (-23, 2, 3)]
    )
    def test_formula_spot_values(self, D, c, h):
        assert qform.ring_class_number(D, c) == h

    def test_agrees_with_direct_enumeration(self):
        for D in (-3, -4, -7, -8, -11, -15, -20, -23):
            for c in range(1, 13):
                assert qform.ring_class_number(D, c) == len(
                    qform.enumerate_reduced(c * c * D)
                ), (D, c)

    def test_rejects_non_fundamental(self):
        with pytest.raises(NonFundamentalDiscriminant):
            qform.ring_class_number(-12, 2)
