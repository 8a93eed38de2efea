"""Binary quadratic forms of negative discriminant.

Reduction, enumeration of reduced forms, Gauss composition by Cohen's
Alg. 5.4.7, class group structure from the p-ranks of the element orders,
and ring class numbers of non-maximal orders.  Forms (a, b, c) are
primitive and positive definite; the reduced representative
(|b| <= a <= c, b >= 0 on ties) is the canonical name of an ideal class of
the order of discriminant b^2 - 4ac, and the class group is the sorted
tuple of reduced forms, principal form first.  Integers and Fractions only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import arith
from .errors import (
    DiscriminantMismatch,
    InvalidDiscriminant,
    InvalidForm,
    NonFundamentalDiscriminant,
)


class BinaryQuadraticForm(arith._Record, order=True):
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def validate(self) -> "BinaryQuadraticForm":
        if self.discriminant >= 0:
            raise InvalidForm(f"{self} is not of negative discriminant")
        if self.a <= 0:
            raise InvalidForm(f"{self} is not positive definite")
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise InvalidForm(f"{self} is imprimitive")
        return self

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and (b >= 0 or (abs(b) < a and a < c))

    def inverse(self) -> "BinaryQuadraticForm":
        return reduce(BinaryQuadraticForm(self.a, -self.b, self.c))

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def check_discriminant(D: int) -> None:
    """Raise InvalidDiscriminant unless D < 0 and D = 0 or 1 mod 4."""
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{D} is not a negative discriminant")


def principal_form(D: int) -> BinaryQuadraticForm:
    check_discriminant(D)
    if D % 4 == 0:
        return BinaryQuadraticForm(1, 0, -D // 4)
    return BinaryQuadraticForm(1, 1, (1 - D) // 4)


def reduced(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Reduced triple of the primitive positive definite (a, b, c), unchecked."""
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = a - (a - b) % (2 * a)  # b translated into (-a, a]
            c = c + ((r * r - b * b) // (4 * a))
            b = r
            continue
        break
    return a, b, c


def reduce(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Unique reduced form properly equivalent to f."""
    f.validate()
    return BinaryQuadraticForm(*reduced(f.a, f.b, f.c))


def enumerate_reduced(D: int) -> tuple[BinaryQuadraticForm, ...]:
    """All primitive reduced forms of discriminant D, sorted; h(D) of them.

    Iterates over b of the right parity with 3b^2 <= |D| and splits
    (b^2 - D)/4 into divisor pairs a*c.
    """
    check_discriminant(D)
    forms = []
    b = D & 1
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    forms.append(BinaryQuadraticForm(a, b, c))
                    if 0 < b < a < c:
                        forms.append(BinaryQuadraticForm(a, -b, c))
            a += 1
        b += 2
    return tuple(sorted(forms))


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def compose(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Reduced Gauss composition of the classes of f and g (Cohen, GTM 138,
    Alg. 5.4.7): with a1 <= a2, s = (b1 + b2)/2 and n = b2 - s, take
    u a2 + v a1 = d = gcd(a2, a1) and x s + y d = d1 = gcd(s, d); then
    v1 = a1/d1, v2 = a2/d1, r = -u y n - x c2 mod v1 and the composite is
    (v1 v2, b2 + 2 v2 r, c) with c fixed by the discriminant, reduced."""
    f.validate()
    g.validate()
    D = f.discriminant
    if g.discriminant != D:
        raise DiscriminantMismatch(f"{f} and {g} have different discriminants")
    if f.a > g.a:
        f, g = g, f
    s = (f.b + g.b) // 2
    n = g.b - s
    d, u, _ = _gcdext(g.a, f.a)
    d1, x, y = _gcdext(s, d)
    v1, v2 = f.a // d1, g.a // d1
    r = (-u * y * n - x * g.c) % v1
    A = v1 * v2
    B = g.b + 2 * v2 * r
    return reduce(BinaryQuadraticForm(A, B, (B * B - D) // (4 * A)))


def form_pow(f: BinaryQuadraticForm, n: int) -> BinaryQuadraticForm:
    """n-th composition power of the class of f (n may be negative)."""
    D = f.validate().discriminant
    return arith._multiple(abs(n), reduce(f) if n >= 0 else f.inverse(),
                           compose, principal_form(D))


def _class_order(f: BinaryQuadraticForm, h: int) -> int:
    # order of the class of f, via the factorization of h
    ident = principal_form(f.discriminant)
    o = h
    for p in arith.prime_divisors(h):
        while o % p == 0 and form_pow(f, o // p) == ident:
            o //= p
    return o


def group_structure(forms: tuple[BinaryQuadraticForm, ...]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (product = h) of the class group
    forms = enumerate_reduced(D), read off its p-ranks.  With h = p^e m,
    p not dividing m, the classes whose order divides p^k m number
    m |G_p[p^k]| = m p^(s_k); then r_k = s_k - s_(k-1) cyclic p-factors
    have order >= p^k, and the i-th largest invariant factor is
    prod_p p^#{k : r_k > i}."""
    h = len(forms)
    orders = [_class_order(f, h) for f in forms]
    largest: list[int] = []
    for p, e in arith.factorize(h).items():
        m = h // p**e
        powers = [p**j for j in range(e + 1)]
        s = 0  # s_(k-1)
        for k in range(1, e + 1):
            count = sum(1 for o in orders if m * p**k % o == 0)
            r = powers.index(count // m) - s
            largest += [1] * (r - len(largest))
            for i in range(r):
                largest[i] *= p
            s += r
    if math.prod(largest) != h:
        raise ArithmeticError("invariant factors do not multiply to h")
    return tuple(reversed(largest))


def ring_class_number(D: int, c: int) -> int:
    """Class number of the order of conductor c in the field of fundamental
    discriminant D:  h(D) * c / [O_K^* : O^*] * prod_{p|c} (1 - (D|p)/p).
    """
    if not arith.is_fundamental_discriminant(D):
        raise NonFundamentalDiscriminant(f"{D} is not fundamental")
    if c < 1:
        raise ValueError("conductor must be positive")
    h = len(enumerate_reduced(D))
    if c == 1:
        return h
    unit_index = {-3: 3, -4: 2}.get(D, 1)
    hc = Fraction(h * c, unit_index)
    for p in arith.prime_divisors(c):
        hc *= Fraction(p - arith.kronecker(D, p), p)
    if hc.denominator != 1 or hc <= 0:
        raise ArithmeticError(f"non-integral ring class number {hc} for ({D}, {c})")
    return int(hc)
