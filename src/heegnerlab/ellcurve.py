"""Exact elliptic curve core: Weierstrass models, group law over Q and over
quadratic fields, a_p from points mod p alone (counted where they cannot
decide), Hecke coefficient recursion over one stored, growing prefix per
curve, with every CM a_p at p not dividing 6 Delta from Deuring's theorem
(the Hecke character), and the Lutz-Nagell torsion enumeration.  Integers
and Fractions only: no mpmath, no floats.

Analytic pieces (period lattices, Weierstrass map, elliptic logarithm) live
in the lattice module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import arith
from .errors import FieldMismatch


class QuadElt(arith._Record):
    """Exact element x + y*sqrt(d) of a quadratic field, d squarefree != 0, 1."""

    x: Fraction
    y: Fraction
    d: int

    @staticmethod
    def make(x, y, d) -> "QuadElt | Fraction":
        # x + y sqrt(d), d = s^2 d0, d0 squarefree; a Fraction if y = 0 or d0 = 1
        if d == 0:
            raise ValueError("d must be nonzero")
        x, y = Fraction(x), Fraction(y)
        if y == 0:
            return x
        s, d0 = 1, -1 if d < 0 else 1
        for p, e in arith.factorize(abs(d)).items():
            s, d0 = s * p ** (e // 2), d0 * p ** (e % 2)
        return x + s * y if d0 == 1 else QuadElt(x, y * s, d0)

    def _coerce(self, other):
        if isinstance(other, QuadElt):
            if other.d != self.d:
                raise FieldMismatch(f"sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElt(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElt.make(self.x + o.x, self.y + o.y, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElt(-self.x, -self.y, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElt.make(self.x - o.x, self.y - o.y, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElt.make(
            self.x * o.x + self.y * o.y * self.d, self.x * o.y + self.y * o.x, self.d
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.x * self.x - self.y * self.y * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return QuadElt.make(self.x / n, -self.y / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        return arith._multiple(abs(n), self if n >= 0 else self.inverse(),
                               lambda u, v: u * v, Fraction(1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        if isinstance(other, QuadElt):
            return self.d == other.d and self.x == other.x and self.y == other.y
        return NotImplemented

    __hash__ = arith._Record.__hash__  # hash((x, y, d)); __eq__ above unsets it

    def conjugate(self):
        return QuadElt(self.x, -self.y, self.d)

    def __str__(self):
        return f"{self.x} + {self.y}*sqrt({self.d})"


class CurveModel(arith._Record):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""
    modular_degree: int | None = None

    @property
    def a_invariants(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a_invariants
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return (b2, b4, b6, b8)

    @property
    def c_invariants(self) -> tuple[int, int]:
        b2, b4, b6, _ = self.b_invariants
        return (b2 * b2 - 24 * b4, -b2**3 + 36 * b2 * b4 - 216 * b6)

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def cm_order_discriminant(self) -> int | None:
        """Discriminant d of End(E) over Qbar if E has CM, else None: E has
        CM exactly when j = c4^3/Delta is one of the 13 rational CM
        j-invariants (Silverman, Advanced Topics, A 3)."""
        disc = self.discriminant  # no j if singular
        j, r = divmod(self.c_invariants[0] ** 3, disc) if disc else (None, 1)
        return None if r else _CM_J.get(j)

    def rhs(self, x):
        return x * x * x + self.a2 * x * x + self.a4 * x + self.a6

    def on_curve(self, x, y) -> bool:
        return y * y + self.a1 * x * y + self.a3 * y == self.rhs(x)


# the 13 rational CM j-invariants and the discriminants of their orders
_CM_J = {0: -3, 1728: -4, -3375: -7, 8000: -8, -32768: -11, 54000: -12,
         287496: -16, -884736: -19, -12288000: -27, 16581375: -28,
         -884736000: -43, -147197952000: -67, -262537412640768000: -163}


class CurvePoint(arith._Record):
    """Either the point at infinity or affine (x, y) with exact coordinates
    (Fraction, or QuadElt over one quadratic field)."""

    x: object = None
    y: object = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self):
        return "O" if self.is_infinity else f"({self.x}, {self.y})"


INFINITY = CurvePoint()


def point(x, y) -> CurvePoint:
    return CurvePoint(Fraction(x) if isinstance(x, int) else x,
                      Fraction(y) if isinstance(y, int) else y)


def point_neg(P: CurvePoint, E: CurveModel) -> CurvePoint:
    if P.is_infinity:
        return P
    return CurvePoint(P.x, -P.y - E.a1 * P.x - E.a3)


def point_add(P: CurvePoint, Q: CurvePoint, E: CurveModel) -> CurvePoint:
    """Exact group law on the general Weierstrass model.  Points over two
    different quadratic fields raise FieldMismatch from QuadElt arithmetic:
    if x1 == x2 then y1, y2 are roots of one quadratic over Q(x1), so a
    mixed sum always combines coordinates of both fields."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    a1, a2, a3, a4, _ = E.a_invariants
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def point_mul(n: int, P: CurvePoint, E: CurveModel) -> CurvePoint:
    return arith._multiple(abs(n), point_neg(P, E) if n < 0 else P, point_add,
                           INFINITY, E)


# ---------------------------------------------------------------------------
# point counting and Fourier coefficients


def _count_points(E: CurveModel, p: int) -> int:
    """#E(F_p) including infinity, by direct counting in O(p); on a model
    with bad reduction at p this includes its one singular point."""
    if p == 2:
        n = 1
        for x in range(2):
            for y in range(2):
                if (y * y + E.a1 * x * y + E.a3 * y - E.rhs(x)) % 2 == 0:
                    n += 1
        return n
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, b4, b6, _ = E.b_invariants
    qr = bytearray(p)
    for i in range(1, (p + 1) // 2):
        qr[i * i % p] = 1
    n = p + 1
    for x in range(p):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if g == 0:
            continue
        n += 1 if qr[g] else -1
    return n


def _add_mod(P, Q, a: int, p: int):
    # affine group law on y^2 = x^3 + a x + b over F_p, None for infinity
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _hasse_candidates(P, a: int, p: int, H: int) -> set[int]:
    """Every u with |u| <= H and (p + 1 - u) P = O, by baby-step giant-step:
    u = k m + j - H with j P = (p + 1 + H) P - k (m P), 0 <= j, k < m.  A
    point of small order takes several baby-step indices, all kept.  The
    first giant step is q (m P) + r P, q m + r = p + 1 + H."""
    m = math.isqrt(2 * H) + 1  # m^2 > 2H covers u + H in 0..2H
    baby: dict = {}
    jP = [None]  # j P, j = 0..m
    for j in range(m):
        baby.setdefault(jP[j], []).append(j)
        jP.append(_add_mod(jP[j], P, a, p))
    step = jP[m] and (jP[m][0], -jP[m][1] % p)  # -m P
    q, r = divmod(p + 1 + H, m)
    R = _add_mod(arith._multiple(q, jP[m], _add_mod, None, a, p), jP[r], a, p)
    found = set()
    for k in range(m):
        for j in baby.get(R, ()):
            u = k * m + j - H
            if u <= H:
                found.add(u)
        R = _add_mod(R, step, a, p)
    return found


def _ap_by_points(c4: int, c6: int, p: int) -> int | None:
    """a_p at a prime p not dividing 6 Delta from points (Cohen, GTM 138,
    7.4), or None if every x0 leaves more than one candidate.  These start
    as [-H, H], H = floor(2 sqrt p) (Hasse), on every curve.  The short
    model Y^2 = f(X) = X^3 + A X + B, A = -27 c4, B = -54 c6, is E over F_p.
    Each x0 with c = f(x0) != 0 gives the point P = (c x0, c^2) of y^2 = x^3
    + c^2 A x + c^3 B, with no square root: that curve is E when c is a
    square mod p, else its quadratic twist, of order p + 1 + a_p.  By
    Lagrange a_p is among the u that P allows, (p + 1 -+ u) P = O, which
    baby-step giant-step finds in [-H, H] at every x0.  Mestre's theorem
    leaves none ambiguous after every x0 for p > 457."""
    A, B = -27 * c4 % p, -54 * c6 % p
    H = math.isqrt(4 * p)
    candidates = None  # all of [-H, H]
    for x0 in range(p):
        c = (x0 * x0 * x0 + A * x0 + B) % p
        if c == 0:
            continue
        P, a = (c * x0 % p, c * c % p), c * c * A % p
        sign = 1 if pow(c, (p - 1) // 2, p) == 1 else -1  # -1: a twist point
        found = {sign * u for u in _hasse_candidates(P, a, p, H)}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    return None


def ap(E: CurveModel, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at every prime p of the minimal model E, from
    points alone and with no CM theory, so that it can check the Hecke
    character (_character_ap).  At a prime p not dividing 6 Delta it is the
    one candidate that every point tried allows (_ap_by_points).  At p | 6
    Delta, and at the few small p that stay ambiguous, points are counted;
    a bad prime's count includes the singular point, so a_p = p - #smooth
    points: 1 split multiplicative, -1 non-split, 0 additive."""
    a = _ap_by_points(*E.c_invariants, p) if 6 * E.discriminant % p else None
    if a is None:
        a = p + 1 - _count_points(E, p)
    if a * a > 4 * p:
        raise ArithmeticError(f"Hasse bound violated at {p}")
    return a


def _character_ap(E: CurveModel, spf: list, M: int):
    """p -> a_p at the primes p <= M of an an_coeffs extension, spf its
    sieve: ap, but on a CM curve at p not dividing 6 Delta from Deuring's
    theorem (Silverman, Advanced Topics, II.9-10).  K = Q(sqrt d_K), d_K
    d's fundamental part, has class number 1 for all 13 rational CM j;
    (t, v) is (t + v sqrt d_K)/2, of trace t.  A split p is the norm of a
    generator (t, v) of a prime above it, v >= 1, and a ramified p is bad,
    so a p that the sweep of t^2 + |d_K| v^2 <= 4M misses is inert: the
    reduction is supersingular, so p | a_p, and a_p = 0 as |a_p| <= 2 sqrt p
    < p.  At split p = P P', a_p = Tr psi(P), where psi((pi)) = eps(pi) pi,
    eps: (O_K/f)^* -> mu_K, eps(u) = 1/u on mu_K, and N = |d_K| N(f).  As
    1/u is one-to-one, mu_K injects into (O_K/f)^* for E's conductor, so a
    conductor on which it does not is refused (ArithmeticError).
    E is over Q, so complex conjugation takes Frobenius at P to that at P', and
    f to itself: over l^k || N/|d_K|, f is l^(k/2) at an unramified l (k odd is
    refused, as is an N that d_K does not divide) and L^k at a ramified l, L =
    (l, w - r), w = (d_K + sqrt d_K)/2 a root of x^2 + n0 mod l, n0 = (d_K^2 -
    d_K)/4, r = n0 mod l.  pi's key, its reductions by each part's Hermite
    basis (A, 0), (B, C) in (t, v), is pi mod f, as the parts are coprime.  At
    a class of (O_K/f)^*/mu_K's first prime eps(pi) is the z in mu_K with Tr(z
    pi) = ap, kept over the class as eps(u pi) = eps(pi)/u and checked at its
    second (else ArithmeticError); z is unique as p does not divide 6 d: (z -
    z') pi of trace 0 is (0, y), and p N(z - z') = |d_K| y^2/4 gives p | y, p |
    4 N(z - z') <= 16.  p | 6 Delta go to ap.  Certified given that N is E's
    conductor, as the parametrisation's level is."""
    disc, d = E.discriminant, E.cm_order_discriminant
    dK = d and d // {-12: 4, -16: 4, -27: 9, -28: 4}.get(d, 1)
    if not dK:
        return lambda p: ap(E, p)
    parts, table = [], {}  # table: key -> (eps, primes asked)
    fits = E.conductor % dK == 0  # N = |d_K| N(f), f = conj(f)
    for l, k in (arith.factorize(E.conductor // -dK) if fits else {}).items():
        fits = fits and (k % 2 == 0 or dK % l == 0)
        s, r = l ** (k // 2), k % 2 * ((dK * dK - dK) // 4 % l)
        parts.append((2 * s * l ** (k % 2), s * (dK - 2 * r), s))
    units = [(t, v) for t in range(-2, 3) for v in (-1, 0, 1)
             if t * t - dK * v * v == 4]

    def mul(u, w):
        return ((u[0] * w[0] + dK * u[1] * w[1]) // 2,
                (u[0] * w[1] + u[1] * w[0]) // 2)

    def key(t, v):
        return tuple(((t - v // C * B) % A, v % C) for A, B, C in parts)

    if not fits or len({key(*u) for u in units}) < len(units):
        why = ("mu_K does not inject into (O_K/f)^*" if fits
               else "no f = conj(f) has N = |d_K| N(f)")
        raise ArithmeticError(f"{why}: is {E.conductor} the conductor?")
    gen = {q: (t, v) for v in range(1, math.isqrt(4 * M // -dK) + 1)
           for t in range(dK * v % 2, math.isqrt(4 * M + dK * v * v) + 1, 2)
           if spf[q := (t * t - dK * v * v) // 4] == q and 6 * disc % q}

    def a_p(p):
        if p not in gen:
            return 0 if 6 * disc % p else ap(E, p)
        pi = gen[p]
        eps, seen = table.get(key(*pi), (None, 0))
        if seen == 2:
            return mul(eps, pi)[0]
        a = ap(E, p)
        z = [u for u in units if mul(u, pi)[0] == a]
        if len(z) != 1 or seen and z != [eps]:
            raise ArithmeticError(f"a_{p} = {a} does not fit a Hecke"
                                  f" character: is {E.conductor} the conductor?")
        for u in units:  # eps(u pi) = eps(pi)/u, and 1/u = (t, -v)
            table[key(*mul(u, pi))] = (mul(z[0], (u[0], -u[1])), seen + 1)
        return a
    return a_p


_PREFIXES: dict[tuple, tuple[int, ...]] = {}  # (a-invariants, N) -> a_1..a_M
_PREFIX_CURVES = 8


def an_coeffs(E: CurveModel, M: int) -> tuple[int, ...]:
    """Fourier coefficients (a_1, ..., a_M) of the newform attached to E, from
    _character_ap at primes and the Hecke recursion.  One growing prefix is
    kept per (a-invariants, conductor), for at most 8 curves with the
    oldest dropped; only the a_n beyond it are computed."""
    if M < 1 or M > 10**6:
        raise ValueError("M out of range")
    key = (E.a_invariants, E.conductor)
    known = _PREFIXES.get(key)
    if known is None and len(_PREFIXES) >= _PREFIX_CURVES:
        del _PREFIXES[next(iter(_PREFIXES))]
    known = _PREFIXES[key] = known or (1,)
    if len(known) >= M:
        return known[:M]
    a = [0, *known] + [0] * (M - len(known))
    # smallest prime factor: the last, hence least, i <= sqrt(n) to write n
    spf = list(range(M + 1))
    for i in range(math.isqrt(M), 1, -1):
        spf[i * i :: i] = [i] * len(range(i * i, M + 1, i))
    a_p = _character_ap(E, spf, M)
    for n in range(len(known) + 1, M + 1):
        p = pk = spf[n]
        while n % (pk * p) == 0:
            pk *= p
        if pk < n:  # n = pk * m with gcd(pk, m) = 1
            a[n] = a[pk] * a[n // pk]
        elif n == p:
            a[n] = a_p(p)
        elif E.conductor % p:  # p^k at a good prime
            a[n] = a[p] * a[n // p] - p * a[n // p // p]
        else:
            a[n] = a[p] * a[n // p]
    _PREFIXES[key] = known = tuple(a[1:])
    return known


# ---------------------------------------------------------------------------
# torsion


def torsion_subgroup(E: CurveModel) -> tuple[tuple[CurvePoint, ...], tuple[int, ...]]:
    """Q-rational torsion points via Lutz-Nagell on the model
    Y^2 = X^3 - 27 c4 X - 54 c6 (X = 36x + 3b2, Y = 108(2y + a1x + a3)),
    each order confirmed once, by iterated addition up to 12, and kept for
    P and -P.

    Returns (points including infinity, group invariants as for
    elementary divisors, read off those orders).
    """
    c4, c6 = E.c_invariants
    b2 = E.b_invariants[0]
    A, B = -27 * c4, -54 * c6
    disc = abs(-16 * (4 * A**3 + 27 * B * B))
    candidates_Y = [0]
    fact = arith.factorize(disc) if disc > 1 else {}
    divs = [1]
    for p, e in fact.items():
        divs = [d * p**k for d in divs for k in range(e // 2 + 1)]
    candidates_Y.extend(sorted(set(divs)))
    orders = {INFINITY: 1}  # torsion point -> its order
    for Y in candidates_Y:
        for X in _integer_cubic_roots(A, B - Y * Y):
            x = Fraction(X - 3 * b2, 36)
            y = (Fraction(Y, 108) - E.a1 * x - E.a3) / 2
            P = CurvePoint(x, y)
            if not E.on_curve(P.x, P.y):
                continue
            n = _torsion_order(P, E)
            if n is not None:
                orders[P] = orders[point_neg(P, E)] = n
    ordered = sorted(
        orders, key=lambda P: (0,) if P.is_infinity else (1, P.x, P.y)
    )
    return tuple(ordered), _torsion_structure(orders.values())


def _integer_cubic_roots(A: int, C: int) -> list[int]:
    # integer roots of f = X^3 + A X + C, ascending, by bisection: each lies
    # in [-R, R], R = 1 + max(|A|, |C|), and with c = floor(sqrt(max(-A, 0)/3))
    # f is monotone on the integers of [-R, -c-1] (up), [-c, c] (down, or a
    # single point) and [c+1, R] (up), so each piece holds at most one root
    R, c = 1 + max(abs(A), abs(C)), math.isqrt(max(-A, 0) // 3)
    roots = []
    for lo, hi, sign in ((-R, -c - 1, 1), (-c, c, -1), (c + 1, R, 1)):
        while lo < hi:  # least X in [lo, hi] with sign * f(X) >= 0
            mid = (lo + hi) // 2
            if sign * (mid**3 + A * mid + C) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if lo**3 + A * lo + C == 0:
            roots.append(lo)
    return roots


def _torsion_order(P: CurvePoint, E: CurveModel) -> int | None:
    acc = P
    for n in range(1, 13):
        if acc.is_infinity:
            return n
        acc = point_add(acc, P, E)
    return None


def _torsion_structure(orders) -> tuple[int, ...]:
    # invariants of the group whose elements have these orders
    n = len(orders)
    if n == 1:
        return ()
    mx = max(orders)
    if mx == n:
        return (n,)
    if mx * 2 != n:
        raise ArithmeticError("unexpected torsion structure")
    return (2, mx)
