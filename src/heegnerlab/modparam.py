"""Numerical modular parametrization.

Evaluates phi(tau) = sum a_n q^n / n on the upper half plane, one whole
orbit per pass, in integer fixed point over the coefficients that an_coeffs
keeps per curve (blocks of about sqrt(2M) terms, each one C-level dot
product with packed powers of q, joined by Horner's rule in q^m), stores
conjugate orbits of class-field points by their
integer coordinates on the torus C/L (Lattice.torus), and sums them to
trace points; only a trace is mapped to curve coordinates, and its flags
(identity, half-lattice, real) are Lattice.near on its torus sum.
Precision is chosen at orbit_points and eval_phi; an orbit and its trace
read it from their lattice.  orbit_points keeps nothing: its callers keep
what they reuse (analysis keeps each report field).  Of the classes [A],
[A]^-1 [n] that w_N conj exchanges it evaluates one: the other is eps
conj(z) + c on the torus (_involution finds eps and c).
Recognition has one entry point per input shape, both one reader (_read):
recognize for one point over Q, recognize_quadratic for one point over
Q(sqrt(D)) in its fixed embedding (twist points with x in Q included).
recognize_trace(tr) sends a trace point to one or the other, reading the
curve, the precision and the discriminant D, hence the quadratic field,
from the trace's orbit.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache

from mpmath import mp, mpc, mpf
from mpmath.libmp import to_rational

from . import arith, qform
from .ellcurve import CurveModel, QuadElt, an_coeffs
from .errors import (ConvergenceTooSlow, InvolutionUnresolved,
                     RecognitionFailed)
from .heegner import heegner_fiber, tau
from .lattice import Lattice, periods, weierstrass_map

_M_CAP = 10**6


def _terms_needed(im_tau: mpf, precision_bits: int) -> int:
    """Least M >= 1 with 2 |q|^(M+1) / (1 - |q|) < 2^-(precision_bits+4),
    |q| = exp(-2 pi Im tau): a bound on the tail sum_{n>M} |a_n q^n / n|,
    as |a_n| <= d(n) sqrt(n) <= 2n.  In logarithms the condition reads
    M + 1 > x = ((precision_bits + 5) log 2 - log(1 - |q|)) / (2 pi Im tau),
    so M = floor(x), as floats give x to far better than 10^-6; within
    10^-6 of an integer the bound in mpf decides, from just below x.  Im
    tau below 10^-3, or more than 10^6 terms, raises ConvergenceTooSlow."""
    if im_tau < 1e-3:
        raise ConvergenceTooSlow("Im(tau) below 10^-3")
    t = 2 * math.pi * float(im_tau)
    x = ((precision_bits + 5) * math.log(2) - math.log(-math.expm1(-t))) / t
    near = abs(x - round(x)) <= 1e-6
    M = max(1, math.floor(x - 1e-6 if near else x))
    if near:
        with mp.workprec(64):
            t = 2 * mp.pi * im_tau
            target = mp.ldexp(-mp.expm1(-t), -(precision_bits + 5))
            while M <= _M_CAP and mp.exp(-t * (M + 1)) >= target:
                M += 1
    if M > _M_CAP:
        raise ConvergenceTooSlow(
            "more than 10^6 q-series terms required; Im(tau) too small"
        )
    return M


def eval_phi(E: CurveModel, taus, precision_bits: int
             ) -> tuple[tuple[mpc, ...], tuple[int, ...]]:
    """(values, term counts) over the points taus, one orbit in one pass:
    value_j = sum_{n<=M_j} a_n q_j^n / n, q_j = e^{2 pi i tau_j}, with M_j
    the least count whose tail bound stays below 2^-(precision_bits+4)
    (_terms_needed: |a_n| <= 2n gives a tail below 2 |q_j|^(M_j+1) /
    (1 - |q_j|)).  A value is the pre-lattice-reduction image of tau_j in
    C, and errs below 2^-(precision_bits+3) in all.  A single point is a
    one-element taus.

    The sum runs on integers in blocks of m = isqrt(2(M_j+1)) terms.  With
    M = max M_j (the a_n are extended only that far) and g = bitlen(4(M+1)),
    values carry K = precision_bits + 20 + g fraction bits, c_n = floor(a_n
    2^K / n) is built once for the orbit with c_0 = 0, and q_j, p_i = q_j^i
    (i < m) and Q = q_j^m carry S = K + g + 8 bits, each power from the last
    by the floored three-product step k = q_r (re + im), re' = k - im (q_r +
    q_i), im' = k + re (q_i - q_r) (re q_r - im q_i and re q_i + im q_r to
    the bit).  Packed as r_i + s_i 2^W, W = 2S, a block's sum P = sum c_n
    p_i is one C-level dot product, where a zero c_n (a_p = 0 at inert p on
    a CM curve) is one multiply by 0; |sum c_n r_i| < m 2^(K+1) (2^S + 3m) <
    2^(W-1), as |c_n| <= d(n)/sqrt(n) <= 2, so P splits exactly with hi =
    floor((P + 2^(W-1)) / 2^W).  Horner's rule then runs over the blocks in
    Q: acc <- floor((acc Q + P) / 2^S), one three-product step, one floor.

    Error, in units of 2^-K: q_j errs below sqrt(2) 2^-S, so p_i below 3i
    2^-S (a floor and q_j's error per step).  The c_n err by 1 each, scaled
    by |p_i Q^j| < 1 + 3m 2^-S: M_j + 1 in all.  A block's powers add under
    2 sum 3i 2^-S < 6(M_j+1) 2^-S < 1/64.  An outer step floors (sqrt(2))
    and multiplies |acc| < 2/(1 - |q_j|) < 4(M_j+1) <= 2^g by Q's error, 3m
    2^-S: 3m/256 (were (M_j+1)(1-|q_j|) <= 1/2, |q_j|^(M_j+1) >= 1/2 and the
    tail bound would exceed 1).  Later steps scale an error by |Q| < 1, and
    m >= 2 leaves at most M_j/2 + 1 blocks, so the total stays below 2.1
    (M_j+1) < 2^g units, 2^-(precision_bits+20): the K shared by the orbit
    is at least each point's own.  The integer Horner loop this replaced
    and the mpc loop before it are oracles in tests/test_modparam.py,
    beside a direct sum carried far past M_j.
    """
    Ms = tuple(_terms_needed(mp.im(tau), precision_bits) for tau in taus)
    M = max(Ms)
    g = (4 * M + 4).bit_length()
    K = precision_bits + 20 + g
    S = K + g + 8
    W = 2 * S
    c = [0] + [(a << K) // n for n, a in enumerate(an_coeffs(E, M), 1)]
    values = []
    for tau, Mj in zip(taus, Ms):
        with mp.workprec(S + 10):
            q = mp.exp(2j * mp.pi * tau)
            qr, qi = int(mp.ldexp(mp.re(q), S)), int(mp.ldexp(mp.im(q), S))
        m, qs, qd = math.isqrt(2 * Mj + 2), qr + qi, qi - qr
        powers, pr, pi = [], 1 << S, 0
        for _ in range(m):  # p_0..p_(m-1) packed, then (pr, pi) = Q
            powers.append(pr + (pi << W))
            k = qr * (pr + pi)
            pr, pi = (k - pi * qs) >> S, (k + pr * qd) >> S
        Qs, Qd = pr + pi, pi - pr
        re = im = 0
        for j in reversed(range(0, Mj + 1, m)):
            P = sum(map(operator.mul, c[j:min(j + m, Mj + 1)], powers))
            hi = (P + (1 << W - 1)) >> W
            k, lo = pr * (re + im), P - (hi << W)
            re, im = (k - im * Qs + lo) >> S, (k + re * Qd + hi) >> S
        with mp.workprec(precision_bits + 20):
            values.append(mp.mpc(mp.ldexp(re, -K), mp.ldexp(im, -K)))
    return tuple(values), Ms


class OrbitEvaluation(arith._Record):
    """A full conjugate orbit of class-field points on the torus, one per
    ideal class, stored as the torus_coordinates (Lattice.torus) of their
    Abel-Jacobi images; points_z are the reduced images (Lattice.point)."""

    curve: CurveModel
    discriminant: int
    torus_coordinates: tuple[tuple[int, int], ...]
    terms_used: int
    lattice: Lattice

    @cached_property
    def points_z(self) -> tuple[mpc, ...]:
        return tuple(self.lattice.point(*c) for c in self.torus_coordinates)


def _horner53(coeffs, x: complex) -> complex:  # sum coeffs[k] x^k, floats
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=16)
def _involution(E: CurveModel, L: Lattice
                ) -> tuple[int, tuple[Fraction, Fraction]] | None:
    """(eps, c): phi(w_N tau) = eps phi(tau) + c, N = E.conductor, with c's
    coordinates on E's lattice L in (1/m)Z^2, m <= 12 least; None (no
    pairing) if N > 1000 (the probe's Im tau = 1/N is below eval_phi's
    10^-3), if floats cannot decide, or if a Gamma0(N) probe finds a
    period of phi off L (the bundled 32a: (+-1/2, 1/2)).  The probe samples
    eight elements, not a generating set: a model with a period off L that
    they miss passes, and pairing then moves a derived class by that
    period; its direct evaluation, too, then depends on the fiber form
    chosen.  In floats:
    - probe: for the first eight d >= 2 prime to N, a = 1/d mod N, gamma =
      [[a, b], [N, d]] takes (-d + i)/N to (a + i)/N; phi((x + i)/N) = sum_k
      S_k zeta^(kx), zeta = e^(2 pi i/N), S_k = sum_(n = k mod N) a_n r^n/n,
      r = e^(-2 pi/N);
    - w_N fixes tau_0 = i/sqrt N and takes tau_1 = e^(i pi/3)/sqrt N to
      -conj tau_1, so c = (1 - eps) phi(tau_0) and conj phi(tau_1) - eps
      phi(tau_1) - c is in L for exactly one eps, and c in (1/m)L (Mazur),
      else InvolutionUnresolved.
    Error: M = _terms_needed(1/N, 36) leaves tails below 2^-40 (Im tau >=
    1/N); |a_n/n| <= 2 bounds partial sums by A = 2/(1 - r), a float step
    errs below 2^-51 A, and q's or zeta^x's rounding, relative 2^-50,
    moves a sum under 2^-50 A^2.  So a value errs below e = 2^-40 + 2^-50
    A (A + M + N), a coordinate (linear: s(v) = s(1) Re v + s(i) Im v)
    below e gain, gain = max(|s(1)| + |s(i)|, |t(1)| + |t(i)|), and one
    tested against Z (four values, times m) below delta = 48 e gain, which
    must be below 2^-21, half the 2^-20 tolerance (2^-32 on 49a)."""
    N = E.conductor
    if N > 1000:
        return None
    (s1, t1), (si, ti) = ([float(x) for x in L.coordinates(mpc(u))]
                          for u in (1, 1j))
    M, r = _terms_needed(1 / N, 36), math.exp(-2 * math.pi / N)
    A, gain = 2 / (1 - r), max(abs(s1) + abs(si), abs(t1) + abs(ti))
    if 48 * (2**-40 + 2**-50 * A * (A + M + N)) * gain >= 2**-21:
        return None
    cs, S = [0.0], [0.0] * N
    for n, a in enumerate(an_coeffs(E, M), 1):
        cs.append(a / n)
        S[n % N] += cs[n] * r**n

    def coordinates(v: complex, m: int = 1) -> tuple[float, float]:
        return m * (s1 * v.real + si * v.imag), m * (t1 * v.real + ti * v.imag)

    def in_lattice(v: complex, m: int = 1) -> bool:
        return all(abs(s - round(s)) < 2**-20 for s in coordinates(v, m))

    def row(x: int) -> complex:  # phi((x + i)/N)
        return _horner53(S, cmath.exp(2j * math.pi * (x % N) / N))

    ds = itertools.islice((d for d in itertools.count(2)
                           if math.gcd(d, N) == 1), 8)
    if not all(in_lattice(row(pow(d, -1, N)) - row(-d)) for d in ds):
        return None
    p1, p0 = (_horner53(cs[:_terms_needed(t.imag, 36) + 1],
                        cmath.exp(2j * math.pi * t))
              for t in (cmath.exp(1j * math.pi / 3) / math.sqrt(N),
                        1j / math.sqrt(N)))
    signs = [e for e in (1, -1)
             if in_lattice(p1.conjugate() - e * p1 - (1 - e) * p0)]
    if len(signs) != 1:
        raise InvolutionUnresolved(f"w_N fits {len(signs)} signs, not 1")
    c = (1 - signs[0]) * p0
    m = next((m for m in range(1, 13) if in_lattice(c, m)), 0)
    if not m:
        raise InvolutionUnresolved("phi(0) is not torsion of order <= 12")
    return signs[0], tuple(Fraction(round(s), m) for s in coordinates(c, m))


def _partners(fiber, N: int) -> list[int]:
    # the class index of (N c, b, a/N) for each fiber form (a, b, c)
    if len(fiber) == 1:
        return [0]
    index = {qform.reduced(f.a, f.b, f.c): i for i, f in enumerate(fiber)}
    return [index[qform.reduced(N * f.c, f.b, f.a // N)] for f in fiber]


def orbit_points(E: CurveModel, D: int, precision_bits: int) -> OrbitEvaluation:
    """Evaluate phi at fiber representatives over level N = E.conductor and
    discriminant D, in one eval_phi pass, and store each class's torus
    coordinates (A, B) on the period lattice L = periods(E, precision_bits).
    An inadmissible D raises HeegnerConditionFailed.

    Pairing (Gross, Heegner points on X0(N), 1984, 5): w_N(-conj tau) =
    -2a / (N (b + sqrt D)), tau the root of the fiber form (a, b, c), is the
    root of the fiber form (Nc, b, a/N), of class [A]^-1 [n], n = (N, beta,
    .) (_partners; an involution).  The a_n are real and f|w_N = eps f, so
    phi(w_N(-conj tau)) = eps conj phi(tau) + c; Gamma0(N)-equivalent
    forms differ by periods of phi, which direct evaluation, too, takes to
    lie in L, and which _involution's probe samples (eight elements, a
    check, not a certificate).  Of two classes so paired only the one of
    smaller a (larger Im tau; the first on a tie) is evaluated, every class
    if h = 1 or _involution refuses (N > 1000 among its reasons); the
    other gets L.conjugate(A, B, eps, c), in integers, not reduced (every
    reader works mod 2^K).  That is exact but for half a unit of 2^-K per
    coordinate of c, so it errs by its source's error plus under 2^-K
    scale, inside Lattice.near's margin.  terms_used is the largest term
    count of the evaluated classes.

    Each tau is formed at prec + 40 bits, prec = precision_bits: Re tau, in
    [-1, 0], errs by at most 2^-(prec+40) and Im tau = y by 2^-(prec+39) y;
    for y >= 10^-3 (eval_phi's floor), |dphi/dtau| <= 4 pi |q| / (1 -
    |q|)^2 < 2^18.3 and y |dphi/dtau| < 2^8.4.  So phi moves by under
    2^-(prec+21): each value errs below 2^-(prec+3), Lattice.near's eta;
    Lattice.orbit_torus checks near's other premise on the values."""
    N = E.conductor
    fiber = heegner_fiber(D, N)
    L = periods(E, precision_bits)
    partner = _partners(fiber, N)
    pairing = partner != list(range(len(fiber))) and _involution(E, L)
    evaluated = [i for i, j in enumerate(partner)
                 if not pairing or (fiber[i].a, i) <= (fiber[j].a, j)]
    taus = [tau(fiber[i], precision_bits + 40) for i in evaluated]
    values, Ms = eval_phi(E, taus, precision_bits)
    coords = dict(zip(evaluated, L.orbit_torus(values)))
    return OrbitEvaluation(curve=E, discriminant=D, torus_coordinates=tuple(
        coords[i] if i in coords else L.conjugate(*coords[j], *pairing)
        for i, j in enumerate(partner)), terms_used=max(Ms), lattice=L)


class TracePoint(arith._Record):
    orbit: OrbitEvaluation  # for discriminant D: the trace is in E(Q(sqrt(D)))
    z: mpc
    xy: tuple[mpc, mpc] | None  # None exactly for the identity
    is_real: bool  # z = conj(z) mod L (Lattice.conjugate): (x, y) is real
    half_lattice: bool  # z sits in (1/2)L but not L: index discrepancy

    @property
    def is_identity(self) -> bool:
        return self.xy is None


def trace_point(orbit: OrbitEvaluation) -> TracePoint:
    """Sum (A, B) of the orbit's integer torus_coordinates, exact, in 2^-K
    units, K = L.torus_bits.  The identity if L.near(A, B); flagged, not
    resolved, if only L.near(2A, 2B): a sum in the strict index-two
    superlattice (1/2)L.  z = L.point(A, B).  Real if L.near(A - A', B -
    B'), (A', B') = L.conjugate(A, B): p(conj z) = conj p(z) on a real
    lattice and (x, y) fixes z mod L."""
    L = orbit.lattice
    A, B = map(sum, zip(*orbit.torus_coordinates))
    z = L.point(A, B)
    if L.near(A, B):
        return TracePoint(orbit=orbit, z=z, xy=None, is_real=True,
                          half_lattice=False)
    Ac, Bc = L.conjugate(A, B)
    return TracePoint(orbit=orbit, z=z, xy=weierstrass_map(z, orbit.curve, L),
                      is_real=L.near(A - Ac, B - Bc),
                      half_lattice=L.near(2 * A, 2 * B))


class RecognizedAlgebraic(arith._Record):
    kind: str  # "rational" | "quadratic"
    # rational: (Fraction, Fraction); quadratic: (x, y), each a Fraction or
    # a QuadElt, not both Fractions
    value: object
    residual: mpf


_RESIDUAL_CAP = 2.0**-20


def _screen(residual: mpf, x: mpc, y: mpc, p: int) -> None:
    """RecognitionFailed unless residual <= min(2^-20, 2^-(p//2) (1 + |x| +
    |y|)^2), p = precision_bits + 20, at least 73 as periods admits
    precision_bits >= 53: genuine algebraic inputs round to machine
    accuracy; a merely small residual (~bound^-2) signals a spurious
    continued-fraction hit."""
    strict = mp.ldexp(1, -(p // 2)) * (1 + abs(x) + abs(y)) ** 2
    if residual > min(_RESIDUAL_CAP, strict):
        raise RecognitionFailed(f"residual {mp.nstr(residual, 5)} too large")


def _round_rational(v, bound: int) -> tuple[Fraction, mpf]:
    r = Fraction(*to_rational(mp.re(v)._mpf_)).limit_denominator(bound)
    err = abs(mp.re(v) - mp.mpf(r.numerator) / r.denominator)
    return r, err


def _read(point, denominator_bound: int, E: CurveModel, D: int | None,
          precision_bits: int) -> RecognizedAlgebraic:
    """The one reader: each coordinate v is u + w sqrt(D) in lattice.embed's
    principal-root embedding, u = Re v, w = Im v / r, r = sqrt(|D|); u, and
    over Q(sqrt(D)) w, round to denominators up to the bound, squared over
    Q(sqrt(D)) (over Q, D is None, r = 1, w = 0).  The residual e_u + r e_w
    over x and y is the L1 distance from the embedded exact point, summed
    at precision_bits + 40 so that its printed digits are not rounding
    noise of a residual near 2^-precision_bits; _screen, at p =
    precision_bits + 20, and the exact curve equation decide."""
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be positive")
    bound = denominator_bound if D is None else denominator_bound**2
    with mp.workprec(precision_bits + 40):
        xy = [mp.mpc(v) for v in point]
        root = mp.mpf(1) if D is None else mp.sqrt(-D)
        exact, residual = [], mp.mpf(0)
        for v in xy:
            u, eu = _round_rational(v, bound)
            t = mp.im(v) / root
            w, ew = (0, abs(t)) if D is None else _round_rational(t, bound)
            exact.append(u if D is None else QuadElt.make(u, w, D))
            residual += eu + ew * root
        _screen(residual, *xy, precision_bits + 20)
    if not E.on_curve(*exact):
        raise RecognitionFailed(f"{'rounded' if D is None else 'quadratic'}"
                                " point misses the curve equation")
    return RecognizedAlgebraic(kind="rational" if D is None else "quadratic",
                               value=tuple(exact), residual=residual)


def recognize(points, denominator_bound: int, E: CurveModel,
              precision_bits: int) -> RecognizedAlgebraic:
    """Exact rational point of E behind one numerical point, given as
    [(x, y)] (_read over Q): the residual is the rounding error of Re x and
    Re y plus |Im x| + |Im y|."""
    if len(points) != 1:
        raise ValueError("recognize reads one point, given as [(x, y)]")
    return _read(points[0], denominator_bound, E, None, precision_bits)


def recognize_quadratic(point, denominator_bound: int, E: CurveModel, D: int,
                        precision_bits: int) -> RecognizedAlgebraic:
    """Exact point of E over Q(sqrt(D)), D < 0, behind one numerical point
    (x, y) in the principal-root embedding (_read over Q(sqrt(D))), u and w
    rounded to denominators up to denominator_bound^2; a twist point (x in
    Q, y in sqrt(D) Q) is one case."""
    if D >= 0:
        raise ValueError("D must be negative")
    return _read(point, denominator_bound, E, D, precision_bits)


def recognize_trace(tr: TracePoint) -> RecognizedAlgebraic:
    """Exact point behind a trace point that is not the identity, with
    denominator bound 10^6 on the orbit's curve at its lattice's precision:
    over Q when the trace is real (recognize), otherwise over Q(sqrt(D)),
    D the orbit's discriminant (recognize_quadratic)."""
    if tr.is_identity:
        raise ValueError("the identity has no affine coordinates")
    E, prec = tr.orbit.curve, tr.orbit.lattice.precision_bits
    if tr.is_real:
        return recognize([tr.xy], 10**6, E, precision_bits=prec)
    return recognize_quadratic(tr.xy, 10**6, E, tr.orbit.discriminant,
                               precision_bits=prec)
