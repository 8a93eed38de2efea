"""Numerical modular parametrization.

Evaluates phi(tau) = sum a_n q^n / n on the upper half plane in integer
fixed point over one growing coefficient prefix per curve, pushes whole
conjugate orbits of class-field points through the uniformization and forms
trace points.  Recognition has one entry point per input shape: recognize
for one point over Q, recognize_quadratic for a conjugate pair of points
over Q(sqrt(D)), recognize_minpoly for the conjugates of a number.
recognize_trace sends a trace point to the first or the second; the
quadratic field of a trace is that of its discriminant D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .ellcurve import CurveModel, QExpansion, QuadElt, an_coeffs
from .errors import ConvergenceTooSlow, RecognitionFailed
from .heegner import heegner_condition, heegner_fiber
from .lattice import Lattice, embed, periods, weierstrass_map
from .qform import enumerate_reduced

_M_CAP = 10**6


def _terms_needed(abs_q: mpf, precision_bits: int) -> int:
    # tail sum_{n>M} |q|^n/n < |q|^(M+1) / ((M+1)(1-|q|)); solve for M
    target = mp.mpf(2) ** (-(precision_bits + 4))
    if abs_q >= 1:
        raise ConvergenceTooSlow("tau is not in the upper half plane")
    M = 1
    while M <= _M_CAP:
        bound = abs_q ** (M + 1) / ((M + 1) * (1 - abs_q))
        if bound < target:
            return M
        # |q|^M shrinks geometrically; step by the log-estimate remainder
        M = max(M + 1, int(M * 1.3))
    raise ConvergenceTooSlow(
        "more than 10^6 q-series terms required; Im(tau) too small"
    )


_PREFIXES: dict[tuple, QExpansion] = {}  # (a-invariants, N) -> a_1..a_M
_PREFIX_CURVES = 8


def _coefficients(E: CurveModel, M: int) -> tuple[int, ...]:
    """a_1, a_2, ... (at least M of them) from one growing prefix per
    curve, extended by an_coeffs only when M outgrows it."""
    key = (E.a_invariants, E.conductor)
    prefix = _PREFIXES.get(key)
    if prefix is None and len(_PREFIXES) >= _PREFIX_CURVES:
        del _PREFIXES[next(iter(_PREFIXES))]
    if prefix is None or len(prefix.coefficients) < M:
        prefix = _PREFIXES[key] = an_coeffs(E, M, prefix)
    return prefix.coefficients


def eval_phi(E: CurveModel, tau: mpc, precision_bits: int) -> tuple[mpc, int]:
    """(value, M): value = sum_{n<=M} a_n e^{2 pi i n tau} / n, with M
    chosen so the geometric tail bound stays below 2^-(precision_bits+4).
    The value is the pre-lattice-reduction image of tau in C.

    Horner's rule runs on integers: with g = bitlen(4(M+1)), values carry
    K = precision_bits + 20 + g fraction bits, c_n = floor(a_n 2^K / n),
    and q carries K + g bits.  Each of the M + 1 steps acc <- acc q + c_n
    errs by under 4 units of 2^-K: sqrt(2) from flooring the product, 1
    from c_n, sqrt(2) from q, as |c_n| <= d(n)/sqrt(n) <= 2 bounds |acc| by
    2/(1-|q|) < 4(M+1) (the tail bound forces (M+1)(1-|q|) > 1/2).  Later
    steps scale an error by |q| < 1: the sum is below 2^-(precision_bits+20).
    The mpc Horner loop this replaced is the oracle in tests/test_modparam.py.
    """
    if mp.im(tau) < mp.mpf("1e-3"):
        raise ConvergenceTooSlow("Im(tau) below 10^-3")
    with mp.workprec(precision_bits + 20):
        M = _terms_needed(abs(mp.exp(2j * mp.pi * tau)), precision_bits)
        a = _coefficients(E, M)
        g = (4 * M + 4).bit_length()
        K = precision_bits + 20 + g
        S = K + g
        with mp.workprec(S + 10):
            q = mp.exp(2j * mp.pi * tau)
            qr, qi = int(mp.ldexp(mp.re(q), S)), int(mp.ldexp(mp.im(q), S))
        re = im = 0
        for n in range(M, 0, -1):
            re, im = (((re * qr - im * qi) >> S) + (a[n - 1] << K) // n,
                      (re * qi + im * qr) >> S)
        re, im = (re * qr - im * qi) >> S, (re * qi + im * qr) >> S
        return mp.mpc(mp.ldexp(re, -K), mp.ldexp(im, -K)), M


@dataclass(frozen=True)
class OrbitEvaluation:
    """Images of a full conjugate orbit of class-field points on the curve.

    points_z are lattice-reduced Abel-Jacobi images, one per ideal class;
    points_xy the corresponding curve coordinates.
    """

    curve: CurveModel
    discriminant: int
    points_z: tuple[mpc, ...]
    points_xy: tuple[tuple[mpc, mpc], ...]
    precision_bits: int
    terms_used: int
    lattice: Lattice


def orbit_points(E: CurveModel, D: int, precision_bits: int) -> OrbitEvaluation:
    """Evaluate phi at every fiber representative over level E.conductor and
    discriminant D, reduce mod the period lattice, and map to curve
    coordinates."""
    if not heegner_condition(D, E.conductor):
        raise ValueError(f"discriminant {D} is not admissible for level {E.conductor}")
    fiber = heegner_fiber(D, E.conductor)
    L = periods(E, precision_bits)
    zs = []
    xys = []
    terms = 0
    with mp.workprec(precision_bits + 20):
        for rep in fiber:
            tau = rep.tau(precision_bits + 20)
            phi, M = eval_phi(E, tau, precision_bits)
            terms = max(terms, M)
            z = L.reduce(phi)
            zs.append(z)
            xys.append(weierstrass_map(z, E, L))
    return OrbitEvaluation(
        curve=E,
        discriminant=D,
        points_z=tuple(zs),
        points_xy=tuple(xys),
        precision_bits=precision_bits,
        terms_used=terms,
        lattice=L,
    )


@dataclass(frozen=True)
class TracePoint:
    discriminant: int  # of the orbit; the trace lies in E(Q(sqrt(D)))
    z: mpc
    is_identity: bool
    xy: tuple[mpc, mpc] | None  # None exactly when is_identity
    is_real: bool  # imaginary parts of (x, y) vanish to tolerance
    half_lattice: bool  # z sits in (1/2)L but not L: index discrepancy


def trace_point(orbit: OrbitEvaluation) -> TracePoint:
    """Sum of the orbit in C/L.  A lattice-trivial sum is reported as the
    identity; a sum landing in the strict index-two superlattice (1/2)L is
    flagged rather than resolved."""
    L = orbit.lattice
    prec = orbit.precision_bits
    D = orbit.discriminant
    with mp.workprec(prec + 20):
        z = L.reduce(mp.fsum(mp.re(w) for w in orbit.points_z)
                     + 1j * mp.fsum(mp.im(w) for w in orbit.points_z))
        tol = mp.mpf(2) ** (-(prec // 2))
        scale = max(abs(L.omega1), abs(L.omega2))
        if L.distance(z) < tol * scale:
            return TracePoint(discriminant=D, z=z, is_identity=True, xy=None,
                              is_real=True, half_lattice=False)
        half = L.distance(2 * z) < tol * scale
        x, y = weierstrass_map(z, orbit.curve, L)
        real = abs(mp.im(x)) < tol * (1 + abs(x)) and abs(mp.im(y)) < tol * (
            1 + abs(y)
        )
        return TracePoint(discriminant=D, z=z, is_identity=False, xy=(x, y),
                          is_real=real, half_lattice=half)


@dataclass(frozen=True)
class RecognizedAlgebraic:
    kind: str  # "rational" | "quadratic" | "minpoly"
    value: object  # (Fraction, Fraction) | (QuadElt, QuadElt) | tuple of int
    residual: mpf


_RESIDUAL_CAP = 2.0**-20


def _mpf_to_fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(int(man), 1) * (Fraction(2) ** int(exp))
    return -v if sign else v


def _round_rational(v, bound: int) -> tuple[Fraction, mpf]:
    r = _mpf_to_fraction(mp.re(v)).limit_denominator(bound)
    err = abs(mp.re(v) - mp.mpf(r.numerator) / r.denominator)
    return r, err


def recognize(
    points,
    denominator_bound: int,
    E: CurveModel,
    precision_bits: int = 200,
) -> RecognizedAlgebraic:
    """Exact rational point of E behind one numerical point, given as
    [(x, y)].  Accepted only when the rounded point satisfies the curve
    equation exactly."""
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be positive")
    [(x, y)] = points
    with mp.workprec(precision_bits + 20):
        x, y = mp.mpc(x), mp.mpc(y)
        rx, ex = _round_rational(x, denominator_bound)
        ry, ey = _round_rational(y, denominator_bound)
        residual = ex + ey + abs(mp.im(x)) + abs(mp.im(y))
    if residual > _RESIDUAL_CAP:
        raise RecognitionFailed(f"residual {mp.nstr(residual, 5)} too large")
    lhs = ry * ry + E.a1 * rx * ry + E.a3 * ry
    if lhs != E.rhs(rx):
        raise RecognitionFailed("rounded point misses the curve equation")
    return RecognizedAlgebraic(kind="rational", value=(rx, ry), residual=residual)


def recognize_quadratic(
    points,
    denominator_bound: int,
    E: CurveModel,
    D: int,
    precision_bits: int = 200,
) -> RecognizedAlgebraic:
    """Exact point of E over Q(sqrt(D)) behind two complex-conjugate
    numerical points [(x1, y1), (x2, y2)], returned in the embedding that
    sends sqrt(D) to the principal root and (x, y) to (x1, y1).  Accepted
    only when the exact point satisfies the curve equation."""
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be positive")
    bound = denominator_bound * denominator_bound
    with mp.workprec(precision_bits + 20):
        (x1, y1), (x2, y2) = [(mp.mpc(x), mp.mpc(y)) for x, y in points]
        # symmetric functions are rational; recover x, y in Q(sqrt(D))
        sx, esx = _round_rational(x1 + x2, bound)
        px, epx = _round_rational(x1 * x2, bound)
        sy, esy = _round_rational(y1 + y2, bound)
        py, epy = _round_rational(y1 * y2, bound)
        residual = esx + epx + esy + epy
        # genuine algebraic inputs round to machine accuracy; a merely-small
        # residual (~bound^-4) signals a spurious continued-fraction hit
        strict = mp.mpf(2) ** (-(mp.prec // 2)) * (1 + abs(x1) + abs(y1)) ** 2
        if residual > max(strict, mp.mpf(2) ** (-(mp.prec - 30))):
            raise RecognitionFailed(f"residual {mp.nstr(residual, 5)} too large")
        # x = sx/2 + (bx/2) sqrt(D) with bx = sqrt(disc_x / D); QuadElt.make
        # reduces D = f^2 d0 to its squarefree kernel d0
        disc_x = sx * sx - 4 * px
        if disc_x == 0:
            raise RecognitionFailed("conjugate x-values coincide; not quadratic")
        bx = _frac_sqrt(disc_x / D)
        if bx is None:
            raise RecognitionFailed(f"x is not in Q(sqrt({D}))")
        xq = QuadElt.make(sx / 2, bx / 2, D)
        disc_y = sy * sy - 4 * py
        cy = _frac_sqrt(disc_y / D)
        if cy is None:
            raise RecognitionFailed(f"y is not in Q(sqrt({D}))")
        yq = QuadElt.make(sy / 2, cy / 2, D)
        # fix relative signs so (x1, y1) is one common embedding of (xq, yq)
        xq, yq, emb_err = _match_embedding(xq, yq, x1, y1)
        residual += emb_err
    if residual > _RESIDUAL_CAP:
        raise RecognitionFailed("no sign choice matches the numerical conjugates")
    lhs = yq * yq + E.a1 * xq * yq + E.a3 * yq
    rhs = xq * xq * xq + E.a2 * xq * xq + E.a4 * xq + E.a6
    if lhs != rhs:
        raise RecognitionFailed("quadratic point misses the curve equation")
    return RecognizedAlgebraic(kind="quadratic", value=(xq, yq), residual=residual)


def recognize_trace(
    tr: TracePoint, E: CurveModel, precision_bits: int
) -> RecognizedAlgebraic:
    """Exact point behind a trace point that is not the identity, with
    denominator bound 10^6: over Q when the trace is real (recognize),
    otherwise over Q(sqrt(D)) from the trace and its complex conjugate
    (recognize_quadratic)."""
    if tr.is_identity:
        raise ValueError("the identity has no affine coordinates")
    if tr.is_real:
        return recognize([tr.xy], 10**6, E, precision_bits=precision_bits)
    x, y = tr.xy
    with mp.workprec(precision_bits + 20):
        conj = (mp.conj(x), mp.conj(y))
    return recognize_quadratic(
        [(x, y), conj], 10**6, E, tr.discriminant, precision_bits=precision_bits
    )


def _frac_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    n = _isqrt_exact(f.numerator)
    d = _isqrt_exact(f.denominator)
    if n is None or d is None:
        return None
    return Fraction(n, d)


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def _match_embedding(xq, yq, x1, y1):
    prec = mp.prec
    best = None
    for sx in (1, -1):
        for sy in (1, -1):
            xc = _flip(xq, sx)
            yc = _flip(yq, sy)
            err = abs(embed(xc, prec) - x1) + abs(embed(yc, prec) - y1)
            if best is None or err < best[2]:
                best = (xc, yc, err)
    return best


def _flip(v, sign):
    if sign == 1 or isinstance(v, Fraction):
        return v
    return v.conjugate()


def recognize_minpoly(
    values, denominator_bound: int, precision_bits: int = 200
) -> RecognizedAlgebraic:
    """Primitive integer minimal polynomial, leading coefficient first,
    whose roots are the numerical conjugates in values.  Accepted only when
    every conjugate is a root to within 2^-20."""
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be positive")
    with mp.workprec(precision_bits + 20):
        xs = [mp.mpc(v) for v in values]
    # expand prod (X - x_i), round coefficients, clear denominators
    with mp.workprec(precision_bits + 40):
        coeffs = [mp.mpc(1)]
        for x in xs:
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] -= c * x
            coeffs = nxt
        fracs = []
        residual = mp.mpf(0)
        for c in coeffs:
            r, err = _round_rational(c, denominator_bound)
            residual += err + abs(mp.im(c))
            fracs.append(r)
        if residual > _RESIDUAL_CAP:
            raise RecognitionFailed(f"residual {mp.nstr(residual, 5)} too large")
        lcm = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * lcm) for f in fracs]
        g = math.gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        if ints[0] < 0:
            ints = [-v for v in ints]
        # confirm every conjugate is a root of the cleared polynomial
        worst = mp.mpf(0)
        scale = max(abs(v) for v in ints)
        for x in xs:
            val = mp.mpc(0)
            for c in ints:
                val = val * x + c
            worst = max(worst, abs(val) / scale)
        if worst > _RESIDUAL_CAP:
            raise RecognitionFailed(
                f"conjugates are not roots (residual {mp.nstr(worst, 5)})"
            )
        return RecognizedAlgebraic(
            kind="minpoly", value=tuple(ints), residual=max(residual, worst)
        )
