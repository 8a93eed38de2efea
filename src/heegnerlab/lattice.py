"""Period lattices and the Weierstrass uniformization C/Lambda -> E(C).

Periods of every curve come from the real AGM, for either sign of the
discriminant.  p and p' are Jacobi theta quotients (DLMF 23.6) on a
Gauss-reduced basis, the four thetas summed in one integer pass (_thetas);
the q-series they replaced and mpmath's jtheta are test oracles in
tests/test_lattice.py.  The elliptic logarithm is Carlson's closed form
z = R_F(x - e1, x - e2, x - e3), with the e_i that periods found once for
the lattice by certified Newton steps (_two_division; mpmath's polyroots
is their test oracle), itself certified against p and p' at working
precision; it raises rather than return an uncertified value.  Precision
is chosen once, at periods: p, the Weierstrass map, the elliptic logarithm
and every Lattice method work at precision_bits + 20 or more, whatever the
ambient mp.prec.  The lattice owns the integer torus (torus, point, near,
the relation search's line screen torsion_on_line) and conjugation on it
(conjugate).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property, lru_cache

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from .arith import _Record
from .ellcurve import CurveModel, CurvePoint, QuadElt
from .errors import IdentityPoint, PrecisionUnachievable

PRECISION_BITS = range(53, 1001)  # the precisions periods admits


class Lattice(_Record):
    omega1: mpc
    omega2: mpc
    precision_bits: int
    two_division: tuple[mpc, ...] = ()  # e1, e2, e3, kept by periods

    @cached_property
    def reduced_basis(self) -> tuple[mpc, mpc]:
        """Gauss-reduced basis (w1, w2) with Im(w2/w1) > 0 and |w2/w1|
        in the usual fundamental domain: theta_constants and the
        theta-quotient p of weierstrass_p work on it.  It keeps the 40
        guard bits that periods computes."""
        with mp.workprec(self.precision_bits + 40):
            w1, w2 = self.omega1, self.omega2
            if abs(w2) < abs(w1):
                w1, w2 = w2, w1
            while True:
                n = mp.nint(mp.re(w2 / w1))
                w2 = w2 - n * w1
                if abs(w2) < abs(w1):
                    w1, w2 = w2, w1
                else:
                    break
            if mp.im(w2 / w1) < 0:
                w2 = -w2
            return (w1, w2)

    @cached_property
    def theta_constants(self) -> tuple[mpc, mpc, mpc, mpc, mpc, mpc]:
        """(tau, q, pi/w1, (th2^4 + 2 th4^4)/3, th3 th4, (th2 th3 th4)^2):
        the z-independent part of weierstrass_p, thj = thj(0, q) by _thetas,
        with reduced_basis's guard bits."""
        w1, w2 = self.reduced_basis
        with mp.workprec(self.precision_bits + 40):
            tau = w2 / w1
            q = mp.expjpi(tau)
            _, th2, th3, th4 = _thetas(mpc(0), q, self.precision_bits + 50)
            return (tau, q, mp.pi / w1, (th2**4 + 2 * th4**4) / 3,
                    th3 * th4, (th2 * th3 * th4) ** 2)

    @property
    def torus_bits(self) -> int:
        """K = precision_bits + 20, the fraction bits of torus and point."""
        return self.precision_bits + 20

    def coordinates(self, z: mpc) -> tuple[mpf, mpf]:
        """Real coordinates (s, t) with z = s*omega1 + t*omega2."""
        with mp.workprec(self.torus_bits):
            return _coordinates(z, self.omega1, self.omega2)

    def torus(self, z: mpc) -> tuple[int, int]:
        """round((s, t) 2^K), K = torus_bits, for z's coordinates (s, t); z
        need not be reduced: point and near read the pair mod 2^K only."""
        K = self.torus_bits
        with mp.workprec(K):
            return tuple(int(mp.nint(mp.ldexp(c, K)))
                         for c in self.coordinates(z))

    def point(self, A: int, B: int) -> mpc:
        """z with torus coordinates (A, B) mod 2^K, each in [-d, 2^K - d),
        d = 2^30 units = 2^-(precision_bits - 10): rounding noise at an edge
        of the parallelogram lands z near 0, never near a period."""
        K, d = self.torus_bits, 1 << 30
        with mp.workprec(K):
            return (mp.ldexp((A + d) % (1 << K) - d, -K) * self.omega1
                    + mp.ldexp((B + d) % (1 << K) - d, -K) * self.omega2)

    def orbit_torus(self, values) -> tuple[tuple[int, int], ...]:
        """torus(z) of each orbit value z; PrecisionUnachievable unless each
        raw coordinate is below 2, near's premise for orbit_degree."""
        coords = tuple(map(self.torus, values))
        if max(map(abs, sum(coords, ()))) >> (self.torus_bits + 1):
            raise PrecisionUnachievable("an orbit value lies two periods out")
        return coords

    def reduce(self, z: mpc) -> mpc:
        """Representative of z mod Lambda: point(*torus(z))."""
        return self.point(*self.torus(z))

    def conjugate(self, A: int, B: int, eps: int = 1,
                  shift: tuple = (0, 0)) -> tuple[int, int]:
        """Torus coordinates eps (A + c B, -B) + round(shift 2^K) of eps
        conj(z) + w, z at (A, B), w at the exact lattice coordinates shift:
        periods gives w1 real and conj(w2) = c w1 - w2, c = round(2
        Re(w2/w1)).  Exact but for half a unit per coordinate of shift."""
        K = self.torus_bits
        with mp.workprec(K):
            c = int(mp.nint(2 * mp.re(self.omega2 / self.omega1)))
        return tuple(eps * u + round(x * (1 << K))
                     for u, x in zip((A + c * B, -B), shift))

    @cached_property
    def _metric(self) -> tuple[int, int, int, int]:
        # near's G_ij and slack-0 bail-out bound, once both premises hold
        K, h = self.torus_bits, self.precision_bits // 2
        with mp.workprec(K + 20):
            w1, w2 = mpc(self.omega1), mpc(self.omega2)
            scale2 = max(abs(w1), abs(w2)) ** 2
            det = abs(mp.im(mp.conj(w1) * w2))
            if det < scale2 / 256:
                raise PrecisionUnachievable(
                    "det / scale^2 below 2^-8: no integer lattice test")
            if scale2 <= mp.ldexp(1, 2 * (12 + h - self.precision_bits)):
                raise PrecisionUnachievable(
                    "scale below 2^(12 + h - prec): no margin for near")
            return (*(int(mp.nint(mp.ldexp(mp.re(mp.conj(u) * v) / scale2, K)))
                      for u, v in ((w1, w1), (w1, w2), (w2, w2))),
                    int(mp.ceil(mp.ldexp(scale2 / det, K - h))) + 1)

    def near_bound(self, slack: int = 0) -> int:
        """near's bail-out bound on both centred coordinates, in 2^-K
        units: ceil(2^(K - h) scale^2 / det) + 1, times 2^slack."""
        return self._metric[3] << slack

    def torsion_on_line(self, a: int, b: int, da: int, db: int, count: int,
                        limit: int) -> Iterator[tuple[int, list[int]]]:
        """Yields (k, ts), k ascending, for the points (a', b') = (a + k da,
        b + k db), 0 <= k < count, whose ts is not empty: the t <= limit with
        both centred coordinates of t (a', b') mod 2^K at most sigma =
        near_bound(), outside which near(t a', t b') bails out.  A bisect
        screens x = a' & mask first: x must lie within sigma + 1 of a key
        floor(j 2^K / t), t <= limit, 0 <= j <= t.  This drops no point with
        a t: |t x - j 2^K| <= sigma for the j in 0..t nearest t x / 2^K, so
        |x - j 2^K / t| <= sigma / t."""
        K = self.torus_bits
        sigma, mask = self.near_bound(), (1 << K) - 1
        keys, x = _farey_keys(K, limit), a & mask
        for k in range(count):
            i = bisect_right(keys, x)  # keys[0] = 0 <= x < keys[-1] = 2^K
            if min(keys[i] - x, x - keys[i - 1]) <= sigma + 1:
                ts = [t for t in range(1, limit + 1)
                      if ((t * x + sigma) & mask) <= 2 * sigma
                      and ((t * (b + k * db) + sigma) & mask) <= 2 * sigma]
                if ts:
                    yield k, ts
            x = (x + da) & mask

    def near(self, a: int, b: int, slack: int = 0) -> bool:
        """Whether z = (a w1 + b w2) 2^-K, K = torus_bits, lies within R =
        2^(slack - h) scale of L, h = precision_bits // 2, scale = max(|w1|,
        |w2|): the one membership rule of orbit_degree, trace_point and
        relation_search, decided in integers on the lattice metric.

        It needs det = |Im(conj(w1) w2)| >= 2^-8 scale^2 (0.82 scale^2 on
        37a, 1 on 32a, 0.66 on 49a), else raises PrecisionUnachievable.  By
        Cramer's rule w = s w1 + t w2 has |s|, |t| <= |w| scale / det.  So a
        lattice point within R of z is the centred representative (da, db)
        of (a, b) mod 2^K, both coordinates below near_bound(slack) < 2^(K -
        h + 9 + slack) << 2^(K-1) units, as h >= 26.  The test bails out at
        that bound, else compares |w|^2 with R^2 in integers: G11 da^2 + 2
        G12 da db + G22 db^2 < 2^(3K - 2h + 2 slack), rounding the G_ij
        moving the left side by a relative 2^-(K-18) at most.  A nonzero v =
        m w1 + n w2, n != 0 say, has |w1| |v| >= |n| det, so lambda_1 >= det
        / scale >= 2^-8 scale and, at slack 0, the next-nearest lattice
        point is at least 2^-8 scale - R >= 2^10 R away.

        Margin for orbit_degree, given scale > 2^(12 + h - prec) (about 3 on
        the bundled curves; else raises as well): eval_phi errs below eta =
        2^-(prec+3), and torus adds under 2^(5-K) scale for coordinates below
        2 (orbit_torus checks this; below 0.8 for every |D| < 400 on the
        bundled curves).  So n (A, B) of two points of one class, n <= 12,
        differ or sum within 24 (eta + 2^(5-K) scale) < 2^(2-prec) +
        2^-(prec+10) scale of L, below 2^-9 R.
        """
        K, h = self.torus_bits, self.precision_bits // 2
        g11, g12, g22, _ = self._metric
        bound = self.near_bound(slack)
        half, mask = 1 << (K - 1), (1 << K) - 1
        da, db = ((a + half) & mask) - half, ((b + half) & mask) - half
        if abs(da) >= bound or abs(db) >= bound:
            return False
        return (g11 * da * da + 2 * g12 * da * db + g22 * db * db
                < 1 << (3 * K - 2 * h + 2 * slack))

    def distance(self, z: mpc) -> mpf:
        """Distance from z to the nearest lattice point."""
        return self.nearest_distances(z)[0]

    def nearest_distances(self, z: mpc) -> tuple[mpf, mpf]:
        """(nearest, second-nearest) distances from z to lattice points."""
        s, t = self.coordinates(z)
        s0, t0 = mp.nint(s), mp.nint(t)
        dists = []
        with mp.workprec(self.torus_bits):
            for ds in (-1, 0, 1):
                for dt in (-1, 0, 1):
                    w = z - (s0 + ds) * self.omega1 - (t0 + dt) * self.omega2
                    dists.append(abs(w))
        return tuple(sorted(dists)[:2])


def _coordinates(z: mpc, w1: mpc, w2: mpc) -> tuple[mpf, mpf]:
    x1, y1, x2, y2 = mp.re(w1), mp.im(w1), mp.re(w2), mp.im(w2)
    det = x1 * y2 - x2 * y1
    return ((mp.re(z) * y2 - mp.im(z) * x2) / det,
            (x1 * mp.im(z) - y1 * mp.re(z)) / det)


@lru_cache(maxsize=8)
def _farey_keys(K: int, limit: int) -> list[int]:
    # floor(j 2^K / t), 1 <= t <= limit, 0 <= j <= t, sorted and distinct
    return sorted({(j << K) // t for t in range(1, limit + 1)
                   for j in range(t + 1)})


def periods(E: CurveModel, precision_bits: int) -> Lattice:
    """Lattice of the invariant differential dx / (2y + a1 x + a3), by the AGM
    (Cohen, GTM 138, Alg. 7.4.7).

    Three real 2-division values e1 > e2 > e3 (disc > 0): a real and a purely
    imaginary period.  One real value e1 (disc < 0): with
    beta = |e1 - e2| = sqrt(3 e1^2 - g2/4), the real period
    w1 = 2 pi / AGM(2 sqrt(beta), sqrt(2 beta + 3 e1)) and
    w2 = w1/2 + i pi / AGM(2 sqrt(beta), sqrt(2 beta - 3 e1)).
    Either way Im(w2/w1) > 0, and the Lattice keeps e1, e2, e3, the roots
    of 4t^3 - c4/12 t - c6/216, for elliptic_log.  _two_division finds them
    at precision_bits + 40 by Newton's method on integers from low-precision
    seeds, each certified within 3 |f/f'| of a root, the three discs
    disjoint, else PrecisionUnachievable.  Calls on one (c4, c6) and
    precision share one Lattice, and with it its reduced basis and theta
    constants.
    """
    lo, hi = PRECISION_BITS[0], PRECISION_BITS[-1]
    if not lo <= precision_bits <= hi:
        raise PrecisionUnachievable(f"precision_bits must be in {lo}..{hi}")
    return _agm_lattice(*E.c_invariants, precision_bits)


@lru_cache(maxsize=16)
def _agm_lattice(c4: int, c6: int, precision_bits: int) -> Lattice:
    work = precision_bits + 40
    with mp.workprec(work):
        g2 = mpf(c4) / 12
        roots = _two_division(c4, c6, work)
        if c4**3 > c6**2:  # 1728 disc = c4^3 - c6^2
            roots = e1, e2, e3 = sorted(map(mp.re, roots), reverse=True)
            w1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            w2 = mp.mpc(0, 1) * mp.pi / mp.agm(
                mp.sqrt(e1 - e3), mp.sqrt(e2 - e3)
            )
        else:
            e1 = mp.re(min(roots, key=lambda r: abs(mp.im(r))))
            beta = mp.sqrt(3 * e1 * e1 - g2 / 4)
            w1 = 2 * mp.pi / mp.agm(2 * mp.sqrt(beta), mp.sqrt(2 * beta + 3 * e1))
            w2 = w1 / 2 + mp.mpc(0, 1) * mp.pi / mp.agm(
                2 * mp.sqrt(beta), mp.sqrt(2 * beta - 3 * e1)
            )
        return Lattice(+w1, +w2, precision_bits, tuple(roots))


def _cubic_seeds(c4: int, c6: int) -> tuple[int, list]:
    """(s, seeds) at s = 64 + L bits, L the bits that cancel in 1728 Delta =
    c4^3 - c6^2, for the roots of t^3 + p t + q = f(t)/4, p = -c4/48, q =
    -c6/864: the L bits keep about 64 bits of the distance of two close
    roots.  If 1728 Delta > 0, e1 > e2 > e3 by Viete's cosines m cos(a - 2
    pi k/3), cos 3a = 3q/(pm), m = 2 sqrt(-p/3), the angle a float (mpmath's
    acos costs a millisecond on its first call) unless L > 20, where a float
    would keep fewer than 33 of those bits.  Else e1 = C - p/(3C), C^3 =
    -q/2 -+ sqrt(q^2/4 + p^3/27) of the larger modulus, and e2 = -e1/2 - i
    sqrt(3 e1^2/4 + p), as the roots sum to 0."""
    disc = c4**3 - c6 * c6
    s = 64 + max(0, max(abs(c4**3), c6 * c6).bit_length()
                 - abs(disc).bit_length())
    with mp.workprec(s):
        p, q = mpf(-c4) / 48, mpf(-c6) / 864
        if disc > 0:
            trig, m = math if s <= 84 else mp, 2 * mp.sqrt(-p / 3)
            a = trig.acos(min(1, max(-1, 3 * q / (p * m)))) / 3
            return s, [m * trig.cos(a - 2 * trig.pi * k / 3) for k in range(3)]
        u = abs(q) / 2 + mp.sqrt(q * q / 4 + p**3 / 27)
        C = mp.cbrt(u) if q < 0 else -mp.cbrt(u)
        e1 = C - p / (3 * C)
        return s, [e1, mpc(-e1 / 2, -mp.sqrt(max(0, 3 * e1 * e1 / 4 + p)))]


def _two_division(c4: int, c6: int, work: int) -> tuple:
    """The roots of f(t) = 4t^3 - g2 t - g3, g2 = c4/12, g3 = c6/216, at work
    bits: e1 > e2 > e3 if 1728 Delta > 0, else the real e1, e2 with Im e2 <
    0, and conj(e2).  Newton's method takes each seed of _cubic_seeds to W
    = work + 24 bits by one step at each of ..., W/4 + 8, W/2 + 8 not below
    s, so that each step's precision keeps pace with the correct bits it
    doubles, then by steps at W.  It runs on Gaussian integers a + ib = x
    2^m at n bits, m = n - E, 2^E >= max(sqrt|c4|, cbrt|c6|): the largest
    root lies in [2^(E-5), 2^E], as the roots have sum of squares g2/2 and
    product g3/4.  Certificate, exact at W bits: a polynomial of degree n
    has a root within n |f(x)/f'(x)| of any x, since f'/f = sum 1/(x -
    e_i).  Each radius 3 |f/f'|(x_i), at most isqrt(floor(9 |F|^2/|F'|^2))
    + 1 units of 2^-m, must be below 2^(E - work - 8) and the three discs
    pairwise disjoint, so that each holds one root.  It is checked before
    each step at W, at most six times, else PrecisionUnachievable.
    Rounding to work bits moves a root by at most 2^-work |e_i| more."""
    s, seeds = _cubic_seeds(c4, c6)
    E = max((c4.bit_length() + 1) // 2, (c6.bit_length() + 2) // 3)
    levels, W = [work + 24], work + 24
    while levels[-1] // 2 + 8 >= s:
        levels.append(levels[-1] // 2 + 8)
    m = levels[-1] - E
    with mp.workprec(s):
        zs = [(int(mp.ldexp(mp.re(x), m)), int(mp.ldexp(mp.im(x), m)))
              for x in seeds]
    for n in levels[:0:-1] + [W] * 6:
        zs, m = [(a << n - E - m, b << n - E - m) for a, b in zs], n - E
        roots, S = zs + [(a, -b) for a, b in zs if b], 1 << 2 * m
        # F = 216 f = 864 t^3 - 18 c4 t - c6 at t = (a + ib) 2^-m: Re and Im
        # of F(t) 2^(3m) and F'(t) 2^(2m), whose quotient is F/F' in 2^-m
        F = [(864 * (a**3 - 3 * a * b * b) - 18 * c4 * a * S - (c6 << 3 * m),
              864 * (3 * a * a * b - b**3) - 18 * c4 * b * S,
              2592 * (a * a - b * b) - 18 * c4 * S, 5184 * a * b)
             for a, b in roots]
        N = [p * p + q * q for _, _, p, q in F]
        if n == W and all(N):
            r = [math.isqrt(9 * (u * u + v * v) // k) + 1
                 for (u, v, _, _), k in zip(F, N)]
            if max(r) < 1 << W - work - 8 and all(
                    (roots[i][0] - roots[j][0]) ** 2
                    + (roots[i][1] - roots[j][1]) ** 2 > (r[i] + r[j]) ** 2
                    for i, j in ((0, 1), (0, 2), (1, 2))):
                with mp.workprec(work):
                    return tuple(mpc(mpf((a, -m)), mpf((b, -m))) if b
                                 else mpf((a, -m)) for a, b in roots)
        zs = [(a - (u * p + v * q) // (k or 1), b - (v * p - u * q) // (k or 1))
              for (a, b), (u, v, p, q), k in zip(zs, F, N)]  # F' = 0: stays
    raise PrecisionUnachievable("Newton's method left a root uncertified")


def _thetas(v: mpc, q: mpc, p: int) -> tuple[mpc, mpc, mpc, mpc]:
    """(th1, th2, th3, th4)(v, q) within 2^-p, th1 within 2^-p |th1| if |v|
    <= 1/2, unrounded; q = e^(i pi tau), tau reduced, v = pi (s + t tau),
    |s|, |t| <= 1/2.  c_m = q^(m^2/4) e^(imv) sums to th3, th4 over even m
    and to th2, -i th1 over odd m (DLMF 20.2; th4 and th1 take sign - at m =
    2, 3 mod 4).  On W-bit integers c_(m+1) = c_m r_m, r_(m+1) = r_m q^(1/2),
    from c_0 = 1 and r_0 = q^(1/4) e^(iv), or e^(-iv) for m < 0.  With x =
    pi Im tau / 4 >= 0.68, |Im v| <= 2x and e^x <= 2^G: |c_m|, |r_0| <= 2^G,
    |r_m| < 0.51 for m != 0, |q^(1/2)| < 0.26.  Then W = P + 2G + 6 +
    bitlen(N), P = p + Z, from three terms:
    - th1 near 0: |th1(v)| >= e^-x |v| for |v| <= 1/2 (DLMF 20.5.1), so Z =
      G + max(0, 2 - mag(v)) (jtheta adds 2 |mag(v)|); weierstrass_p raises
      IdentityPoint below |v| = 2^-(prec/2);
    - truncation at |m| <= N, the least N >= 2 with x (N+1)^2 - (N+1) |Im v|
      >= (P + 3) ln 2: terms fall by 1/25 beyond, the tails below 2^-(P+1);
    - rounding: r_0, q^(1/2) err below 2 units, each floored product below
      sqrt(2), so r_m below 2^(G+2), c_m below 2^(2G+4) by induction, and the
      2N terms below 2^(W-P-1)."""
    x, y = -float(mp.log(abs(q))) / 4, abs(float(mp.im(v)))
    G = math.ceil(x / math.log(2))
    P = p + (G + max(0, 2 - mp.mag(v)) if v else 0)
    N = max(2, math.ceil((y + math.sqrt(y * y + 4 * x * (P + 3) * math.log(2)))
                         / (2 * x)) - 1)
    W = P + 2 * G + 6 + N.bit_length()
    with mp.workprec(W + 10):
        a, e = mp.root(q, 4), mp.expj(v)
        (hr, hi), *ratios = [(int(mp.ldexp(mp.re(u), W)),
                              int(mp.ldexp(mp.im(u), W)))
                             for u in (a * a, a * e, a / e)]
    sr, si = [1 << W, 0, 0, 0], [0] * 4  # sums by m mod 4, c_0 = 1
    for step, (rr, ri) in zip((1, -1), ratios):
        cr, ci = 1 << W, 0
        for m in range(step, step * (N + 1), step):
            cr, ci = (cr * rr - ci * ri) >> W, (cr * ri + ci * rr) >> W
            rr, ri = (rr * hr - ri * hi) >> W, (rr * hi + ri * hr) >> W
            sr[m % 4] += cr
            si[m % 4] += ci
    (r0, r1, r2, r3), (i0, i1, i2, i3) = sr, si
    return tuple(mp.make_mpc((from_man_exp(re, -W), from_man_exp(im, -W)))
                 for re, im in ((i1 - i3, r3 - r1), (r1 + r3, i1 + i3),
                                (r0 + r2, i0 + i2), (r0 - r2, i0 - i2)))


def weierstrass_p(z: mpc, L: Lattice) -> tuple[mpc, mpc]:
    """(p(z), p'(z)) at working precision prec = L.precision_bits + 20
    (DLMF 23.6.2, 23.6.5): on the reduced basis (w1, w2), tau = w2/w1,
    nome q = e^(i pi tau), thj = thj(0, q), and v = pi z / w1 with z
    reduced to |s|, |t| <= 1/2,

      p(z)  = (pi/w1)^2 [(th2^4 + 2 th4^4)/3 + (th3 th4 th2(v) / th1(v))^2]
      p'(z) = -2 (pi/w1)^3 (th2 th3 th4)^2 th2(v) th3(v) th4(v) / th1(v)^3.

    _thetas sums the four thj(v) in one integer pass to 2^-(prec+10), th1
    to that relative error as well: the bits it loses near v = 0 are added.
    """
    prec = L.precision_bits + 20
    with mp.workprec(prec):
        tau, q, c, p0, t34, t234 = L.theta_constants
        s, t = _coordinates(z, *L.reduced_basis)
        v = mp.pi * (s - mp.nint(s) + (t - mp.nint(t)) * tau)
        # |e^(2iv) - 1| = 2|v| to first order
        if 2 * abs(v) < mp.mpf(2) ** (-prec // 2):
            raise IdentityPoint("z is a lattice point to working precision")
        th1, th2, th3, th4 = _thetas(v, q, prec + 10)
        p = c**2 * (p0 + (t34 * th2 / th1) ** 2)
        dp = -2 * c**3 * t234 * th2 * th3 * th4 / th1**3
        return (p, dp)


def weierstrass_map(z: mpc, E: CurveModel, L: Lattice) -> tuple[mpc, mpc]:
    """Complex point (x, y) on E corresponding to z mod Lambda."""
    with mp.workprec(L.precision_bits + 20):
        p, dp = weierstrass_p(z, L)
        b2 = E.b_invariants[0]
        x = p - mpf(b2) / 12
        y = (dp - E.a1 * x - E.a3) / 2
        return (x, y)


def embed(value, prec: int) -> mpc:
    """Fixed complex embedding of an exact coordinate: sqrt(d) maps to the
    principal square root (positive imaginary part for d < 0)."""
    with mp.workprec(prec):
        if isinstance(value, QuadElt):
            sq = mp.sqrt(mpc(value.d))
            return mpc(
                mpf(value.x.numerator) / value.x.denominator
            ) + mpc(mpf(value.y.numerator) / value.y.denominator) * sq
        if isinstance(value, Fraction):
            return mpc(mpf(value.numerator) / value.denominator)
        return mpc(value)


def elliptic_log(P: CurvePoint, E: CurveModel, L: Lattice) -> mpc:
    """z reduced mod L with weierstrass_map(z) = P; the coordinates of P
    may be exact or complex numbers.

    Carlson's inverse of p (DLMF 19.25.35): z = R_F(xw - e1, xw - e2, xw - e3)
    with xw = x + b2/12 satisfies p(z) = xw.  One evaluation of p' fixes the
    sign against yw = 2y + a1 x + a3 and certifies both coordinates.  Near a
    half period p' vanishes, so xw fixes z only to half precision; there one
    Newton step on p'(z) = yw, with p'' = 6p^2 - g2/2 nonzero, restores it
    and is certified in turn.  A point that fails raises PrecisionUnachievable.
    The e_i are L.two_division; a Lattice built without them raises ValueError.
    """
    if P.is_infinity:
        raise ValueError("elliptic log of the identity is the lattice itself")
    if not L.two_division:
        raise ValueError("elliptic_log needs the 2-division values of periods")
    prec = L.precision_bits
    b2 = E.b_invariants[0]
    with mp.workprec(prec + 20):
        x, y = embed(P.x, prec + 20), embed(P.y, prec + 20)
        xw = x + mpf(b2) / 12
        yw = 2 * y + E.a1 * x + E.a3
        tol = mp.mpf(2) ** (-(prec - 20)) * (1 + abs(xw))
        z = mp.elliprf(*(xw - e for e in L.two_division))
        p, dp = weierstrass_p(z, L)
        if abs(dp - yw) > abs(-dp - yw):
            z, dp = -z, -dp
        if abs(dp - yw) > tol:
            z += (yw - dp) / (6 * p * p - mpf(E.c_invariants[0]) / 24)
            p, dp = weierstrass_p(z, L)
        if abs(p - xw) > tol or abs(dp - yw) > tol:
            raise PrecisionUnachievable(
                "elliptic logarithm misses the point at working precision"
            )
        return L.reduce(z)
