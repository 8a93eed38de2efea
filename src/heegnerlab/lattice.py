"""Period lattices and the Weierstrass uniformization C/Lambda -> E(C).

Periods of every curve come from the real AGM, for either sign of the
discriminant.  p and p' are Jacobi theta quotients (DLMF 23.6) on a
Gauss-reduced basis; the q-series they replaced is the test oracle in
tests/test_lattice.py.  The elliptic logarithm is Carlson's closed form
z = R_F(x - e1, x - e2, x - e3), with the e_i that periods solved once for
the lattice, certified against p and p' at working precision; it raises
rather than return an uncertified value.  Precision is chosen once, at
periods: p, the Weierstrass map, the elliptic logarithm and every Lattice
method work at precision_bits + 20 or more, whatever the ambient mp.prec.
The lattice owns the integer torus (torus, point, near) and complex
conjugation on it (conjugate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from mpmath import mp, mpc, mpf

from .ellcurve import CurveModel, CurvePoint, QuadElt
from .errors import IdentityPoint, PrecisionUnachievable

PRECISION_BITS = range(53, 1001)  # the precisions periods admits


@dataclass(frozen=True)
class Lattice:
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
        the z-independent part of weierstrass_p, with reduced_basis's
        guard bits."""
        w1, w2 = self.reduced_basis
        with mp.workprec(self.precision_bits + 40):
            tau = w2 / w1
            q = mp.expjpi(tau)
            th2, th3, th4 = (mp.jtheta(n, 0, q) for n in (2, 3, 4))
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

    def reduce(self, z: mpc) -> mpc:
        """Representative of z mod Lambda: point(*torus(z))."""
        return self.point(*self.torus(z))

    def conjugate(self, A: int, B: int) -> tuple[int, int]:
        """Torus coordinates (A + c B, -B) of conj(z), z at (A, B): periods
        gives w1 real and conj(w2) = c w1 - w2, c = round(2 Re(w2/w1))."""
        with mp.workprec(self.torus_bits):
            c = int(mp.nint(2 * mp.re(self.omega2 / self.omega1)))
        return A + c * B, -B

    @cached_property
    def _metric(self) -> tuple[int, int, int, int]:
        # near's G_ij and slack-0 bail-out bound, once the precondition holds
        K, h = self.torus_bits, self.precision_bits // 2
        with mp.workprec(K + 20):
            w1, w2 = mpc(self.omega1), mpc(self.omega2)
            scale2 = max(abs(w1), abs(w2)) ** 2
            det = abs(mp.im(mp.conj(w1) * w2))
            if det < scale2 / 256:
                raise PrecisionUnachievable(
                    "det / scale^2 below 2^-8: no integer lattice test")
            return (*(int(mp.nint(mp.ldexp(mp.re(mp.conj(u) * v) / scale2, K)))
                      for u, v in ((w1, w1), (w1, w2), (w2, w2))),
                    int(mp.ceil(mp.ldexp(scale2 / det, K - h))) + 1)

    def near_bound(self, slack: int = 0) -> int:
        """near's bail-out bound on both centred coordinates, in 2^-K
        units: ceil(2^(K - h) scale^2 / det) + 1, times 2^slack."""
        return self._metric[3] << slack

    def torsion_candidates(self, a: int, b: int, limit: int) -> list[int]:
        """The t in 1..limit, ascending, with both centred coordinates of t
        (a, b) mod 2^K at most sigma = near_bound(): near(t a, t b) bails
        out unless both are below sigma, so it holds for no other t."""
        sigma, mask = self.near_bound(), (1 << self.torus_bits) - 1
        return [t for t in range(1, limit + 1)
                if ((t * a + sigma) & mask) <= 2 * sigma
                and ((t * b + sigma) & mask) <= 2 * sigma]

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

        Margin for orbit_degree, on the unchecked premise scale > 2^(12 + h -
        prec) (about 3 on the bundled curves): eval_phi errs below eta =
        2^-(prec+3), and torus adds under 2^(5-K) scale for coordinates below
        2 (below 0.8 for every |D| < 400 on the bundled curves).  So n (A, B)
        of two points of one class, n <= 12, differ or sum within 24 (eta +
        2^(5-K) scale) < 2^(2-prec) + 2^-(prec+10) scale of L, below 2^-9 R.
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


def periods(E: CurveModel, precision_bits: int) -> Lattice:
    """Lattice of the invariant differential dx / (2y + a1 x + a3), by the AGM
    (Cohen, GTM 138, Alg. 7.4.7).

    Three real 2-division values e1 > e2 > e3 (disc > 0): a real and a purely
    imaginary period.  One real value e1 (disc < 0): with
    beta = |e1 - e2| = sqrt(3 e1^2 - g2/4), the real period
    w1 = 2 pi / AGM(2 sqrt(beta), sqrt(2 beta + 3 e1)) and
    w2 = w1/2 + i pi / AGM(2 sqrt(beta), sqrt(2 beta - 3 e1)).
    Either way Im(w2/w1) > 0, and the Lattice keeps e1, e2, e3, the roots
    of 4t^3 - c4/12 t - c6/216, for elliptic_log.  Calls on one (c4, c6) and
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
        roots = mp.polyroots([4, 0, -g2, -mpf(c6) / 216],
                             extraprec=work // 2 + 40)
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


def weierstrass_p(z: mpc, L: Lattice) -> tuple[mpc, mpc]:
    """(p(z), p'(z)) at working precision prec = L.precision_bits + 20
    (DLMF 23.6.2, 23.6.5): on the reduced basis (w1, w2), tau = w2/w1,
    nome q = e^(i pi tau), thj = thj(0, q), and v = pi z / w1 with z
    reduced to |s|, |t| <= 1/2,

      p(z)  = (pi/w1)^2 [(th2^4 + 2 th4^4)/3 + (th3 th4 th2(v) / th1(v))^2]
      p'(z) = -2 (pi/w1)^3 (th2 th3 th4)^2 th2(v) th3(v) th4(v) / th1(v)^3.

    mpmath's jtheta sums the thj(v) in fixed point, in q^(n^2) with
    |q| <= e^(-pi sqrt(3)/2), and adds the bits th1(v) loses near v = 0.
    """
    prec = L.precision_bits + 20
    with mp.workprec(prec):
        tau, q, c, p0, t34, t234 = L.theta_constants
        s, t = _coordinates(z, *L.reduced_basis)
        v = mp.pi * (s - mp.nint(s) + (t - mp.nint(t)) * tau)
        # |e^(2iv) - 1| = 2|v| to first order
        if 2 * abs(v) < mp.mpf(2) ** (-prec // 2):
            raise IdentityPoint("z is a lattice point to working precision")
        th1, th2, th3, th4 = (mp.jtheta(n, v, q) for n in (1, 2, 3, 4))
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
