"""Period lattices and the Weierstrass uniformization C/Lambda -> E(C).

Periods of every curve come from the real AGM, for either sign of the
discriminant.  p and p' are Jacobi theta quotients (DLMF 23.6) on a
Gauss-reduced basis; the q-series they replaced is the test oracle in
tests/test_lattice.py.  The elliptic logarithm is Carlson's closed form
z = R_F(x - e1, x - e2, x - e3), certified against p and p' at working
precision; it raises rather than return an uncertified value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mpmath import mp, mpc, mpf

from .ellcurve import CurveModel, CurvePoint, QuadElt
from .errors import IdentityPoint, PrecisionUnachievable

from fractions import Fraction


@dataclass(frozen=True)
class Lattice:
    omega1: mpc
    omega2: mpc
    precision_bits: int

    @cached_property
    def reduced_basis(self) -> tuple[mpc, mpc]:
        """Gauss-reduced basis (w1, w2) with Im(w2/w1) > 0 and |w2/w1|
        in the usual fundamental domain; used for series evaluation.  It
        keeps the 40 guard bits that periods computes."""
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

    def coordinates(self, z: mpc) -> tuple[mpf, mpf]:
        """Real coordinates (s, t) with z = s*omega1 + t*omega2."""
        return _coordinates(z, self.omega1, self.omega2)

    def reduce(self, z: mpc) -> mpc:
        """Representative of z mod Lambda in the fundamental parallelogram
        [0,1) x [0,1) of the stated basis."""
        s, t = self.coordinates(z)
        return (s - mp.floor(s)) * self.omega1 + (t - mp.floor(t)) * self.omega2

    def distance(self, z: mpc) -> mpf:
        """Distance from z to the nearest lattice point."""
        return self.nearest_distances(z)[0]

    def nearest_distances(self, z: mpc) -> tuple[mpf, mpf]:
        """(nearest, second-nearest) distances from z to lattice points."""
        s, t = self.coordinates(z)
        s0, t0 = mp.nint(s), mp.nint(t)
        dists = []
        for ds in (-1, 0, 1):
            for dt in (-1, 0, 1):
                w = z - (s0 + ds) * self.omega1 - (t0 + dt) * self.omega2
                dists.append(abs(w))
        dists.sort()
        return (dists[0], dists[1])


def _coordinates(z: mpc, w1: mpc, w2: mpc) -> tuple[mpf, mpf]:
    x1, y1, x2, y2 = mp.re(w1), mp.im(w1), mp.re(w2), mp.im(w2)
    det = x1 * y2 - x2 * y1
    return ((mp.re(z) * y2 - mp.im(z) * x2) / det,
            (x1 * mp.im(z) - y1 * mp.re(z)) / det)


def _two_division_values(E: CurveModel, prec: int):
    # roots of 4t^3 - g2 t - g3, the 2-division values of the p-function
    c4, c6 = E.c_invariants
    with mp.workprec(prec):
        g2 = mpf(c4) / 12
        g3 = mpf(c6) / 216
        roots = mp.polyroots([4, 0, -g2, -g3], extraprec=prec // 2 + 40)
    return roots, g2, g3


def periods(E: CurveModel, precision_bits: int) -> Lattice:
    """Lattice of the invariant differential dx / (2y + a1 x + a3), by the AGM
    (Cohen, GTM 138, Alg. 7.4.7).

    Three real 2-division values e1 > e2 > e3 (disc > 0): a real and a purely
    imaginary period.  One real value e1 (disc < 0): with
    beta = |e1 - e2| = sqrt(3 e1^2 - g2/4), the real period
    w1 = 2 pi / AGM(2 sqrt(beta), sqrt(2 beta + 3 e1)) and
    w2 = w1/2 + i pi / AGM(2 sqrt(beta), sqrt(2 beta - 3 e1)).
    Either way Im(w2/w1) > 0.
    """
    if not 53 <= precision_bits <= 1000:
        raise PrecisionUnachievable("precision_bits must be in 53..1000")
    work = precision_bits + 40
    roots, g2, g3 = _two_division_values(E, work)
    with mp.workprec(work):
        if E.discriminant > 0:
            es = sorted((mp.re(r) for r in roots), reverse=True)
            e1, e2, e3 = es
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
        return Lattice(+w1, +w2, precision_bits)


def weierstrass_p(z: mpc, L: Lattice, prec: int) -> tuple[mpc, mpc]:
    """(p(z), p'(z)) at working precision prec (DLMF 23.6.2, 23.6.5): on
    the reduced basis (w1, w2), tau = w2/w1, nome q = e^(i pi tau), thj =
    thj(0, q), and v = pi z / w1 with z reduced to |s|, |t| <= 1/2,

      p(z)  = (pi/w1)^2 [(th2^4 + 2 th4^4)/3 + (th3 th4 th2(v) / th1(v))^2]
      p'(z) = -2 (pi/w1)^3 (th2 th3 th4)^2 th2(v) th3(v) th4(v) / th1(v)^3.

    mpmath's jtheta sums the thj(v) in fixed point, in q^(n^2) with
    |q| <= e^(-pi sqrt(3)/2), and adds the bits th1(v) loses near v = 0.
    """
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
    prec = L.precision_bits
    with mp.workprec(prec + 20):
        p, dp = weierstrass_p(z, L, prec + 20)
        b2 = E.b_invariants[0]
        x = p - mpf(b2) / 12
        y = (dp - E.a1 * x - E.a3) / 2
        return (x, y)


def curve_equation_residual(E: CurveModel, x: mpc, y: mpc) -> mpf:
    return abs(
        y * y + E.a1 * x * y + E.a3 * y - (x**3 + E.a2 * x * x + E.a4 * x + E.a6)
    )


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
    """z in the fundamental parallelogram with weierstrass_map(z) = P."""
    if P.is_infinity:
        raise ValueError("elliptic log of the identity is the lattice itself")
    prec = L.precision_bits + 20
    return complex_log_embedding(embed(P.x, prec), embed(P.y, prec), E, L)


def complex_log_embedding(x: mpc, y: mpc, E: CurveModel, L: Lattice) -> mpc:
    """z in the fundamental parallelogram with weierstrass_map(z) = (x, y).

    Carlson's inverse of p (DLMF 19.25.35): z = R_F(xw - e1, xw - e2, xw - e3)
    with xw = x + b2/12 satisfies p(z) = xw.  One evaluation of p' fixes the
    sign against yw = 2y + a1 x + a3 and certifies both coordinates.  Near a
    half period p' vanishes, so xw fixes z only to half precision; there one
    Newton step on p'(z) = yw, with p'' = 6p^2 - g2/2 nonzero, restores it
    and is certified in turn.  A point that fails raises PrecisionUnachievable.
    """
    prec = L.precision_bits
    b2 = E.b_invariants[0]
    roots, g2, _ = _two_division_values(E, prec + 20)
    with mp.workprec(prec + 20):
        xw = x + mpf(b2) / 12
        yw = 2 * y + E.a1 * x + E.a3
        tol = mp.mpf(2) ** (-(prec - 20)) * (1 + abs(xw))
        z = mp.elliprf(*(xw - e for e in roots))
        p, dp = weierstrass_p(z, L, prec + 20)
        if abs(dp - yw) > abs(-dp - yw):
            z, dp = -z, -dp
        if abs(dp - yw) > tol:
            z += (yw - dp) / (6 * p * p - g2 / 2)
            p, dp = weierstrass_p(z, L, prec + 20)
        if abs(p - xw) > tol or abs(dp - yw) > tol:
            raise PrecisionUnachievable(
                "elliptic logarithm misses the point at working precision"
            )
        return L.reduce(z)
