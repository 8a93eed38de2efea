"""Heegner condition, level-N Heegner fibers and the class-group star action.

A fiber element is a form (a, b, c) of discriminant D with N | a and
b = beta (mod 2N), where beta is the fixed square root of D mod 4N.  Its
upper-half-plane point is tau = (-b + sqrt(D)) / (2a).  One representative
per ideal class, normalized to minimal a (then least b >= 0), which keeps
Im(tau) as large as the normalization allows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpc

from . import arith, qform
from .errors import DiscriminantMismatch, HeegnerConditionFailed


@dataclass(frozen=True)
class HeegnerPointRep:
    level: int
    form: qform.BinaryQuadraticForm

    @property
    def discriminant(self) -> int:
        return self.form.discriminant

    @property
    def class_form(self) -> qform.BinaryQuadraticForm:
        """Reduced form naming the ideal class of this fiber element."""
        return qform.reduce(self.form)

    def tau(self, precision_bits: int) -> mpc:
        with mp.workprec(precision_bits):
            return (
                -self.form.b + mp.sqrt(mpc(self.discriminant))
            ) / (2 * self.form.a)


def heegner_condition(D: int, N: int) -> bool:
    """gcd(D, N) = 1 and every prime dividing N splits in Q(sqrt(D)): one
    test, (D/p) = 1 for each prime p | N, as (D/p) = 0 when p | D."""
    qform.check_discriminant(D)
    if N < 1:
        raise ValueError("N must be positive")
    return all(arith.kronecker(D, p) == 1 for p in arith.prime_divisors(N))


@functools.lru_cache(maxsize=None)
def heegner_fiber(D: int, N: int) -> tuple[HeegnerPointRep, ...]:
    """One fiber element per ideal class of the order of discriminant D,
    all sharing the fixed square root beta of D mod 4N.

    Scans a = N, 2N, ... and b = beta (mod 2N) with 0 < b <= 2a; the first
    hit per class is the minimal-a, least-b representative.
    """
    if not heegner_condition(D, N):
        raise HeegnerConditionFailed(f"(D={D}, N={N}) fails the Heegner condition")
    beta = arith.sqrt_mod_4N(D, N)
    classes = qform.enumerate_reduced(D)
    h = classes.order
    found: dict[qform.BinaryQuadraticForm, HeegnerPointRep] = {}
    t = 0
    while len(found) < h:
        t += 1
        if t > 10000 * h:
            raise RuntimeError(f"fiber search for (D={D}, N={N}) did not complete")
        a = N * t
        for b in range(beta, 2 * a + 1, 2 * N):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            form = qform.BinaryQuadraticForm(a, b, c)
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            key = qform.reduce(form)
            if key not in found:
                found[key] = HeegnerPointRep(level=N, form=form)
    return tuple(found[f] for f in classes.forms)


def star_act(b_class: qform.BinaryQuadraticForm, y: HeegnerPointRep) -> HeegnerPointRep:
    """Class-group action on the fiber: acts on the class component by
    composition and re-normalizes to the fiber representative."""
    if b_class.discriminant != y.discriminant:
        raise DiscriminantMismatch(
            f"{b_class} does not act on discriminant {y.discriminant}"
        )
    target = qform.compose(y.class_form, b_class)
    fiber = heegner_fiber(y.discriminant, y.level)
    for rep in fiber:
        if rep.class_form == target:
            return rep
    raise RuntimeError("fiber element missing for class " + str(target))
