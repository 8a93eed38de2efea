"""Heegner condition, level-N Heegner fibers and the class-group star action.

A fiber element is a bare form (a, b, c) of discriminant D with N | a and
b = beta (mod 2N), beta the fixed square root of D mod 4N; qform.reduced
names its class.  Its upper-half-plane point is tau(form) = (-b + sqrt(D))
/ (2a).  One representative per class, normalized to minimal a (then least
b >= 0), which keeps Im(tau) as large as the normalization allows.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc

from . import arith, qform
from .errors import (DiscriminantMismatch, FiberIncomplete,
                     HeegnerConditionFailed)


def tau(form: qform.BinaryQuadraticForm, precision_bits: int) -> mpc:
    """(-b + sqrt(D)) / (2a), the root of form in the upper half plane."""
    with mp.workprec(precision_bits):
        return (-form.b + mp.sqrt(mpc(form.discriminant))) / (2 * form.a)


def heegner_condition(D: int, N: int) -> bool:
    """gcd(D, N) = 1 and every prime dividing N splits in Q(sqrt(D)): one
    test, (D/p) = 1 for each prime p | N, as (D/p) = 0 when p | D."""
    qform.check_discriminant(D)
    if N < 1:
        raise ValueError("N must be positive")
    return all(arith.kronecker(D, p) == 1 for p in arith.prime_divisors(N))


def heegner_fiber(D: int, N: int) -> tuple[qform.BinaryQuadraticForm, ...]:
    """One fiber form per ideal class of the order of discriminant D, in
    enumerate_reduced(D) order, all sharing the fixed root beta of D mod 4N.

    Scans a = N, 2N, ... and b = beta (mod 2N) with 0 < b <= 2a; the first
    hit per class is the minimal-a, least-b representative.  A scan past a
    = 10000 h N raises FiberIncomplete.
    """
    if not heegner_condition(D, N):
        raise HeegnerConditionFailed(f"(D={D}, N={N}) fails the Heegner condition")
    beta = arith.sqrt_mod_4N(D, N)
    classes = qform.enumerate_reduced(D)
    h = len(classes)
    found: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    t = 0
    while len(found) < h:
        t += 1
        if t > 10000 * h:
            raise FiberIncomplete(
                f"fiber search for (D={D}, N={N}) did not complete")
        a = N * t
        for b in range(beta, 2 * a + 1, 2 * N):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if math.gcd(a, b, c) != 1:
                continue
            found.setdefault(qform.reduced(a, b, c), (a, b, c))
    return tuple(qform.BinaryQuadraticForm(*found[f.a, f.b, f.c]) for f in classes)


def star_act(b_class: qform.BinaryQuadraticForm, form: qform.BinaryQuadraticForm,
             N: int) -> qform.BinaryQuadraticForm:
    """Class-group action on the level-N fiber: acts on the class of form
    by composition and re-normalizes to the fiber representative; a class
    the fiber lacks raises FiberIncomplete."""
    if b_class.discriminant != form.discriminant:
        raise DiscriminantMismatch(
            f"{b_class} does not act on discriminant {form.discriminant}"
        )
    target = qform.compose(qform.reduce(form), b_class)
    for rep in heegner_fiber(form.discriminant, N):
        if qform.reduce(rep) == target:
            return rep
    raise FiberIncomplete(f"fiber element missing for class {target}")
