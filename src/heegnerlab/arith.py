"""Exact integer utilities: Kronecker symbols, square roots mod 4N, odd parts,
prime-to-B parts, trial-division factorization, the one double-and-add
that raises forms, curve points and quadratic-field elements to powers, and
the immutable record that the result types share.

Everything here is deterministic and desk-scale (|D| <= 10^6, N <= 10^4);
no probabilistic primality or sub-exponential factoring.
"""

from __future__ import annotations

import math

from .errors import NoSquareRoot


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D|n) for positive n.

    Standard convention at 2: (D|2) = 0 for even D, +1 for D = ±1 mod 8,
    -1 for D = ±3 mod 8.  Zero iff gcd(D, n) > 1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    result = 1
    # factor of 2 in n
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    # n now odd; Jacobi symbol (D|n) with quadratic reciprocity
    a = D % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_4N(D: int, N: int) -> int:
    """Least b with 0 < b <= 2N and b^2 = D (mod 4N).

    The bound is b < 2N except in the corner case of even D at N = 1,
    where b = 2 is the only representative.  Raises NoSquareRoot when no
    root exists (Heegner condition violated).
    """
    if D >= 0:
        raise ValueError("D must be negative")
    if N <= 0:
        raise ValueError("N must be positive")
    m = 4 * N
    for b in range(1, 2 * N + 1):
        if (b * b - D) % m == 0:
            return b
    raise NoSquareRoot(f"no b with b^2 = {D} mod {m}")


def odd_part(n: int) -> int:
    """The odd m with n = m * 2^k."""
    if n < 1:
        raise ValueError("n must be positive")
    return prime_to_B_part(n, 2)


def prime_to_B_part(n: int, B: int) -> int:
    """Largest divisor of n coprime to B."""
    if n < 1 or B < 1:
        raise ValueError("n and B must be positive")
    g = math.gcd(n, B)
    while g > 1:
        while n % g == 0:
            n //= g
        g = math.gcd(n, B)
    return n


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization, returned as {prime: exponent}."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


def is_fundamental_discriminant(D: int) -> bool:
    """Fundamental negative discriminants: D = 1 mod 4 squarefree, or D = 4m
    with m = 2, 3 mod 4 squarefree."""
    if D >= 0:
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def _multiple(n: int, P, add, zero, *law):
    # n P, n >= 0, by double-and-add under add(P, Q, *law) with identity zero
    result = zero
    while n:
        if n & 1:
            result = add(result, P, *law)
        n >>= 1
        if n:  # no doubling above the top bit
            P = add(P, P, *law)
    return result


def _compare(op):  # op on the _values of two records of one class
    return lambda a, b: op(a._values, b._values) if type(b) is type(a) else NotImplemented


class _Record:
    """Immutable record: the fields are the class's own annotations, in order,
    defaulting to their class-body values; ==, hash and <, <=, >, >= (order=True
    in the class line) are those of their tuple _values, within one class."""

    def __init_subclass__(cls, order=False):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
        for name in ("__lt__", "__le__", "__gt__", "__ge__") if order else ():
            setattr(cls, name, _compare(getattr(tuple, name)))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # bind by name, with defaults
            rest, values = names[len(args):], {**self._defaults, **kwargs}
            if not kwargs.keys() <= set(rest) <= values.keys() or len(args) > len(names):
                raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
            args += tuple(values[f] for f in rest)
        for name, value in zip(names, args):  # a write to __dict__ would slow reads
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", args)
        if self.__post_init__:
            self.__post_init__()

    def __setattr__(self, name, *value):  # also __delattr__, without value
        verb = "assign to" if value else "delete"
        raise AttributeError(f"cannot {verb} field {name!r}")

    __delattr__ = __setattr__
    __eq__ = _compare(tuple.__eq__)
    __post_init__ = None  # or a subclass's checks on its fields

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values), **changes))
