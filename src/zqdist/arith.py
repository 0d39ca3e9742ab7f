"""Exact integer and modular arithmetic over Z_q.

Factorization, divisor counts, Jacobi symbols and the CRT components
Z_{p^a} of Z_q.  Everything here is pure integer arithmetic; floats never
appear.  q = 1 is rejected everywhere (Z_1 is the zero ring and downstream
formulas divide by q-dependent quantities); even q is accepted, operations
that need odd q gate themselves via Modulus.require_odd.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from .errors import DomainError

__all__ = [
    "Modulus",
    "Residue",
    "factorize",
    "as_modulus",
    "as_int",
    "tau",
    "jacobi",
    "residue",
]


def as_int(v, name: str) -> int:
    """v as a Python int by operator.index, so numpy integers give their
    values; anything non-integral (a float, even an integral one) raises
    DomainError."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None


@dataclass(frozen=True)
class Modulus:
    """A modulus q >= 2 together with its prime factorization.

    q is kept as a Python int (as_int), so q^d is exact for every d; a
    non-integral q raises DomainError.

    ``factors`` is sorted by prime: q = p1^a1 * ... * pk^ak with p1 < ... < pk
    and every exponent >= 1.
    """

    q: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_int(self.q, "the modulus"))
        if self.q < 2:
            raise DomainError(f"modulus must be >= 2, got {self.q}")
        prod = 1
        prev = 1
        for p, a in self.factors:
            if p <= prev:
                raise DomainError("factor primes must be strictly increasing")
            if a < 1:
                raise DomainError("factor exponents must be >= 1")
            prev = p
            prod *= p**a
        if prod != self.q:
            raise DomainError(f"factorization does not multiply back to {self.q}")

    @property
    def is_odd(self) -> bool:
        return self.q % 2 == 1

    @property
    def p1(self) -> int:
        """Smallest prime divisor of q."""
        return self.factors[0][0]

    def prime_power_moduli(self) -> tuple["Modulus", ...]:
        """The CRT components Z_{p_i^{a_i}}, in prime order."""
        return tuple(Modulus(p**a, ((p, a),)) for p, a in self.factors)

    def require_odd(self, what: str) -> None:
        if not self.is_odd:
            raise DomainError(f"{what} requires odd q, got q={self.q}")

    def __repr__(self) -> str:
        inner = " * ".join(f"{p}^{a}" if a > 1 else f"{p}" for p, a in self.factors)
        return f"Modulus({self.q} = {inner})"


def factorize(q: int) -> Modulus:
    """Factor q >= 2: trial division by the odd numbers below _TRIAL_BOUND,
    then Pollard-Brent rho on what is left, each factor certified prime by
    Miller-Rabin (_is_prime), exact below _MR_EXACT > 3.3 * 10^24.  Every
    q < 2^63 factors in well under a second; a factor past _MR_EXACT that
    Miller-Rabin cannot refute raises DomainError, its primality unproven.

    q goes through as_int first, so a numpy integer factors as its value and
    a non-integral q raises DomainError: the cache sees only Python ints,
    where 9.0 and np.int64(9) would otherwise share the key of 9."""
    return _factorize(as_int(q, "the modulus"))


# Trial division runs up to this bound: what is left of q then has no prime
# factor below it, so below the bound squared it is 1 or a prime, and past
# it Miller-Rabin and Pollard-Brent take over.
_TRIAL_BOUND = 1 << 10
# Miller-Rabin to the first twelve primes as bases proves primality below
# _MR_EXACT (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT = 3317044064679887385961981


@lru_cache(maxsize=4096)
def _factorize(q: int) -> Modulus:
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    n = q
    factors = []
    p = 2
    while p * p <= n and p < _TRIAL_BOUND:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if n >= _TRIAL_BOUND**2:  # its prime factors all exceed those found so far
        factors += sorted(Counter(_rough_factors(n)).items())
    elif n > 1:
        factors.append((n, 1))
    return Modulus(q, tuple(factors))


def _rough_factors(n: int) -> list[int]:
    """The prime factors of n > 1, with multiplicity, n having no prime
    factor below _TRIAL_BOUND."""
    if n < _TRIAL_BOUND**2 or _is_prime(n):
        return [n]
    f = _brent(n)
    return _rough_factors(f) + _rough_factors(n // f)


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n >= _TRIAL_BOUND^2 to the bases _MR_BASES: a
    composite verdict is always right, a prime one is proven below
    _MR_EXACT and past it raises DomainError."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s r, r odd
    r = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, r, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT:
        raise DomainError(f"the factor {n} passes Miller-Rabin to the bases 2, ..., 37, "
                          f"but that proves it prime only below {_MR_EXACT}")
    return True


def _brent(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard's rho in Brent's
    form: the walk y -> y^2 + c mod n from y = 2, its differences |x - y|
    multiplied 128 at a time under one gcd, the last batch retraced one
    step at a time when that gcd is n; c = 1, 2, ... until a walk splits n."""
    for c in count(1):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def as_modulus(q: "int | Modulus") -> Modulus:
    return q if isinstance(q, Modulus) else factorize(q)


def tau(q: "int | Modulus") -> int:
    """Number of positive divisors of q, prod (a_i + 1)."""
    m = as_modulus(q)
    out = 1
    for _, a in m.factors:
        out *= a + 1
    return out


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; 0 iff gcd(a, n) > 1."""
    if n < 1 or n % 2 == 0:
        raise DomainError(f"Jacobi symbol needs odd n >= 1, got n={n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class Residue:
    """A canonical representative in [0, q); inputs are normalized on
    construction, and a non-integral value raises DomainError."""

    value: int
    modulus: Modulus

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_int(self.value, "a residue") % self.modulus.q)

    @property
    def q(self) -> int:
        return self.modulus.q

    def _same(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise DomainError(f"mixed moduli {self.q} and {other.q}")

    def __add__(self, other: "Residue") -> "Residue":
        self._same(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._same(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._same(other)
        return Residue(self.value * other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __int__(self) -> int:
        return self.value


def residue(value: int, q: "int | Modulus") -> Residue:
    return Residue(value, as_modulus(q))

