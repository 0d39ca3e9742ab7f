"""Exact integer and modular arithmetic over Z_q.

Factorization, divisor counts, Jacobi symbols and the CRT components
Z_{p^a} of Z_q.  Everything here is pure integer arithmetic; floats never
appear.  q = 1 is rejected everywhere (Z_1 is the zero ring and downstream
formulas divide by q-dependent quantities); even q is accepted, operations
that need odd q gate themselves via Modulus.require_odd.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

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

    ``factors`` is sorted by prime: q = p1^a1 * ... * pk^ak with p1 < ... < pk
    and every exponent >= 1.
    """

    q: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
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


@lru_cache(maxsize=4096)
def factorize(q: int) -> Modulus:
    """Factor q >= 2 by trial division (sufficient at desk scale, q <= ~10^12)."""
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    n = q
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return Modulus(q, tuple(factors))


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

