"""Quadratic Gauss sums G(a, b, n) = sum_{x in Z_n} e^{2 pi i (a x^2 + b x)/n}.

Evaluators:

``gauss_brute``
    the trust anchor: the exact multiplicities c_k = #{x : a x^2 + b x = k}
    dotted with the n-th roots of unity.  It uses no closed form.
``gauss_closed``
    the closed form of G(a, n) = G(a, 0, n) for gcd(a, n) = 1, split by the
    residue of n mod 4.
``gauss_general``
    arbitrary (a, b): the gcd reduction
    G(a, b, n) = (a,n) G(a/(a,n), b/(a,n), n/(a,n)) when (a,n) | b, zero
    otherwise, then the classical rules for the linear term of the reduced
    sum (Berndt, Evans and Williams, *Gauss and Jacobi Sums*, 1998, ch. 1).
``gauss_row``
    the same closed form for a whole row b in Z_n at once, rendered as
    complex: the reduction runs once per (a, n) and the completed-square
    phases are integer array operations.

``gauss_general`` and ``gauss_row`` share one reduction helper, ``_reduce``,
so the branch rules exist once.  Closed-form results of
``gauss_general`` are carried symbolically (an integer scale, a surd, a
Gaussian-integer unit and an exact rational phase) so downstream bound checks
can use exact magnitudes; a complex rendering is always available.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import jacobi
from .errors import DomainError
from .fourier import character_table

__all__ = ["GaussSumValue", "gauss_brute", "gauss_closed", "gauss_general", "gauss_row"]

_F0 = Fraction(0)


@dataclass(frozen=True)
class GaussSumValue:
    """Exact value of a quadratic Gauss sum.

    The value is ``scale * sqrt(surd) * (unit_re + i unit_im) * e^{2 pi i phase}``
    with scale >= 0 an integer, surd the reduced modulus and unit a Gaussian
    integer of squared modulus 0, 1 or 2.  ``scale == 0`` encodes the
    vanishing sum.
    """

    scale: int
    surd: int
    unit: tuple[int, int]
    phase: Fraction

    @property
    def is_zero(self) -> bool:
        return self.scale == 0

    @property
    def magnitude_sq(self) -> int:
        """Exact squared modulus (e.g. n, 2n or 0 times an integer square)."""
        u0, u1 = self.unit
        return self.scale * self.scale * self.surd * (u0 * u0 + u1 * u1)

    @property
    def complex_render(self) -> complex:
        u0, u1 = self.unit
        z = complex(u0, u1) * (self.scale * math.sqrt(self.surd))
        if self.phase:
            z *= cmath.exp(2j * math.pi * float(self.phase))
        return z

    def __complex__(self) -> complex:
        return self.complex_render


_ZERO = GaussSumValue(0, 1, (0, 0), _F0)


def gauss_brute(a: int, b: "int | np.ndarray", n: int) -> "complex | np.ndarray":
    """G(a, b, n) from the exact multiplicities c_k = #{x : a x^2 + b x = k mod n}.

    One bincount gives every c_k as an integer, and one dot with the table
    of e^{2 pi i k / n} gives the sum, so the only rounding is in that dot.
    ``b`` may be an integer array; the result then has its shape and costs
    O(b.size * n) memory.  Every factor is reduced mod n first, so int64
    never overflows for n < 2^31.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if isinstance(b, int):
        b %= n  # a Python int of any size
    x = np.arange(n, dtype=np.int64)
    bs = np.asarray(b, dtype=np.int64)[..., None] % n
    k = ((a % n) * (x * x % n) + bs * x) % n  # one row of values per b
    k += n * np.arange(k.size // n, dtype=np.int64).reshape(bs.shape)
    counts = np.bincount(k.ravel(), minlength=k.size).reshape(k.shape)
    sums = counts @ character_table(n)
    return complex(sums) if sums.ndim == 0 else sums


def _eps_unit(n: int) -> tuple[int, int]:
    # eps_n = 1 for n = 1 (mod 4), i for n = 3 (mod 4)
    return (1, 0) if n % 4 == 1 else (0, 1)


def _eps_inv_unit(a: int) -> tuple[int, int]:
    # 1 / eps_a
    return (1, 0) if a % 4 == 1 else (0, -1)


def _gmul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _gsign(u: tuple[int, int], s: int) -> tuple[int, int]:
    return (u[0] * s, u[1] * s)


def gauss_closed(a: int, n: int) -> GaussSumValue:
    """Closed form of G(a, n) for gcd(a, n) = 1.

        odd n:           eps_n (a/n) sqrt(n)
        n = 2 (mod 4):   0
        n = 0 (mod 4):   (1+i) eps_a^{-1} (n/a) sqrt(n)

    In the last branch a is odd automatically: gcd(a, n) = 1 with 4 | n.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    a %= n
    if n > 1 and math.gcd(a, n) != 1:
        raise DomainError(f"gcd({a}, {n}) > 1; use gauss_general")
    if n % 2 == 1:
        unit = _gsign(_eps_unit(n), jacobi(a, n))
        return GaussSumValue(1, n, unit, _F0)
    if n % 4 == 2:
        return _ZERO
    unit = _gmul((1, 1), _gsign(_eps_inv_unit(a), jacobi(n, a)))
    return GaussSumValue(1, n, unit, _F0)


@dataclass(frozen=True)
class _Branch:
    """G(a, b, n) = scale * G(a', b', n') for the b of one parity class, with
    a' a unit mod n' and base = G(a', n') nonzero."""

    scale: int
    n: int
    neg_inv: int  # -a'^{-1} mod n'
    base: GaussSumValue

    def phase(self, b2):
        """-a' c^2 mod n' with 2 a' c = b' (mod n'), for an int or an int64 array
        of b' in [0, 2 n'); every product is reduced mod n' first."""
        half = (b2 + b2 % 2 * self.n) // 2 % self.n  # b' / 2 mod n': odd b' means odd n'
        return half * half % self.n * self.neg_inv % self.n


@lru_cache(maxsize=1024)
def _reduce(a: int, n: int) -> tuple[int, tuple["_Branch | None", "_Branch | None"]]:
    """g = gcd(a, n) and, for b' = b / g even and odd, the branch that completes
    the square of G(a, b, n), or None where every such sum vanishes.

    G(a, b, n) = g G(a', b', n') with a' = a/g, n' = n/g when g | b, zero
    otherwise.  An odd b' with n' even then gives

        4 | n':           G(a', b', n') = 0            (x -> x + n'/2 flips the sign)
        n' = 2m, m odd:   G(a', b', 2m) = 2 G(2a', b', m)   (CRT; the Z_2 factor is 2)

    and every remaining sum has 2 a' c = b' (mod n') solvable, so completing
    the square gives

        G(a', b', n') = e^{-2 pi i a' c^2 / n'} G(a', n').

    ``a`` must be reduced mod n, so that the cache sees one key per row.
    """
    g = math.gcd(a, n)  # n when a = 0: only b = 0 survives, with G = n
    a2, n2 = a // g, n // g

    def branch(scale: int, a3: int, n3: int) -> "_Branch | None":
        base = gauss_closed(a3, n3)
        if base.is_zero:
            return None
        return _Branch(scale, n3, -pow(a3, -1, n3) % n3, base)

    even = branch(g, a2, n2)
    if n2 % 2:
        return g, (even, even)
    if n2 % 4 == 0:
        return g, (even, None)
    return g, (even, branch(2 * g, 2 * a2 % (n2 // 2), n2 // 2))


def gauss_general(a: int, b: int, n: int) -> GaussSumValue:
    """G(a, b, n) for arbitrary integer a, b, always in closed form: the
    branch of ``_reduce`` for b, with the completed square's phase kept as
    an exact fraction."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    g, branches = _reduce(a % n, n)
    b %= n
    br = None if b % g else branches[b // g % 2]
    if br is None:
        return _ZERO
    return GaussSumValue(br.scale, br.base.surd, br.base.unit, Fraction(br.phase(b // g), br.n))


def gauss_row(a: int, n: int) -> np.ndarray:
    """G(a, b, n) rendered as complex for every b in Z_n, in one numpy pass.

    The branches of ``_reduce`` are found once per row; the gating and the
    completed-square phases are int64 array operations, and each phase is
    rendered as np.exp(2 pi i num / n').  The entries that vanish are exact
    zeros.  No character table is shared with ``gauss_brute``.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    g, branches = _reduce(a % n, n)
    b2 = np.arange(n // g, dtype=np.int64)  # b = g b' are the only b with g | b
    out = np.zeros(n, dtype=np.complex128)
    for parity, br in enumerate(branches):
        if br is None:
            continue
        sel = b2[parity::2]
        u0, u1 = br.base.unit
        size = complex(u0, u1) * (br.scale * math.sqrt(br.base.surd))
        out[g * sel] = size * np.exp(2j * np.pi * (br.phase(sel) / br.n))
    return out
