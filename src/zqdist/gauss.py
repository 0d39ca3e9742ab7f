"""Quadratic Gauss sums G(a, b, n) = sum_{x in Z_n} e^{2 pi i (a x^2 + b x)/n}.

Three evaluators:

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

Closed-form results are carried symbolically (an integer scale, a surd, a
Gaussian-integer unit and an exact rational phase) so downstream bound checks
can use exact magnitudes; a complex rendering is always available.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import jacobi
from .errors import DomainError
from .fourier import character_table

__all__ = ["GaussSumValue", "gauss_brute", "gauss_closed", "gauss_general"]

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


def gauss_general(a: int, b: int, n: int) -> GaussSumValue:
    """G(a, b, n) for arbitrary integer a, b, always in closed form.

    After the gcd reduction a' is a unit mod n'.  An odd b' with n' even
    then gives

        4 | n':           G(a', b', n') = 0            (x -> x + n'/2 flips the sign)
        n' = 2m, m odd:   G(a', b', 2m) = 2 G(2a', b', m)   (CRT; the Z_2 factor is 2)

    and every remaining sum has 2 a' c = b' (mod n') solvable, so completing
    the square gives

        G(a', b', n') = e^{-2 pi i a' c^2 / n'} G(a', n').
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    a %= n
    b %= n
    if a == 0:
        # sum of a plain character: n when n | b, zero otherwise
        if b == 0:
            return GaussSumValue(n, 1, (1, 0), _F0)
        return _ZERO
    g = math.gcd(a, n)
    if b % g:
        return _ZERO
    a2, b2, n2 = a // g, b // g, n // g
    if b2 % 2 and n2 % 2 == 0:
        if n2 % 4 == 0:
            return _ZERO
        a2, n2, g = 2 * a2, n2 // 2, 2 * g
    base = gauss_closed(a2, n2)
    if base.scale == 0:
        return _ZERO
    if b2 % 2:
        b2 += n2  # n2 is odd here, so b2 / 2 exists mod n2
    c = b2 // 2 * pow(a2, -1, n2) % n2
    return GaussSumValue(g, base.surd, base.unit, Fraction(-a2 * c * c % n2, n2))
