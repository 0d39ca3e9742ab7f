"""Quadratic Gauss sums G(a, b, n) = sum_{x in Z_n} e^{2 pi i (a x^2 + b x)/n}.

Evaluators:

``gauss_brute``
    the trust anchor: the definition summed as sum_x tbl[a x^2] tbl[b x]
    over the n-th roots of unity, for an outer product of a and b (a
    scalar, a row, a whole table of Z_n x Z_n), as blocked products
    chirp @ columns.  It uses no closed form.
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
    complex, for one a or an integer array of a: the reduction runs once
    per (a, n), the completed-square phases are integer array operations,
    and each phase is read from a table of roots per modulus.

``gauss_general`` and ``gauss_row`` share one reduction helper, ``_reduce``,
which returns plain tuples; it and ``gauss_closed`` take the unit of
G(a', n') from ``_unit``, so the branch rules exist once.  Closed-form results of
``gauss_general`` are carried symbolically (an integer scale, a surd, a
Gaussian-integer unit and an exact rational phase) so downstream bound checks
can use exact magnitudes; a complex rendering is always available.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import jacobi
from .errors import DomainError
from .fourier import character_table, check_grid_budget

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


def _index(v, name: str) -> int:
    """v as a Python int by operator.index, so numpy integers give their
    values; anything non-integral raises DomainError."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None


def _residues(v, n: int) -> np.ndarray:
    """v mod n as an int64 array of v's shape.  Integer arrays are reduced by
    numpy; anything else (Python ints of any size, lists of them) is reduced
    entry by entry as Python ints (_index) before an int64 array is built."""
    if isinstance(v, np.ndarray) and v.dtype.kind in "iu":
        return (v % n).astype(np.int64)
    reduce = np.frompyfunc(lambda x: _index(x, "every entry") % n, 1, 1)
    return np.asarray(reduce(np.asarray(v, dtype=object)), dtype=np.int64)


def _chirp_rows(a: np.ndarray, n: int, tbl: np.ndarray) -> np.ndarray:
    """tbl[a x^2 mod n] for each residue in ``a`` down and x in Z_n across.

    (n - x)^2 = x^2 mod n, so only x <= n // 2 is looked up and the rest of
    each row is the mirror image of that half.
    """
    h = n // 2 + 1
    squares = np.arange(h, dtype=np.int64)
    squares *= squares
    if n >= 2**21:  # a x^2 < n^3 would pass 2^63: reduce x^2 first
        squares %= n
    phases = np.multiply.outer(a, squares)
    del squares
    phases %= n
    rows = np.empty((a.size, n), dtype=np.complex128)
    np.take(tbl, phases, out=rows[:, :h])
    rows[:, h:] = rows[:, n - h : 0 : -1]
    return rows


def gauss_brute(a: "int | np.ndarray", b: "int | np.ndarray", n: int) -> "complex | np.ndarray":
    """G(a, b, n) = sum_x tbl[a x^2 mod n] tbl[b x mod n], straight from the definition.

    Both factors come from ``character_table(n)``; no closed form is used.
    ``a`` and ``b`` are reduced mod n first, and n is held to the grid budget
    before any Z_n array is built, so every int64 phase stays below 2^63
    before its own reduction mod n.

    The request is an outer product, and the result has the broadcast shape
    of ``a`` and ``b``: a scalar on either side, with any shape on the other,
    or an ``a`` whose last axis has length 1 against a 1-D ``b`` (a whole
    table is ``a[:, None]`` against ``b``).  Any other shape raises
    ``DomainError``.  The values are G = chirp @ columns, with
    chirp[i, x] = tbl[a_i x^2] and columns[x, j] = tbl[b_j x], one matrix
    product per block of at most 2^16 // n rows and columns (at least one),
    so each factor holds at most 2^16 entries or one row of Z_n.  For
    n <= 256 a whole Z_n x Z_n table is one product.  The same call gives
    the same bits on the same BLAS thread count; other call shapes can round
    differently, within the bound below.

    Rounding: each table root is within 11 eps of the exact root, so each
    term, a product of two roots, is within 22 eps of its exact value before
    the product is rounded.  The product and the n-term sum are a complex
    dot product of length n, which real arithmetic rounds within
    sqrt(2) gamma_{n+2} sum_x |tbl_u| |tbl_v| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, sec. 3.6), gamma_k = k eps /
    (1 - k eps).  To first order |G_computed - G| <= (sqrt(2) (n + 2) + 22) eps n.
    """
    n = _index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    check_grid_budget(n, 1)
    av, bv = _residues(a, n), _residues(b, n)
    if not (av.ndim == 0 or bv.ndim == 0 or (av.shape[-1] == 1 and bv.ndim == 1)):
        raise DomainError(
            f"gauss_brute takes an outer product: a of shape (..., 1) against 1-D b, or a "
            f"scalar on either side; got shapes {av.shape} and {bv.shape}"
        )
    shape = np.broadcast_shapes(av.shape, bv.shape)
    av, bv = av.ravel(), bv.ravel()
    tbl = character_table(n)
    step = max(1, 2**16 // n)
    out = np.empty((av.size, bv.size), dtype=np.complex128)
    for i in range(0, av.size, step):
        chirp = _chirp_rows(av[i : i + step], n, tbl)
        for j in range(0, bv.size, step):
            # Z_n is built per block, not held: past n = 2^16 it is half the size of a block
            phases = np.multiply.outer(np.arange(n, dtype=np.int64), bv[j : j + step])
            phases %= n
            np.matmul(chirp, np.take(tbl, phases), out=out[i : i + step, j : j + step])
    return complex(out[0, 0]) if not shape else out.reshape(shape)


def _unit(a: int, n: int) -> tuple[int, int]:
    """The Gaussian integer u with G(a, n) = u sqrt(n), for a reduced mod n
    and gcd(a, n) = 1: the three branches of ``gauss_closed``."""
    if n % 2:
        s = jacobi(a, n)
        return (s, 0) if n % 4 == 1 else (0, s)
    if n % 4 == 2:
        return (0, 0)
    s = jacobi(n, a)
    return (s, s) if a % 4 == 1 else (s, -s)  # (1+i) times 1 or -i


def gauss_closed(a: int, n: int) -> GaussSumValue:
    """Closed form of G(a, n) = G(a, 0, n) for gcd(a, n) = 1.

        odd n:           eps_n (a/n) sqrt(n)      (eps_n = 1 or i as n = 1 or 3 mod 4)
        n = 2 (mod 4):   0
        n = 0 (mod 4):   (1+i) eps_a^{-1} (n/a) sqrt(n)

    In the last branch a is odd automatically: gcd(a, n) = 1 with 4 | n.
    """
    a, n = _index(a, "a"), _index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    a %= n
    if n > 1 and math.gcd(a, n) != 1:
        raise DomainError(f"gcd({a}, {n}) > 1; use gauss_general")
    unit = _unit(a, n)
    return _ZERO if unit == (0, 0) else GaussSumValue(1, n, unit, _F0)


# A branch of the reduction: (n', -a'^{-1} mod n', rendered size
# scale sqrt(n') unit, scale, unit); the vanishing branch has size 0.
_Branch = tuple[int, int, complex, int, tuple[int, int]]
_DEAD: _Branch = (1, 0, 0j, 0, (0, 0))


def _branch(scale: int, a: int, n: int) -> _Branch:
    """scale G(a, b', n) for a unit a mod n, as a branch."""
    unit = _unit(a, n)
    if unit == (0, 0):
        return _DEAD
    return n, -pow(a, -1, n) % n, complex(*unit) * (scale * math.sqrt(n)), scale, unit


def _square_phase(b2, n, neg_inv):
    """-a' c^2 mod n' with 2 a' c = b' (mod n') and neg_inv = -a'^{-1} mod n',
    for ints or int64 arrays of b' in [0, 2 n'); every product is reduced mod
    n' first."""
    half = (b2 + b2 % 2 * n) // 2 % n  # b' / 2 mod n': odd b' means odd n'
    return half * half % n * neg_inv % n


def _reduce(a: int, n: int) -> tuple[int, _Branch, _Branch]:
    """g = gcd(a, n) and, for b' = b / g even and odd, the branch that completes
    the square of G(a, b, n), or ``_DEAD`` where every such sum vanishes.

    G(a, b, n) = g G(a', b', n') with a' = a/g, n' = n/g when g | b, zero
    otherwise.  An odd b' with n' even then gives

        4 | n':           G(a', b', n') = 0            (x -> x + n'/2 flips the sign)
        n' = 2m, m odd:   G(a', b', 2m) = 2 G(2a', b', m)   (CRT; the Z_2 factor is 2)

    and every remaining sum has 2 a' c = b' (mod n') solvable, so completing
    the square gives

        G(a', b', n') = e^{-2 pi i a' c^2 / n'} G(a', n').
    """
    g = math.gcd(a, n)  # n when a = 0: only b = 0 survives, with G = n
    a2, n2 = a // g, n // g
    even = _branch(g, a2, n2)
    if n2 % 2:
        return g, even, even
    if n2 % 4 == 0:
        return g, even, _DEAD
    return g, even, _branch(2 * g, 2 * a2 % (n2 // 2), n2 // 2)


def gauss_general(a: int, b: int, n: int) -> GaussSumValue:
    """G(a, b, n) for arbitrary integer a, b, always in closed form: the
    branch of ``_reduce`` for b, with the completed square's phase kept as
    an exact fraction."""
    a, b, n = _index(a, "a"), _index(b, "b"), _index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    g, *branches = _reduce(a % n, n)
    b %= n
    mod, neg_inv, _, scale, unit = _DEAD if b % g else branches[b // g % 2]
    if not scale:
        return _ZERO
    return GaussSumValue(scale, mod, unit, Fraction(_square_phase(b // g, mod, neg_inv), mod))


def gauss_row(a: "int | np.ndarray", n: int) -> np.ndarray:
    """G(a, b, n) rendered as complex for every b in Z_n: one row for an
    integer a, and for an integer array a one row per entry, of shape
    a.shape + (n,).

    The branches of ``_reduce`` are looked up once per a; the gates and the
    completed-square phases are then one int64 pass over every (a, b).  The
    phase num / n' is read from one table of np.exp(2 pi i k / n') per
    modulus n' present, so a call renders sigma(n) roots at most; np.exp
    works entry by entry, so each root has the bits of rendering num / n'
    directly.  The entries that vanish are
    exact zeros.  No character table is shared with ``gauss_brute``.
    """
    n = _index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    av = _residues(a, n)
    out = np.zeros(av.shape + (n,), dtype=np.complex128)
    if not av.size:
        return out
    g, branches = [], []
    for ar in av.ravel().tolist():
        gr, even, odd = _reduce(ar, n)
        g.append(gr)
        branches += (even, odd)
    mod, neg_inv, size = map(np.array, list(zip(*branches))[:3])
    moduli, at = np.unique(mod, return_inverse=True)
    roots = np.concatenate([np.exp(2j * np.pi * (np.arange(m) / m)) for m in moduli.tolist()])
    offset = (np.cumsum(moduli) - moduli)[at]  # where the roots of each branch's n' start
    g = np.array(g, dtype=np.int64)[:, None]
    b = np.arange(n, dtype=np.int64)
    flat = out.reshape(-1, n)
    step = max(1, 2**18 // n)  # rows per pass: the int64 temporaries stay near 2 MiB
    for lo in range(0, len(flat), step):
        b2, rem = np.divmod(b, g[lo : lo + step])  # b' = b / g where g | b
        br = b2 % 2  # index of the branch: 2 (row) + parity of b'
        br += np.arange(2 * lo, 2 * lo + 2 * len(b2), 2)[:, None]
        num = _square_phase(b2, mod[br], neg_inv[br])
        num += offset[br]
        part = size[br]
        part *= roots[num]
        part[(rem != 0) | (part == 0)] = 0  # g does not divide b, or the branch vanishes
        flat[lo : lo + step] = part
    return out
