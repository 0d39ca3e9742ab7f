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
    per (a, n), and the rows are grouped by g = gcd(a, n).  A class's sums
    live on one progression of b, and their completed-square phases are
    one int64 outer product, reduced once per entry and read from one
    table of the n-th roots of unity.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import as_int, jacobi
from .errors import BudgetError, DomainError
from .fourier import DEFAULT_GRID_BUDGET, character_table, check_grid_budget

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


def _residues(v, n: int) -> np.ndarray:
    """v mod n as an int64 array of v's shape.  Integer arrays are reduced by
    numpy; anything else (Python ints of any size, lists of them) is reduced
    entry by entry as Python ints (as_int) before an int64 array is built."""
    if isinstance(v, np.ndarray) and v.dtype.kind in "iu":
        return (v % n).astype(np.int64)
    reduce = np.frompyfunc(lambda x: as_int(x, "every entry") % n, 1, 1)
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
    n = as_int(n, "n")
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
    a, n = as_int(a, "a"), as_int(n, "n")
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
    a, b, n = as_int(a, "a"), as_int(b, "b"), as_int(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    g, *branches = _reduce(a % n, n)
    b %= n
    mod, neg_inv, _, scale, unit = _DEAD if b % g else branches[b // g % 2]
    if not scale:
        return _ZERO
    b //= g
    half = (b + b % 2 * mod) // 2 % mod  # c = b' / 2 mod M: an odd b' has an odd M
    return GaussSumValue(scale, mod, unit, Fraction(neg_inv * half * half % mod, mod))


def gauss_row(a: "int | np.ndarray", n: int) -> np.ndarray:
    """G(a, b, n) rendered as complex for every b in Z_n: one row for an
    integer a, and for an integer array a one row per entry, of shape
    a.shape + (n,).

    The branches of ``_reduce`` are looked up once per a, and the rows are
    grouped by their class g = gcd(a, n).  In one class n' = n / g is fixed,
    and so is the one arithmetic progression of b whose sums live:

        b = 0 (mod g)      when n' is odd,
        b = 0 (mod 2g)     when 4 | n',
        b = g (mod 2g)     when n' = 2 (mod 4);

    every other entry is an exact zero and is never computed.  Over the
    progression the completed-square phase -a' c^2 mod M (M the live
    branch's modulus) is K j^2 mod M, with j = b / g and
    K = -a'^{-1} ((M + 1) / 2)^2 for odd M, j = b / 2g and K = -a'^{-1} for
    4 | n'.  So the phases of a class are one int64 outer product of its
    rows' K and the one row of j^2 mod M, reduced mod M once per entry: no
    entry is divided.  A call renders one table of n roots,
    np.exp(2 pi i k / n), and reads e(num / M) as its entry num n / M: M
    divides n, so the floats num / M and (num n / M) / n are the same
    correctly rounded quotient, and np.exp works entry by entry, so each
    root has the bits of rendering num / M directly.  Each entry is the
    branch's size times that root.  A class is rendered in blocks of at
    most 2^17 entries, so the int64 and complex temporaries of a block stay
    within 3 MiB.  n and the a.size x n output are held to the grid budget
    before anything of their size is allocated.  No character table is
    shared with ``gauss_brute``.
    """
    n = as_int(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    check_grid_budget(n, 1)
    av = _residues(a, n)
    if av.size * n > DEFAULT_GRID_BUDGET:
        raise BudgetError(f"{av.size} Gauss rows of Z_{n} have {av.size * n} entries, "
                          f"exceeding the budget {DEFAULT_GRID_BUDGET}")
    out = np.zeros(av.shape + (n,), dtype=np.complex128)
    classes = {}  # g -> (M, rows, their K, their sizes)
    for row, ar in enumerate(av.ravel().tolist()):
        g, even, odd = _reduce(ar, n)
        mod, neg_inv, size = (even if even[3] else odd)[:3]  # odd n': one branch; else one lives
        if g not in classes:
            classes[g] = (mod, [], [], [])
        _, rows, k, sizes = classes[g]
        rows.append(row)
        k.append(neg_inv * ((mod + 1) // 2) ** 2 % mod if mod % 2 else neg_inv)
        sizes.append(size)
    flat = out.reshape(-1, n)
    b = np.arange(n)
    roots = np.exp(2j * np.pi * (b / n))
    squares = b * b
    for g, (mod, rows, k, sizes) in classes.items():
        if mod % 2:  # j = b' = b / g: all of Z_n' (n' = M), or its odd residues (n' = 2M)
            stride = n // g // mod
            j2, cols = squares[stride - 1 : n // g : stride], slice((stride - 1) * g, n, stride * g)
        else:  # 4 | n': j = b' / 2 = b / 2g
            j2, cols = squares[: mod // 2], slice(0, n, 2 * g)
        j2 = j2 % mod
        rows, k = np.array((rows, k))
        sizes = np.array(sizes)[:, None]
        roots_m = roots[:: n // mod]  # e(k / M) for k in Z_M
        step = max(1, 2**17 // j2.size)  # rows per block
        for lo in range(0, rows.size, step):
            num = np.multiply.outer(k[lo : lo + step], j2)
            num %= mod
            part = roots_m[num]
            del num
            # size * root in this operand order: with FMA the swapped product rounds differently
            np.multiply(sizes[lo : lo + step], part, out=part)
            flat[rows[lo : lo + step], cols] = part
            del part  # a block's temporaries are gone before the next one's are made
    return out
