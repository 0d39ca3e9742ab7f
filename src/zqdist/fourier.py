"""Fourier analysis on Z_q^d with the normalized transform pair

    F(m) = q^{-d} sum_x f(x) e^{-2 pi i (x . m)/q}
    f(x) = sum_m F(m) e^{+2 pi i (x . m)/q}

Grids are stored flat in row-major order: the flat index of (x_1, ..., x_d)
is its base-q reading with x_1 most significant.  Transforms are separable:
d one-dimensional length-q passes, O(d q^{d+1}) scalar work, no radix
restriction on q.  The q x q pass kernel costs 16 q^2 bytes whatever d is,
so transforms raise BudgetError once q^2 exceeds DEFAULT_GRID_BUDGET.
Phases are reduced mod q before exponentiation.  Every complex pass is one
matrix product that transforms the last axis and moves it to the front,
written into one of two reused buffers (_passes), so d passes bring the axes
back to their order and allocate nothing past those two grids.

A real grid has F(-m) = conj F(m), so `half_forward` keeps only the
q^{d-1} (q//2 + 1) frequencies with m_d <= q // 2: its last-axis pass is one
real product with the real and imaginary parts of those kernel columns.
`hermitian_inverse` takes such a half spectrum of a real, even function (a
power spectrum) back to its real, even grid on the same half x_d <= q // 2,
the last axis again as one real product, weighted by `half_weights`.  The
full complex `forward` and `inverse` serve complex grids and are the oracle
for both.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .arith import Modulus, as_modulus
from .errors import BudgetError, DomainError

__all__ = [
    "GridFunction",
    "Spectrum",
    "forward",
    "inverse",
    "half_forward",
    "hermitian_inverse",
    "half_weights",
    "plancherel_defect",
    "dft_reference",
    "orthogonality_max_defect",
    "character_table",
    "lattice_points",
    "index_of_point",
    "point_of_index",
    "DEFAULT_GRID_BUDGET",
]

DEFAULT_GRID_BUDGET = 10**7


def check_grid_budget(q: int, d: int, max_grid: int = DEFAULT_GRID_BUDGET) -> int:
    size = q**d
    if size > max_grid:
        raise BudgetError(f"grid Z_{q}^{d} has {size} points, exceeding the budget {max_grid}")
    return size


def index_of_point(point: Sequence[int], q: int, d: int) -> int:
    if len(point) != d:
        raise DomainError(f"expected {d} coordinates, got {len(point)}")
    idx = 0
    for c in point:
        idx = idx * q + (c % q)
    return idx


def point_of_index(index: int, q: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        index, r = divmod(index, q)
        out.append(r)
    return tuple(reversed(out))


@lru_cache(maxsize=64)
def character_table(q: int) -> np.ndarray:
    """e^{2 pi i k / q} for k in Z_q, the q-entry table behind all transforms."""
    tbl = np.exp(2j * np.pi * np.arange(q) / q)
    tbl.setflags(write=False)
    return tbl


def lattice_points(q: int, d: int) -> np.ndarray:
    """All points of Z_q^d as a (q^d, d) integer array in flat-index order."""
    check_grid_budget(q, d)
    pts = np.indices((q,) * d, dtype=np.int64).reshape(d, -1).T
    return np.ascontiguousarray(pts)


class _GridBase:
    """Flat complex data indexed by Z_q^d; values are immutable once built."""

    __slots__ = ("modulus", "d", "values")

    def __init__(self, q: "int | Modulus", d: int, values: Iterable[complex]) -> None:
        modulus = as_modulus(q)
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        vals = np.array(values, dtype=np.complex128).reshape(-1)
        if vals.size != modulus.q**d:
            raise DomainError(
                f"expected {modulus.q ** d} values for Z_{modulus.q}^{d}, got {vals.size}"
            )
        vals.setflags(write=False)
        self.modulus = modulus
        self.d = d
        self.values = vals

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def size(self) -> int:
        return self.values.size

    def grid(self) -> np.ndarray:
        return self.values.reshape((self.q,) * self.d)

    def index_of(self, point: Sequence[int]) -> int:
        return index_of_point(point, self.q, self.d)

    def point_of(self, index: int) -> tuple[int, ...]:
        return point_of_index(index, self.q, self.d)

    def __getitem__(self, point: Sequence[int]) -> complex:
        return complex(self.values[self.index_of(point)])

    def __len__(self) -> int:
        return self.values.size


class GridFunction(_GridBase):
    """A complex-valued function on Z_q^d."""


class Spectrum(_GridBase):
    """Fourier coefficients indexed by frequency vectors m in Z_q^d."""


@lru_cache(maxsize=64)
def _kernel(q: int, forward_sign: bool) -> np.ndarray:
    if q * q > DEFAULT_GRID_BUDGET:
        raise BudgetError(
            f"the Z_{q} transform kernel has {q * q} entries, exceeding the budget "
            f"{DEFAULT_GRID_BUDGET}"
        )
    phases = np.outer(np.arange(q), np.arange(q)) % q
    tbl = character_table(q)
    mat = np.conj(tbl)[phases] if forward_sign else tbl[phases]
    mat.setflags(write=False)
    return mat


def forward(f: GridFunction) -> Spectrum:
    """F(m) = q^{-d} sum_x f(x) e^{-2 pi i (x . m)/q}: d passes of _passes,
    the first reading f's values in place, then one scaling by q^{-d}."""
    buffers = np.empty((2, f.size), dtype=np.complex128)
    out = _passes(f.values, _kernel(f.q, True), f.d, buffers)
    out *= 1.0 / f.size
    return Spectrum(f.modulus, f.d, out)


def inverse(F: Spectrum) -> GridFunction:
    """f(x) = sum_m F(m) e^{+2 pi i (x . m)/q}; exact inverse of forward."""
    buffers = np.empty((2, F.size), dtype=np.complex128)
    return GridFunction(F.modulus, F.d, _passes(F.values, _kernel(F.q, False), F.d, buffers))


def half_weights(q: int) -> np.ndarray:
    """How many m_d in Z_q column m_d = 0, ..., q // 2 of a half spectrum stands for.

    Column m_d also stands for q - m_d, except m_d = 0 and, for even q,
    m_d = q / 2, which are their own negatives: w = 1 there and 2 elsewhere.
    So a sum over Z_q^d of an even function is the w-weighted sum over the
    half grid.
    """
    w = np.full(q // 2 + 1, 2.0)
    w[0] = 1.0
    if q % 2 == 0:
        w[-1] = 1.0
    return w


@lru_cache(maxsize=64)
def _half_kernels(q: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The real last-axis kernels of half_forward and hermitian_inverse, and h = q//2 + 1.

    The forward one is the columns m_d < h of the forward kernel, each split
    into its real and imaginary column, so a real (N, q) grid times it is the
    (N, h) complex result stored re/im interleaved.  The inverse one is the
    block m_d < h, x_d < h of the inverse kernel, each row split into a w Re
    and a -w Im row, with w from half_weights.  Both hold the table roots of
    _kernel; multiplying by w is exact.
    """
    h = q // 2 + 1
    fwd = np.ascontiguousarray(_kernel(q, True)[:, :h]).view(np.float64)
    w = half_weights(q)[:, None]
    inv = _kernel(q, False)[:h, :h]
    inv_real = np.stack([w * inv.real, -w * inv.imag], axis=1).reshape(2 * h, h)
    for arr in (fwd, inv_real):
        arr.setflags(write=False)
    return fwd, inv_real, h


def _passes(
    arr: np.ndarray, kernel: np.ndarray, count: int, buffers: Sequence[np.ndarray]
) -> np.ndarray:
    """`count` length-q passes of the symmetric q x q `kernel` over the flat grid `arr`.

    Each pass is one product, kernel @ arr.reshape(-1, q).T, written into
    the (q, rest) view of the next buffer: it transforms the last axis and
    moves it to the front, so d passes over Z_q^d leave the axes in their
    order.  Pass k writes buffers[k % 2] and reads the previous pass, so only
    the first pass reads `arr`, which may be read-only.  Each of the two
    buffers (a pair of arrays, or the rows of a (2, arr.size) array) must be
    C-contiguous with arr.size entries: a reshape of any other layout is a
    copy, and the product would land in it and be lost.
    """
    q = len(kernel)
    for k in range(count):
        out = buffers[k % 2]
        np.matmul(kernel, arr.reshape(-1, q).T, out=out.reshape(q, -1))
        arr = out
    return arr


def half_forward(values: np.ndarray, q: int, d: int) -> np.ndarray:
    """The forward transform of a real grid, on the frequencies with m_d <= q // 2.

    A real f has F(-m) = conj F(m), so these (q^{d-1}, q//2 + 1) coefficients,
    row-major over (m_1, ..., m_{d-1}) and then m_d, determine the rest.  The
    last axis is one real product with the real and imaginary parts of the
    kernel columns m_d <= q // 2.  Its transpose, scaled by q^-d, is the
    (q//2 + 1, q^{d-1}) grid with m_d in front, and d - 1 complex passes
    (_passes, the real product's memory the spare buffer) bring m_d back to
    the last axis.  Each coefficient is a q-term dot product per pass with
    the table roots of `forward`.
    """
    fwd, _, h = _half_kernels(q)
    first = (np.asarray(values, dtype=np.float64).reshape(-1, q) @ fwd).view(np.complex128)
    front = np.multiply(first.T, 1.0 / q**d, order="C")
    out = _passes(front, _kernel(q, True), d - 1, (first, front))
    return out.reshape(q ** (d - 1), h)


def hermitian_inverse(half: np.ndarray, q: int, d: int) -> np.ndarray:
    """The inverse of a real, even spectrum given in the half_forward layout,
    on the half grid x_d <= q // 2 in that layout.

    F(-m) = F(m) = conj F(m), so the inverse is real and even, and its half
    grid determines it.  The half spectrum is transposed once, m_d to the
    front, and d - 1 complex passes (_passes) bring m_d back to the last
    axis.  That axis then sums h = q//2 + 1 terms w Re(B(m_d) e(x_d m_d / q))
    for each x_d < h as one real product, with w = 1 for m_d = 0 and for
    m_d = q/2 (even q), which are their own negatives, and w = 2 for every
    other m_d, which also stands for q - m_d.
    """
    _, inv_real, h = _half_kernels(q)
    front = np.asarray(np.reshape(half, (-1, h)).T, dtype=np.complex128, order="C")
    arr = _passes(front, _kernel(q, False), d - 1, (np.empty_like(front), front))
    return arr.reshape(-1, h).view(np.float64) @ inv_real


def plancherel_defect(f: GridFunction, g: GridFunction) -> float:
    """| q^{-d} sum_x f conj(g)  -  sum_m F conj(G) |, a test statistic."""
    if f.q != g.q or f.d != g.d:
        raise DomainError(f"shape mismatch: Z_{f.q}^{f.d} vs Z_{g.q}^{g.d}")
    lhs = np.vdot(g.values, f.values) / f.size
    rhs = np.vdot(forward(g).values, forward(f).values)
    return float(abs(lhs - rhs))


def dft_reference(f: GridFunction, max_size: int = 20_000) -> Spectrum:
    """The O(q^{2d}) double-sum transform straight from the definition.

    Independent of the separable path; intended as a small-grid oracle.
    """
    if f.size > max_size:
        raise BudgetError(f"reference DFT limited to {max_size} points, got {f.size}")
    pts = lattice_points(f.q, f.d)
    phases = (pts @ pts.T) % f.q
    kernel = np.conj(character_table(f.q))[phases]
    return Spectrum(f.modulus, f.d, (kernel.T @ f.values) / f.size)


def _residue_histograms(s: np.ndarray, q: int) -> np.ndarray:
    """h[i, r] = #{x in Z_q : x s_i = r mod q} for each s_i, binned over all x."""
    phases = np.multiply.outer(s, np.arange(q, dtype=np.int64))
    phases %= q
    phases += q * np.arange(len(s), dtype=np.int64)[:, None]
    return np.bincount(phases.ravel(), minlength=phases.size).reshape(phases.shape)


def orthogonality_max_defect(q: int, d: int, max_grid: int = DEFAULT_GRID_BUDGET) -> float:
    """max over m of | q^{-d} sum_x e^{2 pi i (x . m)/q} - [m = 0] |.

    No transform code is involved.  The sum over x is the dot of the exact
    counts c[m, k] = #{x in Z_q^d : x . m = k mod q} with the q-th roots of
    unity, so the only rounding is in that dot.  The counts are the d-fold
    cyclic convolution of the per-coordinate histograms h[s, r] =
    #{x in Z_q : x s = r mod q}, each binned over Z_q: for m = (m', s),
    c[m] = c[m'] (*) h[s], with (*) the cyclic convolution over Z_q.  For a
    block of rows c[m'] that is one integer product, of h with the q x q
    circulant of each row, so the work is O(q^{d+2}) in place of the q^{2d}
    pairs (x, m).  The counts of the first d - 1 coordinates are kept
    (8 q^d bytes, twice that while they are built); the last coordinate is
    streamed in blocks of max(2^20 // q^d, 2^10 // q, 1) rows of m in flat
    order.  BLAS bits depend on the call shape, so for q^{d-1} <= 2^10 the
    blocks are those of the pair-binning reference in the tests, which bins
    all (x, m), and each dot there is the same call with the same float
    result; the floor keeps larger grids from being cut into single rows.
    """
    n = check_grid_budget(q, d, max_grid)
    tbl = character_table(q)
    ks = np.arange(q, dtype=np.int64)
    if d > 1:
        h = _residue_histograms(ks, q)
        circulant = (ks[None, :] - ks[:, None]) % q  # row[circulant][r, k] = row[k - r]
        prefix = h  # the counts c[m'] of Z_q^1, one row per m'
        for _ in range(d - 2):
            prefix = (h @ prefix[:, circulant]).reshape(-1, q)
    worst = 0.0
    chunk = max(2**20 // n, 2**10 // q, 1)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        if d == 1:
            counts = _residue_histograms(np.arange(lo, hi, dtype=np.int64), q)
        else:  # rows m = (m', s) for m' in [lo // q, (hi - 1) // q], cut to [lo, hi)
            p0 = lo // q
            counts = (h @ prefix[p0 : (hi - 1) // q + 1][:, circulant]).reshape(-1, q)
            counts = counts[lo - p0 * q : hi - p0 * q]
        sums = counts @ tbl / n
        if lo == 0:
            sums[0] -= 1.0
        worst = max(worst, float(np.abs(sums).max()))
    return worst
