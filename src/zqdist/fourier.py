"""Fourier analysis on Z_q^d with the normalized transform pair

    F(m) = q^{-d} sum_x f(x) e^{-2 pi i (x . m)/q}
    f(x) = sum_m F(m) e^{+2 pi i (x . m)/q}

Grids are stored flat in row-major order: the flat index of (x_1, ..., x_d)
is its base-q reading with x_1 most significant.  Transforms are separable:
d one-dimensional length-q passes, O(d q^{d+1}) scalar work, no radix
restriction on q.  The q x q pass kernel costs 16 q^2 bytes whatever d is,
so transforms raise BudgetError once q^2 exceeds DEFAULT_GRID_BUDGET; tables
of at most 2^16 entries are kept, larger ones shared only while held (_table).
Phases are reduced mod q before exponentiation.  One pass engine (_passes)
serves every transform in one grid and a scratch of at most _BLOCK = 2^16
entries: the leading axes, while the rest of the grid past them exceeds
_BLOCK, are transformed in place a column chunk at a time through the
scratch; then each block of the trailing axes, at most _BLOCK entries, gets
all its passes while it stays in L2, alternating with the scratch, and
comes out in natural order.  The grid is all of Z_q^d, or a slab of rows of
its first axis whose first pass is already done.

Sums over Z_q^d that are closed under every sign flip m_i -> -m_i need only
the orbit sums over the orthant [0, q // 2]^d.  `orbit_power` gives the
orbit sums of |F|^2 for the indicator of a set, read from its sorted flat
support, from d unscaled real passes with q x q cosine and sine rows.  Their
output is squared in place and folded one axis at a time by slice sums, the
sine rows added into the cosine rows; the orbit sizes, powers of two, and
one division by q^{2d} then scale only the (q//2 + 1)^d result.  No q^d
indicator is ever built.  A set of at most q^(d-1) points builds no q^d
grid either: the transform runs in slabs of first-axis rows, at most
_BLOCK entries when a row fits, each slab's first pass weighted bincounts
of the set's rows, and each slab is squared and folded while it sits in L2.
A larger set scatters its ones into one q^d grid.
`orbit_inverse` gives the orbit sums of an inverse transform from the orbit
sums of its spectrum, by d real passes with (q//2 + 1)^2 cosine matrices.
The complex `forward` and `inverse` serve complex grids and are the oracle
for both.
"""

from __future__ import annotations

import weakref
from functools import lru_cache, wraps
from typing import Iterable, Sequence

import numpy as np

from .arith import Modulus, as_int, as_modulus
from .errors import BudgetError, DomainError

__all__ = [
    "GridFunction",
    "Spectrum",
    "forward",
    "inverse",
    "orbit_power",
    "orbit_inverse",
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
    """q^d, the size of Z_q^d, or BudgetError past max_grid: the one size
    gate of every grid, table and histogram.  For |q| >= 2 and
    d >= max_grid.bit_length(), q^d >= 2^d > max_grid is refused before q^d
    is formed, so a huge d costs nothing."""
    if abs(q) >= 2 and d >= int(max_grid).bit_length():
        raise BudgetError(f"grid Z_{q}^{d} has at least 2^{d} points, "
                          f"exceeding the budget {max_grid}")
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


# The one cache rule (_table): a table of at most this many entries is kept, 16
# per builder (16 MiB if complex); a larger one is shared only while it is held.
_CACHED_TABLE_ENTRIES = 1 << 16


def _table(entries):
    """Decorate a builder of read-only tables keyed by its arguments, a table
    having entries(*key) entries: keep those of at most _CACHED_TABLE_ENTRIES,
    least recently used out, and hold larger ones only by weak reference.
    The q x q tables take check_grid_budget(q, 2) as `entries`: refused past
    DEFAULT_GRID_BUDGET, whatever max_grid is, before any lookup."""
    def decorate(build):
        kept, shared = lru_cache(maxsize=16)(build), weakref.WeakValueDictionary()

        @wraps(build)
        def table(*key):
            if entries(*key) <= _CACHED_TABLE_ENTRIES:
                return kept(*key)
            if (tbl := shared.get(key)) is None:
                tbl = shared[key] = build(*key)
            return tbl

        table.cache_clear, table.cache_info = kept.cache_clear, kept.cache_info
        return table

    return decorate


def _roots(q) -> int:
    """q, the size of the character table of Z_q, once checked to be an
    integer >= 1 within the grid budget, before any lookup or allocation."""
    if as_int(q, "q") < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return check_grid_budget(q, 1)


@_table(_roots)
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
        # q >= 2, so d >= vals.size.bit_length() means q^d > vals.size, unformed
        if d >= vals.size.bit_length() or vals.size != modulus.q**d:
            raise DomainError(f"expected {modulus.q}^{d} values for Z_{modulus.q}^{d}, "
                              f"got {vals.size}")
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

    @classmethod
    def _own(cls, modulus: Modulus, d: int, values: np.ndarray):
        """Wrap a fresh flat complex128 grid that no one else holds, with no
        copy: it is made read-only in place."""
        obj = cls.__new__(cls)
        values.setflags(write=False)
        obj.modulus, obj.d, obj.values = modulus, d, values
        return obj


class GridFunction(_GridBase):
    """A complex-valued function on Z_q^d."""


class Spectrum(_GridBase):
    """Fourier coefficients indexed by frequency vectors m in Z_q^d."""


@_table(lambda q, *_: check_grid_budget(q, 2))
def _kernel(q: int, forward_sign: bool) -> np.ndarray:
    phases = np.outer(np.arange(q), np.arange(q)) % q
    tbl = character_table(q)
    mat = np.conj(tbl)[phases] if forward_sign else tbl[phases]
    mat.setflags(write=False)
    return mat


def forward(f: GridFunction) -> Spectrum:
    """F(m) = q^{-d} sum_x f(x) e^{-2 pi i (x . m)/q}: the d passes of
    _passes into one fresh grid, the first reading f's values in place,
    then one scaling by q^{-d}; the Spectrum takes that grid as it is."""
    out = _passes(f.values, np.empty_like(f.values), _kernel(f.q, True), f.d)
    out *= 1.0 / f.size
    return Spectrum._own(f.modulus, f.d, out)


def inverse(F: Spectrum) -> GridFunction:
    """f(x) = sum_m F(m) e^{+2 pi i (x . m)/q}; exact inverse of forward, by
    the same passes into one fresh grid."""
    out = _passes(F.values, np.empty_like(F.values), _kernel(F.q, False), F.d)
    return GridFunction._own(F.modulus, F.d, out)


def half_weights(q: int) -> np.ndarray:
    """The size of the sign orbit {m, -m} of each m = 0, ..., q // 2 in Z_q,
    for an integer q >= 1 (else DomainError) within DEFAULT_GRID_BUDGET
    (else BudgetError), checked as for character_table.

    m = 0 and, for even q, m = q / 2 are their own negatives: w = 1 there
    and 2 elsewhere.  The orbit of s in the orthant [0, q // 2]^d of Z_q^d
    has prod_i w(s_i) members, and the orbits partition Z_q^d.
    """
    q = _roots(q)
    w = np.full(q // 2 + 1, 2.0)
    w[0] = 1.0
    if q % 2 == 0:
        w[-1] = 1.0
    return w


def _orbit_shape(q, d) -> tuple[int, int]:
    """(q, d) of an orbit transform on Z_q^d, once both are checked to be
    integers with q >= 1 and d >= 1."""
    q, d = as_int(q, "q"), as_int(d, "the dimension")
    if q < 1 or d < 1:
        raise DomainError(f"an orbit transform needs q >= 1 and d >= 1, got q = {q}, d = {d}")
    return q, d


@_table(lambda q, *_: check_grid_budget(q, 2))
def _orbit_basis(q: int) -> np.ndarray:
    """The q x q real basis of orbit_power, one function of x per row:
    cos(2 pi x m / q) for m = 0, ..., q // 2, then sin(2 pi x m / q) for
    m = 1, ..., (q - 1) // 2.  Those are q rows for every q; the sine of
    m = 0 and of m = q / 2 vanishes.  The entries are the parts of the table
    roots of _kernel, gathered from the real and imaginary parts of
    character_table by one phase table reduced in place: no complex q x q
    array is made."""
    h = q // 2 + 1
    phases = np.multiply.outer(np.concatenate([np.arange(h), np.arange(1, q - h + 1)]),
                               np.arange(q))
    phases %= q
    tbl, basis = character_table(q), np.empty((q, q))
    np.take(tbl.real, phases[:h], out=basis[:h], mode="clip")
    np.take(tbl.imag, phases[h:], out=basis[h:], mode="clip")
    basis.setflags(write=False)
    return basis


@_table(lambda q, *_: check_grid_budget(q, 2))
def _orbit_cosines(q: int) -> np.ndarray:
    """The (q//2 + 1)^2 matrix w(r) cos(2 pi r s / q) of orbit_inverse, row r,
    column s, with w = half_weights(q) (multiplying by 1 or 2 is exact)."""
    h = q // 2 + 1
    cos = character_table(q).real[np.outer(np.arange(h), np.arange(h)) % q]
    cos *= half_weights(q)[:, None]
    cos.setflags(write=False)
    return cos


def _pass_charge(q: int) -> float:
    """(q + 11) eps, the rounding of one length-q pass relative to the absolute
    sum of its terms: at most q roundings by eps/2, table roots within 11 eps.
    Every output of every pass is one length-q dot product, whether the pass
    runs on the whole grid, on a slab of orbit_power or as its bincounts, so
    one charge serves them all."""
    return (q + 11) * float(np.finfo(np.float64).eps)


# The scratch of _passes holds at most this many entries (512 KiB of float64,
# 1 MiB of complex): a block of the trailing axes and its scratch stay in L2.
_BLOCK = 1 << 16


def _passes(src: np.ndarray, grid: np.ndarray, kernel: np.ndarray, d: int,
            first: int = 0) -> np.ndarray:
    """Passes first, ..., d - 1 of the n x n `kernel` over axes of extent n,
    into the flat C-contiguous `grid`, which it returns: pass i replaces
    axis i by sum_x kernel[m, x] a[..., x, ...].  The grid holds g n^(d-1)
    entries, g the extent of axis 0: all of Z_n^d, or a slab of g rows of
    its first axis when first >= 1.  Pass `first` reads `src` (the grid
    itself, or an array of its size that may be read-only), every later one
    the grid, so the grid ends with the transform in natural order.  Past
    the grid only a scratch of min(grid.size, _BLOCK) entries is allocated;
    n must not exceed _BLOCK, as the kernel budget ensures.

    With j = max(first, the least j with n^(d - j) <= _BLOCK):

    * axes first, ..., j - 1 are transformed in place, each as
      kernel @ grid.reshape(grid.size // n^(d - i), n, -1) in column chunks
      of at most _BLOCK // n columns, through the scratch and copied back;
    * the k = d - j trailing axes form contiguous blocks of n^k entries,
      taken in groups of as many whole blocks as fit the scratch.  A group
      gets k products that transform the first axis of each block and move
      it to the back, blk.reshape(c, n, -1).transpose(0, 2, 1) @ kernel.T
      (one 2-D product when c = 1 or k = 1, (c, n) @ kernel.T for lines),
      alternating between the group and the scratch, so each block's axes
      are back in their order after k passes.  A group read from the grid
      with k odd ends in the scratch and is copied back; one read from a
      separate src starts in whichever of the two makes it end in the grid.
      A grid of at most _BLOCK entries is one block: d products, no
      in-place pass.

    Each output is one length-n dot product, so every pass rounds as
    _pass_charge says, whatever the schedule and the slab.
    """
    n = kernel.shape[0]
    if first == d:
        return grid
    size = grid.size
    scratch = np.empty(min(size, _BLOCK), grid.dtype)
    j = first
    while n ** (d - j) > _BLOCK:
        j += 1
    width = _BLOCK // n
    for i in range(first, j):
        out = grid.reshape(size // n ** (d - i), n, -1)
        inp = src.reshape(out.shape) if i == first else out
        cols = out.shape[2]
        for a in range(out.shape[0]):
            for lo in range(0, cols, width):
                hi = min(lo + width, cols)
                tmp = scratch[: n * (hi - lo)].reshape(n, hi - lo)
                np.matmul(kernel, inp[a, :, lo:hi], out=tmp)
                out[a, :, lo:hi] = tmp
    k, kt = d - j, kernel.T
    block = n**k
    group = _BLOCK // block * block
    for lo in range(0, size, group):
        hi = min(lo + group, size)
        c = (hi - lo) // block
        blk, tmp = grid[lo:hi], scratch[: hi - lo]
        inp = blk if j > first or src is grid else src[lo:hi]
        outs = (tmp, blk) if inp is blk or k % 2 == 0 else (blk, tmp)
        for p in range(k):
            out = outs[p % 2]
            if k == 1:
                np.matmul(inp.reshape(c, n), kt, out=out.reshape(c, n))
            elif c == 1:
                np.matmul(inp.reshape(n, -1).T, kt, out=out.reshape(-1, n))
            else:
                np.matmul(inp.reshape(c, n, -1).transpose(0, 2, 1), kt,
                          out=out.reshape(c, -1, n))
            inp = out
        if out is tmp:
            blk[:] = tmp
    return grid


# A ufunc over strided views buffers each operand in up to np.getbufsize()
# entries: 192 KiB for the three of one slice sum at numpy's default 8192.
# The folds of orbit_power run with this many, 24 KiB.
_SLICE_BUFSIZE = 1024


def _fold(grid: np.ndarray, q: int, first: int) -> np.ndarray:
    """Fold the squared coefficients of orbit_power over axes first, ...,
    in place, and return the narrowed view: on each axis the sine rows
    h..q-1 (m = 1, ..., q - h) are added into the cosine rows 1..q-h by one
    slice sum, and the view narrows to the h = q//2 + 1 cosine rows."""
    h = q // 2 + 1
    for axis in range(first, grid.ndim):
        pre = (slice(None),) * axis
        grid[pre + (slice(1, q - h + 1),)] += grid[pre + (slice(h, q),)]
        grid = grid[pre + (slice(h),)]
    return grid


def orbit_power(
    support: np.ndarray, q: int, d: int, max_grid: int = DEFAULT_GRID_BUDGET
) -> np.ndarray:
    """O(s) = sum_{m in orbit(s)} |F(m)|^2 for the forward transform F of the
    indicator of a set, on the orthant [0, q // 2]^d: an array of shape
    (q//2 + 1,)^d.  `support` holds the set's flat indices, strictly
    increasing within [0, q^d) (PointSet.flat_indices), with q >= 1 and
    d >= 1 integers; q^d must fit max_grid.  All of this is checked, in one
    vectorized pass over the support, before anything is allocated, and a
    bad argument raises DomainError (BudgetError past max_grid).

    The orbit of s is {(+-s_1, ..., +-s_d)}.  Write F(m) through the real
    coefficients C_phi(s) = q^{-d} sum_x f(x) prod_i phi_i(x_i), each phi_i
    the cosine or (for s_i != -s_i) the sine of 2 pi x s_i / q: the 2^k
    values of F on an orbit with k axes s_i != -s_i are a Walsh transform
    of the 2^k coefficients C_phi(s), so O(s) = 2^k sum_phi C_phi(s)^2.
    Hence d real passes with the basis _orbit_basis give every q^d C_phi,
    unscaled.  Two forms, by the size of the set:

    * at most q^(d-1) points, no more than the lines of the first axis: no
      q^d grid is made.  The transform runs in slabs of
      G = max(1, min(q, _BLOCK // q^(d-1))) first-axis output rows, all in
      one slab buffer.  Row j of a slab's first pass is one weighted
      bincount of the suffixes flat mod q^(d-1), with weights
      basis[j, flat // q^(d-1)], written in the slab's (m_1, x_2, ..., x_d)
      layout, O(q (|E| + q^(d-1))) work over all slabs.  The slab gets the
      d - 1 other passes of _passes, and while it sits in L2 it is squared
      in place and folded (_fold) over axes 2..d; then the fold of axis 1
      copies cosine row r into row r of the result and adds sine row r into
      row r - h + 1, whose cosine row came in an earlier or the same slab.
      A grid of at most _BLOCK entries is one slab of all q rows;
    * more points: the indicator's ones are scattered into one zeroed q^d
      grid, which gets all d passes of _passes, is squared in place and is
      folded (_fold) over all d axes, axis 1 first.

    Timed warm with the rest of the transform (median of 15 interleaved
    calls in one process, BLAS on one thread, 2-core Xeon VM), the slabs win
    or tie below about q^(d-1)/8 on Z_3^12 and Z_9^6, below about
    q^(d-1)/2 on Z_15^5, and up to q^(d-1) on Z_45^4 (at q^(d-1) points:
    8.7 against 7.2 ms on Z_3^12, 6.0 against 4.5 ms on Z_9^6, 8.6 against
    7.3 ms on Z_15^5, 58.5 against 64.6 ms on Z_45^4).  No rule on |E|
    alone wins on all four, so the bound stays at q^(d-1); below it the
    slabs also hold less memory than the q^d grid and fault fewer pages in
    a cold call.

    Each output of either form sums at most q basis entries, the bincount's
    in increasing x_1 since the support is sorted, so _pass_charge bounds
    its rounding, whatever the slab.  Each output of the folds adds its
    sine term once per axis, a rounding of nonnegative terms, in whichever
    order the axes are folded.  Only then, on the h^d result, come the
    weights w(s) of half_weights, powers of two and so exact, and one
    division by q^{2d}: one rounding while q^{2d} < 2^53, within eps past
    it.  The slice sums run with _SLICE_BUFSIZE.  The peak of the slabs is
    the slab, the scratch of _passes, one bincount row, O(|E|) for the
    support's digits and weights, and the result; that of the grid is the
    grid, the scratch and the result.
    """
    q, d = _orbit_shape(q, d)
    n = check_grid_budget(q, d, max_grid)
    support = np.asarray(support)
    if support.dtype.kind not in "iu" or support.ndim != 1:
        raise DomainError(f"orbit_power reads a 1-D array of flat indices, got a "
                          f"{support.ndim}-D {support.dtype} array")
    if support.size and (support[0] < 0 or support[-1] >= n
                         or (support[1:] <= support[:-1]).any()):
        raise DomainError(f"orbit_power reads flat indices strictly increasing within "
                          f"[0, {n}) for Z_{q}^{d}")
    support = support.astype(np.int64, copy=False)  # a narrow dtype cannot take q^(d-1)
    h = q // 2 + 1
    basis = _orbit_basis(q)
    lines = n // q
    bufsize = np.setbufsize(_SLICE_BUFSIZE)
    try:
        if support.size <= lines:
            out = np.empty((h,) * d)
            rows = max(1, min(q, _BLOCK // lines))
            head, tail = np.divmod(support, lines)
            slab = np.empty(rows * lines)
            for lo in range(0, q, rows):
                hi = min(lo + rows, q)
                grid = slab[: (hi - lo) * lines]
                for row, phi in zip(grid.reshape(-1, lines), basis[lo:hi]):
                    row[:] = np.bincount(tail, phi[head], lines)
                _passes(grid, grid, basis, d, 1)
                np.square(grid, out=grid)
                folded = _fold(grid.reshape((-1,) + (q,) * (d - 1)), q, 1)
                if lo < h:  # cosine rows lo, ..., min(hi, h) - 1 into their own rows
                    out[lo:hi] = folded[: h - lo]
                if hi > h:  # sine rows r = max(lo, h), ..., hi - 1 into rows r - h + 1
                    r = max(lo, h)
                    out[r - h + 1 : hi - h + 1] += folded[r - lo :]
            out /= float(q ** (2 * d))
        else:
            grid = np.empty(n)
            grid[:] = 0.0
            grid[support] = 1.0
            _passes(grid, grid, basis, d)
            np.square(grid, out=grid)
            out = _fold(grid.reshape((q,) * d), q, 0) / float(q ** (2 * d))
    finally:
        np.setbufsize(bufsize)
    for axis in range(d):  # w = 2, exactly, on the rows that took a sine row
        out[(slice(None),) * axis + (slice(1, q - h + 1),)] *= 2.0
    return out


def orbit_inverse(orbit: np.ndarray, q: int, d: int) -> np.ndarray:
    """sum_{z in orbit(r)} f(z) on the orthant, f being the inverse transform
    of a spectrum F whose orbit sums are `orbit` (the layout of orbit_power:
    (q//2 + 1)^d entries, q >= 1 and d >= 1 integers, else DomainError).

    sum_{z in orbit(r)} e(z . m / q) = prod_i w(r_i) cos(2 pi r_i m_i / q)
    does not change when any m_i changes sign, so the orbit sums of f are
    sum_s orbit(s) prod_i w(r_i) cos(2 pi r_i s_i / q): d real passes
    (_passes) with the (q//2 + 1)^2 matrix _orbit_cosines, into one fresh
    (q//2 + 1)^d grid, the first reading `orbit` in place.
    """
    q, d = _orbit_shape(q, d)
    h, size = q // 2 + 1, np.size(orbit)
    if (h >= 2 and d >= size.bit_length()) or size != h**d:  # bound first, as for a grid
        raise DomainError(f"the orbit sums of Z_{q}^{d} have {h}^{d} entries, got {size}")
    flat = np.asarray(orbit, dtype=np.float64).reshape(-1)
    return _passes(flat, np.empty(flat.size), _orbit_cosines(q), d).reshape((h,) * d)


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
