"""Spheres S_t = {x in Z_q^d : x_1^2 + ... + x_d^2 = t}.

Exact counts by exhaustive enumeration, the character-sum count formula

    |S_t| = q^{d-1} + II_t,  II_t = q^{-1} sum_{s != 0} e^{-2 pi i s t / q} G(s, q)^d

evaluated exactly in integers, one closed form per prime power of q joined
by CRT, with its explicit per-prime-power error bound, and the Fourier
coefficients of the sphere indicator by two independent routes: the direct
transform of the enumerated indicator (the oracle), and the Gauss-sum
product formula

    S_t^(m) = q^{-d-1} sum_s e^{-2 pi i s t / q} prod_i G(s, -m_i, q).

For odd q those Gauss sums make S_t^(m) depend on m only through its class,
g = gcd(m, q) and ||m/g|| mod q/g (Iosevich-Rudnev 2007;
Covert-Iosevich-Pakianathan 2012): at most sigma(q) classes, exactly sigma(q)
for d >= 3.  The sigma(q) x q class kernel K[c, t] = S_t^(m), m in class c,
holds every coefficient of every sphere.  It is built from one
representative per class by either route: "direct" convolves over Z_q, one
coordinate at a time, the sums U[mu](b) of e(-x mu / q) over the square
roots x of b for the j <= 3 nonzero coordinates mu of m with the exact
sphere counts of the other d - j coordinates, in O(j q^2) and with no grid
enumerated; "formula" multiplies the Gauss sums and takes one length-q DFT
over s.  The formula kernel is the only evaluation of the
Gauss-sum product: the formula spectrum of S_t is its column t spread over
the members of each class.  The spectral sweep of distset reads nu(t) off
the kernel; the direct spectra are its oracle.

This module owns the form's tables: the squares x^2 mod q (_squares), and
the norms (_norms) and class slots (_class_ids, laid out by _class_slots) of
any box [0, h)^d.  h = q is the whole grid; classes and spheres are closed
under sign flips, so the representatives and distset's class and sphere
sums read the sign orthant, h = q // 2 + 1.

Formula routes require odd q; enumeration works for any q within budget and
is the oracle of the count formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arith import Modulus, Residue, as_int, as_modulus, jacobi, tau
from .errors import DomainError, InconsistencyError
from .fourier import (
    DEFAULT_GRID_BUDGET,
    GridFunction,
    Spectrum,
    _kernel,
    _table,
    character_table,
    check_grid_budget,
    forward,
    point_of_index,
)
from .gauss import gauss_row

__all__ = [
    "SphereSpec",
    "SphereCountReport",
    "FactorBoundCheck",
    "SizeBoundReport",
    "DecayReport",
    "sphere_spec",
    "sphere_enumerate",
    "sphere_counts_all",
    "sphere_indicator",
    "sphere_count_formula",
    "sphere_size_bound_check",
    "sphere_fourier_direct",
    "sphere_spectrum_formula",
    "sphere_spectrum",
    "decay_report",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SphereSpec:
    """Identifies S_t inside Z_q^d."""

    modulus: Modulus
    d: int
    t: Residue

    def __post_init__(self) -> None:
        if as_int(self.d, "the dimension") < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.t.modulus != self.modulus:
            raise DomainError("t must be a residue mod q")

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def t_value(self) -> int:
        return self.t.value


def sphere_spec(q: "int | Modulus", d: int, t: "int | Residue") -> SphereSpec:
    m = as_modulus(q)
    tv = t if isinstance(t, Residue) else Residue(as_int(t, "t"), m)
    return SphereSpec(m, d, tv)


def _narrow_dtype(top: int) -> np.dtype:
    """The narrowest unsigned dtype that holds 0, ..., top when that is uint8
    or uint16, else int64: a residue or slot table of q^d entries then takes
    one or two bytes a point for q <= 2^15."""
    dtype = np.min_scalar_type(top)
    return dtype if dtype.itemsize <= 2 else np.dtype(np.int64)


def _form_flat(q: int, tables: Sequence[np.ndarray]) -> np.ndarray:
    """tables[0][x_1] + ... + tables[d-1][x_d] mod q for every flat index,
    row-major, from tables of residues in [0, q).

    The sums are built in _narrow_dtype(2 q - 2), so no int64 q^d temporary
    is made for q <= 2^15; one table already in that dtype is returned as it
    is.  Several are split in two halves, each summed on its own, and the
    result is their outer sum: besides it, only the halves' tables of about
    sqrt(q^d) entries exist.  Each outer sum of two residues is below 2 q, so
    it is reduced by subtracting q where it reaches q, read on the unsigned
    view as min(s, s - q) (s - q wraps above s when s < q), one block of 2^16
    entries at a time.
    """
    dtype = _narrow_dtype(2 * q - 2)
    if len(tables) == 1:
        return np.asarray(tables[0], dtype=dtype)
    half = len(tables) // 2
    acc = np.add.outer(_form_flat(q, tables[:half]), _form_flat(q, tables[half:])).reshape(-1)
    wrap = acc.view(f"u{dtype.itemsize}")
    for lo in range(0, wrap.size, 1 << 16):
        block = wrap[lo : lo + (1 << 16)]
        np.minimum(block, block - q, out=block)
    return acc


@_table(lambda q: q)
def _squares(q: int) -> np.ndarray:
    """x^2 mod q for x in Z_q, int64 and read-only: the one square table of
    the norm tables, the sphere-count rows and the direct kernel."""
    squares = np.arange(q, dtype=np.int64)
    squares *= squares
    squares %= q
    squares.setflags(write=False)
    return squares


@_table(lambda q, d, h: h**d)
def _norms(q: int, d: int, h: int) -> np.ndarray:
    """x_1^2 + ... + x_d^2 mod q for every x in the box [0, h)^d, flat and
    row-major, in _form_flat's dtype: one byte a point for q <= 128, two for
    q <= 2^15 (at most 20 MB at the default grid budget), eight beyond.  The
    orthant h = q // 2 + 1 meets every sign orbit once, and an orbit lies on
    one sphere, so a sum of orbit sums by sphere is one bincount by its table."""
    acc = _form_flat(q, [_squares(q)[:h]] * d)
    acc.setflags(write=False)
    return acc


@_table(lambda q, d: q)
def _counts_cached(q: int, d: int) -> np.ndarray:
    # np.bincount copies a block to intp and returns q counts: blocks of max(2^16, q)
    norms, step = _norms(q, d, q), max(1 << 16, q)
    counts = np.zeros(q, dtype=np.intp)
    for lo in range(0, norms.size, step):
        counts += np.bincount(norms[lo : lo + step], minlength=q)
    counts.setflags(write=False)
    return counts


def sphere_counts_all(q: "int | Modulus", d: int, max_grid: int = DEFAULT_GRID_BUDGET) -> np.ndarray:
    """|S_t| for every t in Z_q at once, by exhaustive enumeration."""
    m = as_modulus(q)
    if as_int(d, "d") < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    check_grid_budget(m.q, d, max_grid)
    return _counts_cached(m.q, d)


def sphere_enumerate(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> list[tuple[int, ...]]:
    """All points of S_t in lexicographic order, by scanning the full grid."""
    check_grid_budget(spec.q, spec.d, max_grid)
    norms = _norms(spec.q, spec.d, spec.q)
    idx = np.flatnonzero(norms == spec.t_value)
    return [point_of_index(int(i), spec.q, spec.d) for i in idx]


def sphere_indicator(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> GridFunction:
    """The 0/1 indicator of S_t as a grid function."""
    check_grid_budget(spec.q, spec.d, max_grid)
    return GridFunction(spec.modulus, spec.d, _norms(spec.q, spec.d, spec.q) == spec.t_value)


@dataclass(frozen=True)
class SphereCountReport:
    """|S_t| together with its main term q^{d-1} and error term."""

    exact_count: int
    main_term: int
    ii_t: int
    ii_bound: float | None  # combined multiplicatively over prime-power factors; None for d <= 2


def _error_term(p: int, a: int, d: int, t: int) -> int:
    """II_t = |S_t| - q^{d-1} in Z_q^d for q = p^a with p an odd prime, exactly.

    II_t = q^{-1} sum_{s != 0} e(-st/q) G(s, q)^d.  Group s = p^j u with u a
    unit mod p^k, k = a - j: then G(s, q) = p^j (u/p)^k eps_{p^k} sqrt(p^k),
    where eps_n = 1 for n = 1 (mod 4) and i otherwise, so eps_p^2 = (-1/p).
    The sum over u of e(-ut/p^k) G(s, q)^d is

    - for k d even, p^{jd + kd/2} eps_{p^k}^d c_{p^k}(t), with the Ramanujan
      sum c_{p^k}(t) = p^k [p^k | t] - p^{k-1} [p^{k-1} | t] and
      eps_{p^k}^d = 1 for even k, (eps_p^2)^{d/2} for odd k;
    - for k d odd, zero unless t = p^{k-1} t', and then
      (eps_p^2)^{(d+1)/2} (-t'/p) p^{jd + k - 1 + (kd+1)/2}.

    Every term is an integer, and their sum is divisible by q.
    """
    t %= p**a
    eps_sq = 1 if p % 4 == 1 else -1
    total = 0
    for j in range(a):
        k = a - j
        lower = p ** (k - 1)
        if k * d % 2 == 0:
            sign = 1 if k % 2 == 0 else eps_sq ** (d // 2)
            ramanujan = (p * lower if t % (p * lower) == 0 else 0) - (lower if t % lower == 0 else 0)
            total += sign * ramanujan * p ** (j * d + k * d // 2)
        elif t % lower == 0:
            sign = eps_sq ** ((d + 1) // 2) * jacobi(-t // lower, p)
            total += sign * p ** (j * d + k - 1 + (k * d + 1) // 2)
    return total // p**a


def _factor_bound(p: int, a: int, d: int) -> float:
    """a p^{a(d-1)} p^{1 - d/2}, the bound on |II_t| for the factor p^a."""
    return a * float(p) ** (a * (d - 1) + 1 - d / 2)


def sphere_count_formula(spec: SphereSpec) -> SphereCountReport:
    """|S_t| via the Gauss-sum formula, exactly: the CRT product of the
    prime-power counts p^{a(d-1)} + II_t."""
    m = spec.modulus
    m.require_odd("sphere_count_formula (use sphere_enumerate for even q)")
    q, d, t = m.q, spec.d, spec.t_value
    count = math.prod(p ** (a * (d - 1)) + _error_term(p, a, d, t) for p, a in m.factors)
    bound = None
    if d > 2:
        bound = math.prod(float(p) ** (a * (d - 1)) + _factor_bound(p, a, d) for p, a in m.factors)
        bound -= float(q) ** (d - 1)
    return SphereCountReport(count, q ** (d - 1), count - q ** (d - 1), bound)


@dataclass(frozen=True)
class FactorBoundCheck:
    p: int
    alpha: int
    ii_abs: int
    bound: float
    ratio: float
    ok: bool


@dataclass(frozen=True)
class SizeBoundReport:
    factors: tuple[FactorBoundCheck, ...]
    ok: bool


def sphere_size_bound_check(spec: SphereSpec) -> SizeBoundReport:
    """Check, per prime-power factor p^a of q, the explicit error-term bound

        |II_t| <= a * p^{a(d-1)} * p^{1 - d/2}

    The comparison is exact: both sides are squared into integers.
    """
    m = spec.modulus
    m.require_odd("sphere_size_bound_check")
    if spec.d <= 2:
        raise DomainError(f"the error-term bound needs d > 2, got d={spec.d}")
    d, t = spec.d, spec.t_value
    rows = []
    for p, a in m.factors:
        ii = _error_term(p, a, d, t)
        # bound^2 = a^2 p^{2a(d-1) + 2 - d}; the exponent is positive for d > 2
        exponent = 2 * a * (d - 1) + 2 - d
        ok = ii * ii <= a * a * p**exponent
        bound = _factor_bound(p, a, d)
        ratio = abs(ii) / bound
        rows.append(FactorBoundCheck(p, a, abs(ii), bound, ratio, ok))
    return SizeBoundReport(tuple(rows), all(r.ok for r in rows))


def sphere_fourier_direct(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> Spectrum:
    """Fourier coefficients of the sphere indicator via the grid transform."""
    return forward(sphere_indicator(spec, max_grid))


@lru_cache(maxsize=64)
def _class_slots(q: int) -> tuple[tuple[int, int, int], ...]:
    """(g, n = q / g, offset) for every divisor g of q in increasing order:
    the classes of gcd g take the slots offset, ..., offset + n - 1, the
    slot of m = g m' being offset + ||m'|| mod n.  There are sigma(q) slots;
    the larger g come first, so slot 0 is g = q, the class of m = 0 alone."""
    slots = []
    offset = sum(g for g in range(1, q + 1) if q % g == 0)
    for g in range(1, q + 1):
        if q % g == 0:
            offset -= q // g
            slots.append((g, q // g, offset))
    return tuple(slots)


def _class_count(q: int) -> int:
    """sigma(q), the number of class slots."""
    return sum(n for _, n, _ in _class_slots(q))


@_table(lambda q, d, h: h**d)
def _class_ids(q: int, d: int, h: int) -> np.ndarray:
    """The class slot of every frequency m in the box [0, h)^d of Z_q^d (odd
    q), flat and row-major.

    With g = gcd(m_1, ..., m_d, q) and n = q / g, write m = g m' with m' in
    Z_n^d.  The class of m is (g, ||m'|| mod n): at most sigma(q) classes,
    and exactly that many for d >= 3 (_class_slots lays them out).  A class
    is closed under sign flips and holds (min(m_i, q - m_i)) with m, so a
    sum of orbit sums by class is one bincount by the table of the orthant
    h = q // 2 + 1, which holds the first member of every class in flat order.

    Each divisor g, in increasing order, writes its slots over the strided
    slice of the multiples of g, so the last write to m comes from
    g = gcd(m, q); ||m'|| mod n is the box's norm at m' (the first
    (h - 1) // g + 1 points of each axis) mod n.  The slots take
    _narrow_dtype(sigma(q) - 1), one byte a point while sigma(q) <= 256 (a
    sort of them is a radix sort); each residue is cast to it before its
    offset is added, so no sum wraps in the narrower norm dtype.
    """
    norms = _norms(q, d, h).reshape((h,) * d)
    ids = np.empty((h,) * d, dtype=_narrow_dtype(_class_count(q) - 1))
    for g, n, offset in _class_slots(q):
        residues = norms[(slice(0, (h - 1) // g + 1),) * d] % n
        ids[(slice(None, None, g),) * d] = residues.astype(ids.dtype) + offset
    ids = ids.reshape(-1)
    ids.setflags(write=False)
    return ids


@dataclass(frozen=True)
class _ClassKernel:
    """S_t^(m) for every t, one row per class slot of frequencies m (see
    _class_slots).

    ``values[c, t]`` is the coefficient S_t^(m) shared by every m in class c
    (a zero row for a class that is empty, as some are when d <= 2), and
    ``error[c, t]`` a bound on the rounding error of ``values[c, t]``.  Both
    are float64, as S_t = -S_t makes S_t^(m) real, and read-only (cached).
    """

    values: np.ndarray
    error: np.ndarray

    @property
    def chain(self) -> np.ndarray:
        """max_{m != 0} |S_t^(m)| for every t: class 0 holds only m = 0."""
        return np.abs(self.values[1:]).max(axis=0)


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (*) b over Z_q, q = len(a) = len(b): the linear convolution wrapped mod q."""
    full = np.convolve(a, b)
    full[: len(a) - 1] += full[len(a) :]
    return full[: len(a)]


@_table(lambda q, d: (d + 1) * q)
def _sphere_count_rows(q: int, d: int) -> np.ndarray:
    """|S_t| in Z_q^i for i = 0, ..., d (row i) and every t, exactly.

    Row i + 1 is the cyclic convolution of row i with #{x in Z_q : x^2 = a},
    in int64; every entry of the linear convolution is at most the total
    q^{i+1}, so the counts are exact while q^d fits int64 (any grid within
    budget does).  No grid is enumerated.
    """
    roots_of = np.bincount(_squares(q), minlength=q)  # #{x in Z_q : x^2 = a}
    rows = np.zeros((d + 1, q), dtype=np.int64)
    rows[0, 0] = 1
    for i in range(d):
        rows[i + 1] = _cyclic_convolve(rows[i], roots_of)
    rows.setflags(write=False)
    return rows


def _kernel_direct(
    q: int, d: int, reps: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """K[c, t] = q^{-d} sum_{||x|| = t} e(-x . m_c / q) by cyclic convolution
    over Z_q, with no Gauss sum and no grid enumerated.  Row present[i] of
    the sigma(q) x q values and errors holds the class whose first member is
    reps[i]; the rows of absent classes are zero.

    With U[mu](b) = sum_{x^2 = b} e(-x mu / q), the sum factors as
    K[c] = q^{-d} N_{d-j} (*) U[mu_1] (*) ... (*) U[mu_j] over the j <= 3
    nonzero coordinates mu_i of m_c, where N_i, the i-fold convolution of
    U[0](b) = #{x : x^2 = b}, holds the sphere counts of Z_q^i
    (_sphere_count_rows); N_0 = delta_0 is skipped when j = d.  x and -x
    share x^2, so U[mu] is real: cosines of table roots, binned in O(q).

    |U[mu](b)| <= N_1(b), so each convolution is bounded termwise by a
    sphere count and K[c, t] by |S_t| q^{-d}.  A table root is within 11 eps
    (7.4 eps is the largest error for q < 400) and U(b) adds at most
    r = max N_1 of them: U is within (11 + r // 2) eps N_1.  Each of the k
    convolutions (j - 1 when j = d, else j) sums q products within
    (q // 2 + 1) eps; with the scaling and second-order terms (2), K[c, t]
    is within (j (11 + r // 2) + k (q // 2 + 1) + 2) eps |S_t| q^{-d}."""
    ks, squares = np.arange(q, dtype=np.int64), _squares(q)
    cos = character_table(q).real  # the real part of e(-x mu / q) as well
    spheres = _sphere_count_rows(q, d)  # spheres[i][t] = |S_t| in Z_q^i
    root_steps = 11 + int(spheres[1].max()) // 2
    vals = np.zeros((_class_count(q), q))
    steps = np.zeros(len(vals))
    for c, rep in zip(present, reps):
        mus = rep[rep != 0]
        factors = [spheres[d - len(mus)]] if len(mus) < d else []
        factors += [np.bincount(squares, weights=cos[ks * mu % q], minlength=q) for mu in mus]
        row = factors[0]
        for u in factors[1:]:
            row = _cyclic_convolve(row, u)
        vals[c] = row
        steps[c] = len(mus) * root_steps + (len(factors) - 1) * (q // 2 + 1) + 2
    vals *= 1.0 / float(q) ** d
    err = steps[:, None] * _EPS * spheres[d]
    err /= float(q) ** d
    return vals, err


def _kernel_formula(
    q: int, d: int, reps: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """K[c, t] = q^{-d-1} sum_s e(-st/q) W_c(s) with W_c(s) = prod_i G(s, -m_i, q)
    from the closed forms, one length-q DFT over s for all classes at once,
    in the sigma(q) x q layout of _kernel_direct.

    A rendered G(s, b, q) is within 2 eps of its value when b = 0 (scale
    sqrt(surd) times a unit) and within 16 eps otherwise (the phase factor
    e(phi) adds its angle's roundings, up to 3 eps of 2 pi, and a complex
    product); 0.75 and 4.3 eps are the largest errors for odd q < 62.  With
    z_c nonzero coordinates in m_c, the d-fold product (16 z_c + 2 (d - z_c)
    + d - 1), the table character (13), the q-term sum and the scaling leave
    K[c, t] within (q + 3 d + 14 z_c + 13) eps q^{-d-1} sum_s |W_c(s)|.  S_t^(m)
    is real, so an imaginary part past that bound raises InconsistencyError;
    the real part, no further from S_t^(m) than the complex value, is kept."""
    w = np.prod(gauss_row(np.arange(q), q)[:, (-reps) % q], axis=2)  # (s, class)
    norm = 1.0 / float(q) ** (d + 1)
    steps = q + 3 * d + 14 * np.count_nonzero(reps, axis=1) + 13
    bound = steps * _EPS * np.abs(w).sum(axis=0) * norm
    rows = (_kernel(q, True) @ w).T  # the DFT matrix: [t, s] = e(-st/q)
    rows *= norm
    if (np.abs(rows.imag) > bound[:, None]).any():
        raise InconsistencyError(f"an imaginary part of the Z_{q}^{d} kernel exceeds its error")
    vals = np.zeros((_class_count(q), q))
    vals[present] = rows.real
    err = np.zeros(vals.shape)
    err[present] = bound[:, None]
    return vals, err


def _class_representatives(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, present): the first member in flat order of every nonempty
    class of Z_q^d, and the slots of those classes.

    A class meets {0}^{d-j} x Z_q^j with j = min(d, 3), since Z_q^3 already
    holds all sigma(q) classes, and every member there precedes in flat order
    every member with a nonzero among the first d - j coordinates.  The
    first member of a class of Z_q^j lies on the orthant (_class_ids), whose
    flat order is that of Z_q^j; padded with d - j leading zeros, the first
    orthant members are those of Z_q^d, whatever d is.
    """
    j, h = min(d, 3), q // 2 + 1
    present, first = np.unique(_class_ids(q, j, h), return_index=True)
    reps = np.zeros((len(present), d), dtype=np.int64)
    reps[:, d - j :] = np.stack(np.unravel_index(first, (h,) * j), axis=1)
    return reps, present


@_table(lambda q, *_: check_grid_budget(q, 2))
def _build_class_kernel(q: int, d: int, route: str) -> _ClassKernel:
    reps, present = _class_representatives(q, d)
    build = _kernel_direct if route == "direct" else _kernel_formula
    values, error = build(q, d, reps, present)
    for arr in (values, error):
        arr.setflags(write=False)
    return _ClassKernel(values, error)


def _class_kernel(
    mod: Modulus, d: int, route: str = "direct", max_grid: int = DEFAULT_GRID_BUDGET
) -> _ClassKernel:
    """The sigma(q) x q class kernel of the spheres of Z_q^d, built by the named
    route from the first member (in flat order) of every nonempty class:
    "direct" from exact point counts, "formula" from Gauss sums.  The build
    touches the (q // 2 + 1)^min(d, 3) orthant points, never the grid, and
    keeps the rule of the tables of Z_q (fourier._table, by q^2) on size and
    cache."""
    mod.require_odd("the sphere class kernel")
    if route not in ("direct", "formula"):
        raise DomainError(f"unknown spectrum route {route!r}")
    check_grid_budget(mod.q, d, max_grid)
    return _build_class_kernel(mod.q, d, route)


def sphere_spectrum_formula(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> Spectrum:
    """The full spectrum by the product formula: column t of the formula class
    kernel, spread over the members of every class."""
    kern = _class_kernel(spec.modulus, spec.d, "formula", max_grid)
    ids = _class_ids(spec.q, spec.d, spec.q)
    return Spectrum(spec.modulus, spec.d, kern.values[ids, spec.t_value])


def sphere_spectrum(
    spec: SphereSpec, route: str = "direct", max_grid: int = DEFAULT_GRID_BUDGET
) -> Spectrum:
    """The spectrum by the named route: "direct" transforms the enumerated
    indicator, "formula" spreads the formula class kernel."""
    if route == "direct":
        return sphere_fourier_direct(spec, max_grid)
    if route == "formula":
        return sphere_spectrum_formula(spec, max_grid)
    raise DomainError(f"unknown spectrum route {route!r}")


@dataclass(frozen=True)
class DecayReport:
    max_nonzero_coeff: float  # max |S_t^(m)| over m != 0
    bound: float
    ratio: float
    ok: bool


def decay_report(spec: SphereSpec, spectrum: Spectrum) -> DecayReport:
    """Compare max_{m != 0} |S_t^(m)| over a given spectrum of S_t against
    q^{-1} tau(q) p_1^{-(d-2)/2}, which holds for odd q and d > 2."""
    mod = spec.modulus
    mod.require_odd("the decay bound")
    if spec.d <= 2:
        raise DomainError(f"the decay bound needs d > 2, got d={spec.d}")
    bound = tau(mod) / (mod.q * float(mod.p1) ** ((spec.d - 2) / 2))
    mags = np.abs(spectrum.values)
    mags[0] = 0.0
    mx = float(mags.max())
    return DecayReport(mx, bound, mx / bound, mx <= bound)
