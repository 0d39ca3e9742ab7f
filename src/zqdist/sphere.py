"""Spheres S_t = {x in Z_q^d : x_1^2 + ... + x_d^2 = t}.

Exact counts by exhaustive enumeration, the character-sum count formula

    |S_t| = q^{d-1} + q^{-1} sum_{s != 0} e^{-2 pi i s t / q} G(s, q)^d

with its error term and explicit per-prime-power bound, and the Fourier
coefficients of the sphere indicator by two independent routes: the direct
transform of the enumerated indicator, and the Gauss-sum product formula

    S_t^(m) = q^{-d-1} sum_s e^{-2 pi i s t / q} prod_i G(s, -m_i, q).

Formula routes require odd q; enumeration works for any q within budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arith import Modulus, Residue, as_modulus, tau
from .errors import BudgetError, DomainError, InconsistencyError
from .fourier import (
    DEFAULT_GRID_BUDGET,
    GridFunction,
    Spectrum,
    character_table,
    check_grid_budget,
    forward,
    point_of_index,
)
from .gauss import gauss_general

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
    "sphere_fourier_formula",
    "sphere_spectrum_formula",
    "sphere_spectrum",
    "spectra_max_diff",
    "decay_report",
    "decay_bound_check",
]

# unit^d lookup when unit = i^k
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class SphereSpec:
    """Identifies S_t inside Z_q^d."""

    modulus: Modulus
    d: int
    t: Residue

    def __post_init__(self) -> None:
        if self.d < 1:
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
    tv = t if isinstance(t, Residue) else Residue(t, m)
    return SphereSpec(m, d, tv)


@lru_cache(maxsize=1)
def _norms_flat(q: int, d: int) -> np.ndarray:
    """x_1^2 + ... + x_d^2 mod q for every flat index, row-major.

    One q^d int64 table is kept (80 MB at the default grid budget): callers
    work through one (q, d) at a time."""
    sq = (np.arange(q, dtype=np.int64) ** 2) % q
    acc = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        acc = ((acc[:, None] + sq[None, :]) % q).reshape(-1)
    acc.setflags(write=False)
    return acc


@lru_cache(maxsize=32)
def _counts_cached(q: int, d: int) -> np.ndarray:
    counts = np.bincount(_norms_flat(q, d), minlength=q)
    counts.setflags(write=False)
    return counts


def sphere_counts_all(q: "int | Modulus", d: int, max_grid: int = DEFAULT_GRID_BUDGET) -> np.ndarray:
    """|S_t| for every t in Z_q at once, by exhaustive enumeration."""
    m = as_modulus(q)
    check_grid_budget(m.q, d, max_grid)
    return _counts_cached(m.q, d)


def sphere_enumerate(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> list[tuple[int, ...]]:
    """All points of S_t in lexicographic order, by scanning the full grid."""
    check_grid_budget(spec.q, spec.d, max_grid)
    norms = _norms_flat(spec.q, spec.d)
    idx = np.flatnonzero(norms == spec.t_value)
    return [point_of_index(int(i), spec.q, spec.d) for i in idx]


def sphere_indicator(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> GridFunction:
    """The 0/1 indicator of S_t as a grid function."""
    check_grid_budget(spec.q, spec.d, max_grid)
    vals = (_norms_flat(spec.q, spec.d) == spec.t_value).astype(np.complex128)
    return GridFunction(spec.modulus, spec.d, vals)


@dataclass(frozen=True)
class SphereCountReport:
    """|S_t| together with its main term q^{d-1} and error term."""

    exact_count: int
    main_term: int
    ii_t: complex
    ii_bound: float | None  # combined multiplicatively over prime-power factors; None for d <= 2


def _count_via_characters(q: int, d: int, t: int) -> tuple[int, complex]:
    """Evaluate the count formula over Z_q directly (odd q).

    The error term II_t is a float sum that must land on an integer.  Each
    term carries a relative rounding error of a few eps, so the tolerance is
    (d + 3) eps sum_s |term_s| / q, used for both the distance to the
    integer and the imaginary part.  A tolerance of 1/2 or more cannot
    certify a count and raises BudgetError.
    """
    tbl = character_table(q)
    main = q ** (d - 1)
    re_terms: list[float] = []
    im_terms: list[float] = []
    mags: list[float] = []
    for s in range(1, q):
        gv = gauss_general(s, 0, q)  # exact for odd q: scale * sqrt(surd) * i^k
        u0, u1 = gv.unit
        k = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}[(u0, u1)]
        mag = float(gv.scale) ** d * float(gv.surd) ** (d / 2)
        z = mag * _I_POW[(k * d) % 4] * np.conj(tbl[(s * t) % q])
        re_terms.append(z.real)
        im_terms.append(z.imag)
        mags.append(mag)
    ii = complex(math.fsum(re_terms), math.fsum(im_terms)) / q
    tol = (d + 3) * float(np.finfo(np.float64).eps) * math.fsum(mags) / q
    if tol >= 0.5:
        raise BudgetError(
            f"rounding tolerance {tol:.3g} of the error term reaches 1/2, so the float "
            f"sum cannot certify |S_{t}| for q={q} d={d}"
        )
    if abs(ii.imag) > tol:
        raise InconsistencyError(f"error term has imaginary part {ii.imag} for q={q} d={d} t={t}")
    ii_int = round(ii.real)
    if abs(ii.real - ii_int) > tol:
        raise InconsistencyError(f"error term {ii.real!r} is not within {tol:.3g} of an integer")
    return main + ii_int, ii


def sphere_count_formula(spec: SphereSpec) -> SphereCountReport:
    """|S_t| via the Gauss-sum formula; composite q is evaluated both directly
    over Z_q and as a CRT product of prime-power counts, which must agree."""
    m = spec.modulus
    m.require_odd("sphere_count_formula (use sphere_enumerate for even q)")
    q, d, t = m.q, spec.d, spec.t_value
    count, ii = _count_via_characters(q, d, t)
    crt = 1
    for pm in m.prime_power_moduli():
        crt *= _count_via_characters(pm.q, d, t % pm.q)[0]
    if crt != count:
        raise InconsistencyError(
            f"direct count {count} != CRT product {crt} for q={q} d={d} t={t}"
        )
    bound = None
    if d > 2:
        bound = 1.0
        for p, a in m.factors:
            per_factor = a * float(p) ** (a * (d - 1) + 1 - d / 2)
            bound *= float(p) ** (a * (d - 1)) + per_factor
        bound -= float(q) ** (d - 1)
    return SphereCountReport(count, q ** (d - 1), ii, bound)


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
        qi = p**a
        count, _ = _count_via_characters(qi, d, t % qi)
        ii = count - qi ** (d - 1)
        # bound^2 = a^2 p^{2a(d-1) + 2 - d}; the exponent is positive for d > 2
        exponent = 2 * a * (d - 1) + 2 - d
        ok = ii * ii <= a * a * p**exponent
        bound = a * float(p) ** (a * (d - 1) + 1 - d / 2)
        ratio = abs(ii) / bound
        rows.append(FactorBoundCheck(p, a, abs(ii), bound, ratio, ok))
    return SizeBoundReport(tuple(rows), all(r.ok for r in rows))


def sphere_fourier_direct(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> Spectrum:
    """Fourier coefficients of the sphere indicator via the grid transform."""
    return forward(sphere_indicator(spec, max_grid))


@lru_cache(maxsize=16)
def _gauss_table(q: int) -> np.ndarray:
    """G(s, b, q) for all (s, b) in Z_q^2."""
    out = np.empty((q, q), dtype=np.complex128)
    for s in range(q):
        for b in range(q):
            out[s, b] = gauss_general(s, b, q).complex_render
    out.setflags(write=False)
    return out


def sphere_fourier_formula(spec: SphereSpec, m_point: Sequence[int]) -> complex:
    """One Fourier coefficient via the Gauss-sum product formula.

    The s = 0 term contributes q^d [m = 0], so a single sum over all of Z_q
    covers every frequency.
    """
    mod = spec.modulus
    mod.require_odd("sphere_fourier_formula")
    q, d, t = mod.q, spec.d, spec.t_value
    if len(m_point) != d:
        raise DomainError(f"expected {d} coordinates, got {len(m_point)}")
    tbl = _gauss_table(q)
    roots = character_table(q)
    total = 0j
    for s in range(q):
        prod = complex(roots[(-s * t) % q])
        for mi in m_point:
            prod *= tbl[s, (-mi) % q]
        total += prod
    return total / q ** (d + 1)


def sphere_spectrum_formula(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> Spectrum:
    """The full spectrum via the product formula, assembled per s as an outer
    product of identical length-q factors (q^{d+1} scalar work)."""
    mod = spec.modulus
    mod.require_odd("sphere_spectrum_formula")
    q, d, t = mod.q, spec.d, spec.t_value
    check_grid_budget(q, d, max_grid)
    tbl = _gauss_table(q)
    roots = character_table(q)
    neg = (-np.arange(q)) % q
    acc = np.zeros((q,) * d, dtype=np.complex128)
    for s in range(q):
        vec = tbl[s][neg]  # vec[b] = G(s, -b, q)
        term = vec
        for _ in range(d - 1):
            term = np.multiply.outer(term, vec)
        acc += roots[(-s * t) % q] * term
    acc *= 1.0 / float(q) ** (d + 1)
    return Spectrum(mod, d, acc.reshape(-1))


def sphere_spectrum(
    spec: SphereSpec, route: str = "direct", max_grid: int = DEFAULT_GRID_BUDGET
) -> Spectrum:
    """The spectrum by the named route: "direct" transforms the enumerated
    indicator, "formula" assembles the Gauss-sum products.  Nothing is cached."""
    if route == "direct":
        return sphere_fourier_direct(spec, max_grid)
    if route == "formula":
        return sphere_spectrum_formula(spec, max_grid)
    raise DomainError(f"unknown spectrum route {route!r}")


def spectra_max_diff(spec: SphereSpec, max_grid: int = DEFAULT_GRID_BUDGET) -> float:
    """Entrywise distance between the two spectrum routes."""
    a = sphere_fourier_direct(spec, max_grid).values
    b = sphere_spectrum_formula(spec, max_grid).values
    return float(np.abs(a - b).max())


@dataclass(frozen=True)
class DecayReport:
    max_nonzero_coeff: float  # max |S_t^(m)| over m != 0
    bound: float
    ratio: float
    ok: bool


def _decay_bound(spec: SphereSpec) -> float:
    """q^{-1} tau(q) p_1^{-(d-2)/2}, which holds for odd q and d > 2."""
    mod = spec.modulus
    mod.require_odd("the decay bound")
    if spec.d <= 2:
        raise DomainError(f"the decay bound needs d > 2, got d={spec.d}")
    return tau(mod) / (mod.q * float(mod.p1) ** ((spec.d - 2) / 2))


def decay_report(spec: SphereSpec, spectrum: Spectrum) -> DecayReport:
    """Compare max_{m != 0} |S_t^(m)| over a given spectrum of S_t against
    q^{-1} tau(q) p_1^{-(d-2)/2}."""
    bound = _decay_bound(spec)
    mags = np.abs(spectrum.values)
    mags[0] = 0.0
    mx = float(mags.max())
    return DecayReport(mx, bound, mx / bound, mx <= bound)


def decay_bound_check(
    spec: SphereSpec, route: str = "direct", max_grid: int = DEFAULT_GRID_BUDGET
) -> DecayReport:
    """The decay bound on the spectrum by the named route."""
    _decay_bound(spec)  # reject even q and d <= 2 before any transform
    return decay_report(spec, sphere_spectrum(spec, route, max_grid))
