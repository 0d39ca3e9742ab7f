"""Point sets E in Z_q^d and their distance statistics.

The distance ||x - y|| = sum (x_i - y_i)^2 mod q is not a metric; the
distance set Delta(E) collects every value it takes on E x E, including 0.
nu(t) counts ordered pairs at distance t, diagonal included, so
sum_t nu(t) = |E|^2 always.

Two routes to nu(t): an exhaustive pair scan, and the spectral decomposition

    nu(t) = q^{2d} sum_m |E^(m)|^2 S_t^(m)
          = q^{-d} |E|^2 |S_t|  +  q^{2d} sum_{m != 0} |E^(m)|^2 S_t^(m)
          = main term           +  error term

with the error term bounded by |E| tau(q) q^{d-1} p_1^{-(d-2)/2}.  Whenever
main term - bound > 0 the distance t is certified to occur.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .arith import Modulus, Residue, as_modulus, factorize, tau
from .errors import BudgetError, DomainError, InconsistencyError
from .fourier import (
    DEFAULT_GRID_BUDGET,
    GridFunction,
    check_grid_budget,
    forward,
    point_of_index,
)
from .sphere import sphere_counts_all, sphere_spec, sphere_spectrum

__all__ = [
    "PointSet",
    "NuReport",
    "CertificateRow",
    "ThresholdReport",
    "DEFAULT_PAIR_BUDGET",
    "distance",
    "distance_set",
    "nu_brute",
    "nu_histogram",
    "nu_spectral",
    "nu_spectral_sweep",
    "theorem_threshold",
    "certificate_check",
    "construct_even_weight",
    "construct_zero_distance_lattice",
    "sample_random_set",
    "read_pointset",
    "write_pointset",
]

DEFAULT_PAIR_BUDGET = 10**8


class PointSet:
    """A nonempty, deduplicated, lexicographically sorted set of points."""

    __slots__ = ("modulus", "d", "points", "_array")

    def __init__(self, q: "int | Modulus", d: int, points: Iterable[Sequence[int]]) -> None:
        m = as_modulus(q)
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        seen = set()
        for p in points:
            tp = tuple(int(c) % m.q for c in p)
            if len(tp) != d:
                raise DomainError(f"point {tp} does not have {d} coordinates")
            seen.add(tp)
        if not seen:
            raise DomainError("point set is empty")
        self.modulus = m
        self.d = d
        self.points = tuple(sorted(seen))
        self._array = None

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def size(self) -> int:
        return len(self.points)

    def array(self) -> np.ndarray:
        if self._array is None:
            arr = np.array(self.points, dtype=np.int64)
            arr.setflags(write=False)
            self._array = arr
        return self._array

    def flat_indices(self) -> np.ndarray:
        strides = self.q ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        return self.array() @ strides

    def indicator(self, max_grid: int = DEFAULT_GRID_BUDGET) -> GridFunction:
        size = check_grid_budget(self.q, self.d, max_grid)
        vals = np.zeros(size, dtype=np.complex128)
        vals[self.flat_indices()] = 1.0
        return GridFunction(self.modulus, self.d, vals)

    def translate(self, v: Sequence[int]) -> "PointSet":
        if len(v) != self.d:
            raise DomainError(f"translation vector needs {self.d} coordinates")
        return PointSet(
            self.modulus, self.d, [tuple(c + w for c, w in zip(p, v)) for p in self.points]
        )

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return tuple(int(c) % self.q for c in p) in set(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.modulus, self.d, self.points) == (other.modulus, other.d, other.points)

    def __hash__(self) -> int:
        return hash((self.modulus, self.d, self.points))

    def __repr__(self) -> str:
        return f"PointSet(q={self.q}, d={self.d}, size={self.size})"


def _t_value(t: "int | Residue", q: int) -> int:
    if isinstance(t, Residue):
        if t.q != q:
            raise DomainError(f"t is a residue mod {t.q}, expected mod {q}")
        return t.value
    return t % q


def distance(x: Sequence[int], y: Sequence[int], q: "int | Modulus") -> Residue:
    """||x - y|| = sum (x_i - y_i)^2 as a residue mod q."""
    if len(x) != len(y):
        raise DomainError(f"shape mismatch: {len(x)} vs {len(y)} coordinates")
    m = as_modulus(q)
    return Residue(sum((a - b) ** 2 for a, b in zip(x, y)), m)


def nu_histogram(E: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET) -> np.ndarray:
    """nu(t) for every t at once: one exhaustive scan over ordered pairs."""
    n = E.size
    if n * n > max_pairs:
        raise BudgetError(
            f"|E|^2 = {n * n} ordered pairs for q={E.q} d={E.d} exceeds the budget {max_pairs}"
        )
    if E.q == 2 and E.d <= 16:
        return _nu_histogram_mod2(E)
    q = E.q
    pts = E.array()
    counts = np.zeros(q, dtype=np.int64)
    block = max(1, 2**22 // max(1, n * E.d))
    for lo in range(0, n, block):
        diff = pts[lo : lo + block, None, :] - pts[None, :, :]
        dist = (diff * diff).sum(axis=2) % q
        counts += np.bincount(dist.reshape(-1), minlength=q)
    return counts


@lru_cache(maxsize=1)
def _popcount_parity_lut16() -> np.ndarray:
    v = np.arange(1 << 16, dtype=np.uint32)
    for shift in (8, 4, 2, 1):
        v ^= v >> shift
    lut = (v & 1).astype(np.uint8)
    lut.setflags(write=False)
    return lut


def _nu_histogram_mod2(E: PointSet) -> np.ndarray:
    # Over Z_2 each point packs into one machine word and the distance of a
    # pair is the popcount parity of the XOR of the words.  The popcount is
    # tabulated; every ordered pair is still XORed individually.
    parity = _popcount_parity_lut16()
    bits = (E.array() & 1).astype(np.uint16)
    codes = np.zeros(E.size, dtype=np.uint16)
    for j in range(E.d):
        codes |= bits[:, j] << np.uint16(j)
    odd = 0
    block = max(1, 2**23 // max(1, E.size))
    for lo in range(0, E.size, block):
        x = codes[:, None] ^ codes[None, lo : lo + block]
        odd += int(parity[x].sum(dtype=np.int64))
    n2 = E.size * E.size
    return np.array([n2 - odd, odd], dtype=np.int64)


def nu_brute(E: PointSet, t: "int | Residue", max_pairs: int = DEFAULT_PAIR_BUDGET) -> int:
    """Exact ordered-pair count |{(x, y) in E x E : ||x - y|| = t}|."""
    return int(nu_histogram(E, max_pairs)[_t_value(t, E.q)])


def distance_set(E: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET) -> set[int]:
    """Delta(E) as a set of canonical residue values (0 is always present)."""
    hist = nu_histogram(E, max_pairs)
    return {int(t) for t in np.flatnonzero(hist)}


@dataclass(frozen=True)
class NuReport:
    """Spectral decomposition of nu(t) into main and error terms."""

    t: int
    nu: int
    main_term: float
    r_t: float
    r_bound: float
    certificate_positive: bool  # main_term - r_bound > 0, forcing nu(t) > 0


def _r_bound(E: PointSet) -> float:
    m = E.modulus
    return E.size * tau(m) * float(m.q) ** (E.d - 1) * float(m.p1) ** (-(E.d - 2) / 2)


def nu_spectral_sweep(
    E: PointSet,
    ts: "Sequence[int] | None" = None,
    route: str = "direct",
    max_grid: int = DEFAULT_GRID_BUDGET,
    int_tol: "float | None" = None,
) -> list[NuReport]:
    """nu_spectral for several t, sharing the transform of E's indicator.

    Each float sum must land within a tolerance of an integer, with an
    imaginary part and a chain-bound excess no larger than that tolerance.
    By default the tolerance for t is (d q + ceil(log2 q^d)) eps A_t: rounding
    error grows with d length-q transform passes and a q^d-term sum.  A_t is
    the size of the summed terms, q^{2d} sum_m |E^(m)|^2 |S_t^(m)|, plus
    |E| q^{d-1} = q^{2d} sum_m |E^(m)|^2 / q, because each computed S_t^(m)
    carries an absolute error of order eps / q even where it cancels to 0
    (an empty S_t on the formula route).  An explicit int_tol takes
    precedence.  A derived tolerance of 1/2 or more cannot certify the
    nearest integer and raises BudgetError.
    """
    m = E.modulus
    m.require_odd("nu_spectral")
    q, d = m.q, E.d
    if ts is None:
        ts = range(q)
    e_hat = forward(E.indicator(max_grid))
    power = np.abs(e_hat.values) ** 2
    counts = sphere_counts_all(m, d, max_grid)
    scale = float(q) ** (2 * d)
    r_bound = _r_bound(E)
    rounding = (d * q + math.ceil(math.log2(q**d))) * float(np.finfo(np.float64).eps)
    cancelled = E.size * float(q) ** (d - 1)
    out = []
    for t_in in ts:
        t = _t_value(t_in, q)
        s_hat = sphere_spectrum(sphere_spec(m, d, t), route, max_grid)
        total = scale * complex(np.sum(power * s_hat.values))
        main = E.size**2 * int(counts[t]) / q**d
        r = total - main
        mags = np.abs(s_hat.values)
        tol = int_tol
        if tol is None:
            tol = rounding * (scale * float(np.dot(power, mags)) + cancelled)
            if tol >= 0.5:
                raise BudgetError(
                    f"nu({t}): rounding tolerance {tol:.3g} reaches 1/2, so the float sum "
                    f"cannot certify an integer count for |E| = {E.size} in Z_{q}^{d}"
                )
        if abs(r.imag) > tol:
            raise InconsistencyError(f"nu({t}) has imaginary part {r.imag}")
        nu_int = round(total.real)
        if abs(total.real - nu_int) > tol:
            raise InconsistencyError(
                f"nu({t}) = {total.real!r} is not within {tol:.3g} of an integer"
            )
        # chain check: |R_t| <= q^d |E| max_{m != 0} |S_t^(m)| (<= r_bound for d > 2)
        mags[0] = 0.0
        chain = float(q) ** d * E.size * float(mags.max())
        slack = 1.0 + 1e-9
        if abs(r) > chain * slack + tol:
            raise InconsistencyError(f"|R_{t}| = {abs(r)} exceeds the spectral chain bound {chain}")
        if d > 2 and chain > r_bound * slack:
            raise InconsistencyError(f"chain bound {chain} exceeds the decay bound {r_bound}")
        out.append(
            NuReport(t, int(nu_int), main, r.real, r_bound, bool(main - r_bound > 0))
        )
    return out


def nu_spectral(
    E: PointSet,
    t: "int | Residue",
    route: str = "direct",
    max_grid: int = DEFAULT_GRID_BUDGET,
    int_tol: "float | None" = None,
) -> NuReport:
    """Spectral evaluation of nu(t); must reproduce nu_brute exactly."""
    return nu_spectral_sweep(E, [_t_value(t, E.q)], route, max_grid, int_tol)[0]


@dataclass(frozen=True)
class ThresholdReport:
    threshold: float
    non_vacuous: bool  # threshold < q^d, i.e. some actual set can satisfy it


def theorem_threshold(q: "int | Modulus", d: int, C: float) -> ThresholdReport:
    """C tau(q) q^d p_1^{-(d-2)/2}: sets at least this large realize every distance."""
    m = as_modulus(q)
    m.require_odd("theorem_threshold")
    if d <= 2:
        raise DomainError(f"the threshold needs d > 2, got d={d}")
    thr = C * tau(m) * float(m.q) ** d * float(m.p1) ** (-(d - 2) / 2)
    return ThresholdReport(thr, thr < float(m.q) ** d)


@dataclass(frozen=True)
class CertificateRow:
    t: int
    fired: bool  # main_term - r_bound > 0
    nu: "int | None"  # brute count when the pair budget allows it
    margin: float  # main_term - |R_t|
    slack: float  # r_bound - |R_t|
    sound: bool  # not fired, or nu(t) > 0


def certificate_check(
    E: PointSet,
    route: str = "direct",
    max_grid: int = DEFAULT_GRID_BUDGET,
    max_pairs: int = DEFAULT_PAIR_BUDGET,
    int_tol: "float | None" = None,
) -> list[CertificateRow]:
    """Soundness of the positivity certificate for every t.

    Where |E|^2 fits the pair budget the claim nu(t) > 0 is verified against
    the brute count; otherwise positivity follows from nu = M + R_t >= M - |R_t|.
    """
    m = E.modulus
    m.require_odd("certificate_check")
    if E.d <= 2:
        raise DomainError(f"the certificate needs d > 2, got d={E.d}")
    hist = None
    if E.size * E.size <= max_pairs:
        hist = nu_histogram(E, max_pairs)
    rows = []
    for rep in nu_spectral_sweep(E, None, route, max_grid, int_tol):
        nu_t = int(hist[rep.t]) if hist is not None else None
        if nu_t is not None:
            positive = nu_t > 0
        else:
            positive = rep.main_term - abs(rep.r_t) > 0
        rows.append(
            CertificateRow(
                t=rep.t,
                fired=rep.certificate_positive,
                nu=nu_t,
                margin=rep.main_term - abs(rep.r_t),
                slack=rep.r_bound - abs(rep.r_t),
                sound=(not rep.certificate_positive) or positive,
            )
        )
    return rows


def construct_even_weight(d: int) -> PointSet:
    """All vectors of Z_2^d with an even number of nonzero coordinates.

    |E| = 2^{d-1} and every pairwise distance is 0 in Z_2.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    pts = []
    for code in range(1 << d):
        if bin(code).count("1") % 2 == 0:
            pts.append(tuple((code >> (d - 1 - j)) & 1 for j in range(d)))
    return PointSet(2, d, pts)


def construct_zero_distance_lattice(p: int, ell: int, d: int) -> PointSet:
    """E = (p^ceil(ell/2) Z_{p^ell})^d, of size p^{floor(ell/2) d}.

    Coordinate differences are multiples of p^ceil(ell/2), so every distance
    is divisible by p^{2 ceil(ell/2)} and hence 0 in Z_{p^ell}.
    """
    if p < 3 or p % 2 == 0 or factorize(p).factors != ((p, 1),):
        raise DomainError(f"p must be an odd prime, got {p}")
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    q = p**ell
    step = p ** ((ell + 1) // 2)
    coords = list(range(0, q, step))
    pts = [()]
    for _ in range(d):
        pts = [pt + (c,) for pt in pts for c in coords]
    return PointSet(q, d, pts)


_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int):
    """splitmix64: the documented 64-bit-state generator behind seeded sampling."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _draw_below(gen, n: int) -> int:
    # rejection keeps the draw exactly uniform
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        z = next(gen)
        if z < limit:
            return z % n


def sample_random_set(q: "int | Modulus", d: int, size: int, seed: int) -> PointSet:
    """Uniform sample of `size` distinct points of Z_q^d.

    Bit-for-bit reproducible from the seed: a splitmix64 stream drives a
    partial Fisher-Yates selection over flat indices.
    """
    m = as_modulus(q)
    n = m.q**d
    if size < 1:
        raise DomainError(f"sample size must be >= 1, got {size}")
    if size > n:
        raise DomainError(f"sample size {size} exceeds |Z_{m.q}^{d}| = {n}")
    gen = _splitmix64(seed)
    swap: dict[int, int] = {}
    chosen = []
    for i in range(size):
        j = i + _draw_below(gen, n - i)
        chosen.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    chosen.sort()
    return PointSet(m, d, [point_of_index(c, m.q, d) for c in chosen])


def write_pointset(E: PointSet, path) -> None:
    """Plain-text format: header ``q=<int> d=<int>``, one comma-separated
    point per line; blank lines and # comments are ignored on read."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"q={E.q} d={E.d}\n")
        for p in E.points:
            fh.write(",".join(str(c) for c in p) + "\n")


def read_pointset(path) -> PointSet:
    header = None
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                match = re.fullmatch(r"q=(\d+)\s+d=(\d+)", line)
                if not match:
                    raise DomainError(f"first line must be 'q=<int> d=<int>', got {line!r}")
                header = (int(match.group(1)), int(match.group(2)))
                continue
            coords = tuple(int(tok) for tok in line.split(","))
            if len(coords) != header[1]:
                raise DomainError(f"point {coords} does not have {header[1]} coordinates")
            pts.append(coords)
    if header is None:
        raise DomainError("missing 'q=<int> d=<int>' header line")
    return PointSet(header[0], header[1], pts)
