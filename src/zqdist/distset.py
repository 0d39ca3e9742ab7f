"""Point sets E in Z_q^d and their distance statistics.

The distance ||x - y|| = sum (x_i - y_i)^2 mod q is not a metric; the
distance set Delta(E) collects every value it takes on E x E, including 0.
nu(t) counts ordered pairs at distance t, diagonal included, so
sum_t nu(t) = |E|^2 always.

Three routes to nu(t):

* the pair scan (`nu_pairs`, the oracle) visits all |E|^2 ordered pairs;
* the autocorrelation: A = 1_E * 1_{-E} counts the pairs with x - y = z,
  so nu(t) = sum_{||z|| = t} A(z) for every t at once.  A sphere is a union
  of sign orbits {(+-z_1, ..., +-z_d)}, so only the orbit sums of A on the
  orthant [0, q // 2]^d are needed: fourier.orbit_inverse takes them from
  the orbit power O(s) = sum_{m in orbit(s)} |E^(m)|^2 of fourier.orbit_power,
  and one bincount by the orthant's norm table (sphere._norms) sums them by
  sphere.  It is the one transform count of `nu_histogram`, and so the
  count that certificate_check and the CLI check the sweep against;
* the spectral decomposition (`nu_spectral_sweep`, the certificate)

    nu(t) = q^{2d} sum_m |E^(m)|^2 S_t^(m)
          = q^{-d} |E|^2 |S_t|  +  q^{2d} sum_{m != 0} |E^(m)|^2 S_t^(m)
          = main term           +  error term

with the error term bounded by |E| tau(q) q^{d-1} p_1^{-(d-2)/2}.  Whenever
main term - bound > 0 the distance t is certified to occur.  For odd q,
S_t^(m) depends on m only through its class (gcd(m, q) = g and ||m/g|| mod
q/g, at most sigma(q) classes), and a class is closed under sign flips, so
the sweep sums O by class into P (_class_power, one bincount by the
orthant's class table, sphere._class_ids) and gets every nu(t) from
q^{2d} P @ K with the sigma(q) x q class kernel K[c, t] = S_t^(m): one
transform of the indicator, then O(q^d) work.  sphere owns the norm and
class tables; this module reads them only on the orthant, h = q // 2 + 1.
The sweep's `route` only picks how K is built: "direct" from sphere counts,
"formula" from Gauss sums.  P and the autocorrelation's counts depend on E
alone, so the PointSet keeps them (sigma(q) floats and q integers).  The
autocorrelation's transform leaves both and the sweep's only P, so
nu_histogram after a sweep transforms the set a second time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arith import Modulus, Residue, as_int, as_modulus, factorize, tau
from .errors import BudgetError, DomainError, InconsistencyError
from .fourier import (
    DEFAULT_GRID_BUDGET,
    _pass_charge,
    check_grid_budget,
    half_weights,
    orbit_inverse,
    orbit_power,
)
from .sphere import (
    _class_count,
    _class_kernel,
    _ClassKernel,
    _class_ids,
    _norms,
    _sphere_count_rows,
)

__all__ = [
    "PointSet",
    "NuReport",
    "CertificateRow",
    "ThresholdReport",
    "DEFAULT_PAIR_BUDGET",
    "distance",
    "distance_set",
    "nu_histogram",
    "nu_pairs",
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


def _residue_modulus(q: "int | Modulus") -> Modulus:
    """q as a Modulus whose residues fit int64: q >= 2^63 raises DomainError,
    checked before q is factorized."""
    value = q.q if isinstance(q, Modulus) else as_int(q, "the modulus")
    if value >= 1 << 63:
        raise DomainError(f"q = {value} reaches 2^63: the residues of a point set are int64")
    return as_modulus(q)


class PointSet:
    """A nonempty, deduplicated, lexicographically sorted set of points.

    The points are one read-only (size, d) int64 array of residues in [0, q),
    q < 2^63 (DomainError otherwise).
    Coordinates may be any integers, Python ints of any size and numpy
    integers included; they are reduced mod q unless every one already lies
    in [0, q), and a non-integral coordinate (a float, even an integral one)
    raises DomainError.  The rows are sorted and deduplicated on packed
    base-q int64 keys (_packed_keys): one key, sorted by one argsort,
    whenever q^d <= 2^62, and a lexsort over the few keys otherwise.  Rows
    whose one key already strictly increases, as those of
    construct_even_weight do, are kept as they come, with no sort and no
    gather.  The one key is the flat index of its row, so the set keeps it,
    read-only and reordered with the rows, as its flat_indices.

    sample_random_set builds its sets from their sorted flat indices alone
    (_from_flat): such a set fills its coordinates on the first read
    (array(), points, iteration, ==, hash, translate, in) and keeps them,
    read-only; size, len and flat_indices() never build them.

    A set never builds or keeps a q^d indicator: its transform reads the
    sorted flat_indices (fourier.orbit_power).  With at most q^(d-1) of them it
    builds no q^d grid either: it bins them row by row into slabs of
    first-axis rows; with more it scatters them into the transform's grid.
    A transform of the set keeps, read-only, its class power P_c
    (_power_by_class, odd q), the sigma(q) floats of the sweep, and the
    autocorrelation's transform its q pair counts (_nu_autocorrelation): a
    new or translated set starts without them.
    """

    __slots__ = ("modulus", "d", "_coords", "_flat", "_power_by_class", "_nu")

    def __init__(self, q: "int | Modulus", d: int, points: Iterable[Sequence[int]]) -> None:
        m = _residue_modulus(q)
        d = as_int(d, "the dimension")
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        rows = points if isinstance(points, (list, tuple, np.ndarray)) else list(points)
        if len(rows) == 0:
            raise DomainError("point set is empty")
        try:
            arr = np.asarray(rows)
            if arr.dtype.kind in "biu" and np.can_cast(arr.dtype, np.int64):
                arr = arr.astype(np.int64)
            else:
                # numpy reads ints past int64 as floats or objects: reduce them
                # exactly as Python ints, and refuse anything non-integral
                arr = np.array([[as_int(c, "coordinate") % m.q for c in p] for p in rows], np.int64)
        except ValueError:
            raise DomainError(f"every point needs {d} coordinates") from None
        except TypeError:
            raise DomainError("coordinates must be integers") from None
        if arr.ndim != 2 or arr.shape[1] != d:
            raise DomainError(f"every point needs {d} coordinates, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() >= m.q:
            arr %= m.q
        keys = _packed_keys(arr, m.q)
        flat = keys[0]
        # rows whose one key strictly increases are sorted and distinct already
        if len(keys) > 1 or not (flat[1:] > flat[:-1]).all():
            # equal keys are equal points, so the unstable sort of one key is canonical
            order = np.argsort(flat) if len(keys) == 1 else np.lexsort(keys[::-1])
            same = np.ones(len(arr) - 1, dtype=bool)
            for key in keys:
                key = key[order]
                same &= key[1:] == key[:-1]
            keep = order[np.append(True, ~same)]
            arr, flat = arr[keep], flat[keep]
        arr.setflags(write=False)
        flat.setflags(write=False)
        self.modulus = m
        self.d = d
        self._coords = arr
        self._flat = flat if d <= 62 and m.q**d <= 1 << 62 else None  # one key, the flat index
        self._power_by_class = None
        self._nu = None

    @classmethod
    def _from_flat(cls, m: Modulus, d: int, flat: np.ndarray) -> "PointSet":
        """The set of the sorted, distinct int64 flat indices `flat` of
        Z_q^d, q^d <= 2^62, kept read-only as they are: no check, no sort,
        and no coordinates until they are read (array())."""
        self = cls.__new__(cls)
        flat.setflags(write=False)
        self.modulus, self.d, self._coords, self._flat = m, d, None, flat
        self._power_by_class = self._nu = None
        return self

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def size(self) -> int:
        return len(self._flat if self._coords is None else self._coords)

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array().tolist()))

    def array(self) -> np.ndarray:
        """The read-only (size, d) int64 rows, built from the flat indices
        on the first read of a set that has none yet (_from_flat)."""
        if self._coords is None:
            coords = _flat_digits(self._flat, self.q, self.d)
            coords.setflags(write=False)
            self._coords = coords
        return self._coords

    def flat_indices(self) -> np.ndarray:
        """The base-q index of each row, x_1 most significant, in row order
        and so increasing: read-only, the constructor's sort key while
        q^d <= 2^62, else computed on each call."""
        if self._flat is not None:
            return self._flat
        if self.d > 63 or self.q**self.d > 1 << 63:
            raise DomainError(f"|Z_{self.q}^{self.d}| exceeds the 2^63 flat indices of int64")
        strides = self.q ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        flat = self.array() @ strides
        flat.setflags(write=False)
        return flat

    def translate(self, v: Sequence[int]) -> "PointSet":
        if len(v) != self.d:
            raise DomainError(f"translation vector needs {self.d} coordinates")
        shift = np.array([int(w) % self.q for w in v], dtype=np.int64)
        # c + s wraps int64 once q > 2^62; c - (q - s) stays in [0, q)
        c, rest = self.array(), self.q - shift
        return PointSet(self.modulus, self.d, np.where(c >= rest, c - rest, c + shift))

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, p) -> bool:
        if len(p) != self.d:
            return False
        row = np.array([int(c) % self.q for c in p], dtype=np.int64)
        return bool((self.array() == row).all(axis=1).any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.modulus, self.d) == (other.modulus, other.d) and np.array_equal(
            self.array(), other.array()
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.d, self.array().tobytes()))

    def __repr__(self) -> str:
        return f"PointSet(q={self.q}, d={self.d}, size={self.size})"


def _packed_keys(arr: np.ndarray, q: int) -> list[np.ndarray]:
    """The rows of residues as base-q int64 keys, k coordinates to a key with
    q^k <= 2^62 (one coordinate when q itself is larger): comparing the keys
    in turn compares the rows lexicographically."""
    k = 1
    while q ** (k + 1) <= 1 << 62:
        k += 1
    d = arr.shape[1]
    return [arr[:, lo : lo + k] @ (q ** np.arange(min(k, d - lo) - 1, -1, -1, dtype=np.int64))
            for lo in range(0, d, k)]


def distance(x: Sequence[int], y: Sequence[int], q: "int | Modulus") -> Residue:
    """||x - y|| = sum (x_i - y_i)^2 as a residue mod q."""
    if len(x) != len(y):
        raise DomainError(f"shape mismatch: {len(x)} vs {len(y)} coordinates")
    m = as_modulus(q)
    return Residue(sum((a - b) ** 2 for a, b in zip(x, y)), m)


def nu_pairs(E: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET) -> np.ndarray:
    """nu(t) for every t by one exhaustive scan over unordered pairs.

    The oracle for nu_histogram: no transform and no shortcut for any q.
    ||x - y|| = ||y - x||, so each pair x < y (in row order) is scanned once
    and counted twice, and the |E| pairs x = y count at t = 0.  The
    histogram has q entries, so q is held to DEFAULT_GRID_BUDGET, as the
    q x q transform kernel is.  Each square (x_i - y_i)^2 < q^2 then fits
    int64; when the d of them could sum past 2^63 they are reduced mod q
    first, which leaves sums below d q.  |E|^2 must fit max_pairs.
    """
    n, q, d = E.size, E.q, E.d
    if n * n > max_pairs:
        raise BudgetError(
            f"|E|^2 = {n * n} ordered pairs for q={q} d={d} exceeds the budget {max_pairs}"
        )
    check_grid_budget(q, 1)
    reduce_squares = d * (q - 1) ** 2 >= 1 << 63
    pts = E.array()
    counts = np.zeros(q, dtype=np.int64)
    block = max(1, 2**22 // max(1, n * d))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diff = pts[lo:hi, None, :] - pts[None, lo + 1 :, :]  # x = row lo.., y = row lo + 1..
        diff *= diff
        if reduce_squares:
            diff %= q
        dist = diff.sum(axis=2) % q
        later = np.arange(lo + 1, n) > np.arange(lo, hi)[:, None]  # y after x
        counts += np.bincount(dist[later], minlength=q)
    counts *= 2
    counts[0] += n
    return counts


def _power_by_class(
    E: PointSet, max_grid: int, orbit: "np.ndarray | None" = None
) -> np.ndarray:
    """P_c of E for every class slot (_class_power), odd q, kept on E: only the
    first call on a set sums it, from `orbit` when the caller has just
    transformed E (the autocorrelation), else from a transform of its own.
    A transform of Z_q^d holds the q^d grid and the q x q kernel of its
    passes, so q^max(d, 2) must fit max_grid: that is checked on every
    call, before P is read."""
    check_grid_budget(E.q, max(E.d, 2), max_grid)
    if E._power_by_class is None:
        if orbit is None:
            orbit = orbit_power(E.flat_indices(), E.q, E.d, max_grid)
        by_class = _class_power(orbit, E.q, E.d)
        by_class.setflags(write=False)
        E._power_by_class = by_class
    return E._power_by_class


def _forward_charge(E: PointSet) -> float:
    """a = d (q + 11) eps |E|, the bound on the error of each unscaled real
    coefficient q^d C_phi(s) that the passes of orbit_power leave for 1_E.

    Each length-q pass is charged _pass_charge, (q + 11) eps of the absolute
    sum of its terms: its q roundings take q eps/2 and the table roots 11 eps,
    which leaves q eps/2 to spare.  That holds for every schedule of
    fourier._passes and for every slab of orbit_power, so the charge is the
    same with or without a q^d grid: the leading axes in place a column
    chunk at a time, the trailing ones block by block, a slab's first pass
    by bincounts, each output the same length-q dot product and each copy
    exact.  The passes are not scaled, and the basis
    rows have |cos|, |sin| <= 1, so the absolute sums stay |E| through the
    d passes.  The 2^k errors of the coefficients on one orbit are at most
    that in Euclidean norm too: per pass (cos, sin) has norm 1, so
    Minkowski's inequality carries the bound through every pass.  With |q^d C(s)|^2 = q^{2d} O(s) / w(s), w(s) the
    orbit size, the computed O(s) is then within

        2 (w(s) O(s))^{1/2} a q^-d + w(s) a^2 q^-2d

    of its value before the roundings of the square, the folds and the one
    division by q^{2d}."""
    return E.d * _pass_charge(E.q) * E.size


def _autocorrelation_tolerance(E: PointSet) -> float:
    """w_max (a (2 |E|^{1/2} + a) + (d + 2 + d (q//2 + 12)) eps |E|): how far
    an orbit sum R(r) = q^d orbit_inverse(O)(r) of A may lie from its
    integer, with a from _forward_charge and w_max = 2^d (1 for q = 2) the
    largest orbit.

    * The forward errors of O (_forward_charge) enter R(r) through
      q^d w(r) sum_s |dO(s)|, since |prod_i w(r_i) cos| <= w(r).  The
      orbits cover Z_q^d, sum_s w(s) = q^d, and sum_s O(s) = |E| q^-d
      (Parseval), so sum_s (w(s) O(s))^{1/2} <= |E|^{1/2} by
      Cauchy-Schwarz: w(r) a (2 |E|^{1/2} + a).
    * orbit_power rounds each nonnegative O(s) d + 2 times: the square, one
      slice sum per axis fold and the division by q^{2d} (its weights are
      exact powers of two): (d + 2) eps of q^d sum_s O(s) = |E|.  Each
      output adds its sine term once per axis in slabs or in the grid, the
      first axis folded last or first, so the count holds for both forms.
    * orbit_inverse is d passes of h = q//2 + 1 terms with |w cos| <= w,
      charged _pass_charge(h) of absolute sums that stay w(r) |E|, the
      leftover h eps/2 covering the scaling by q^d: d (h + 11) eps w(r) |E|.
    """
    eps, n, d = float(np.finfo(np.float64).eps), E.size, E.d
    a = _forward_charge(E)
    w_max = float(half_weights(E.q).max()) ** d
    steps = (d + 2) * eps + d * _pass_charge(E.q // 2 + 1)  # exact: eps is a power of two
    return w_max * (a * (2 * math.sqrt(n) + a) + steps * n)


def _nu_autocorrelation(E: PointSet, max_grid: int) -> np.ndarray:
    """nu(t) = sum_{||z|| = t} A(z) with A = 1_E (*) 1_{-E}, from its orbit
    sums R(r) = q^d orbit_inverse(O)(r) on the orthant, O = orbit_power of E.

    A(z) counts the pairs with x - y = z, so each R(r) is an integer; the
    float values are rounded after a check against _autocorrelation_tolerance.
    An orbit lies on one sphere, so one bincount by the orthant's norms
    (sphere._norms) sums the rounded R by ||r|| mod q, exactly up to 2^53.  A tolerance of
    1/2 or more cannot single out the integer, and |E|^2 > 2^53 cannot be
    summed exactly: both raise BudgetError, as does the transform budget.  The counts are kept
    on E, read-only, and returned by every later call that these checks
    admit; for odd q the transform also leaves E's class power
    (_power_by_class) for a sweep that follows.
    """
    q, d, n = E.q, E.d, E.size
    tol = _autocorrelation_tolerance(E)
    if tol >= 0.5 or n * n > 2**53:
        raise BudgetError(
            f"autocorrelation tolerance {tol:.3g} for |E| = {n} in Z_{q}^{d} cannot "
            f"certify integer pair counts"
        )
    check_grid_budget(q, max(d, 2), max_grid)  # also before the kept counts are read
    if E._nu is not None:
        return E._nu
    orbit = orbit_power(E.flat_indices(), q, d, max_grid)
    if E.modulus.is_odd:
        _power_by_class(E, max_grid, orbit)
    acorr = orbit_inverse(orbit, q, d)
    acorr *= float(q**d)
    counts = np.rint(acorr)
    acorr -= counts
    worst = float(np.abs(acorr).max())
    del acorr
    if worst > tol:
        raise InconsistencyError(
            f"autocorrelation entry lies {worst:.3g} from an integer, beyond the tolerance {tol:.3g}"
        )
    nu = np.bincount(_norms(q, d, q // 2 + 1), counts.reshape(-1), q).astype(np.int64)
    if int(nu.sum()) != n * n:
        raise InconsistencyError(
            f"autocorrelation pair counts sum to {int(nu.sum())}, not |E|^2 = {n * n}"
        )
    nu.setflags(write=False)
    E._nu = nu
    return nu


def nu_histogram(
    E: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET, max_grid: int = DEFAULT_GRID_BUDGET
) -> np.ndarray:
    """nu(t) for every t at once, exactly: the count that certificate_check and
    the CLI check the spectral sweep against, which it never runs.

    Over Z_2 no pair is scanned: ||x - y|| = ||x|| + ||y|| mod 2, since the
    cross term 2 x.y vanishes, so with c_0 points of even weight and c_1 of
    odd weight nu(0) = c_0^2 + c_1^2 and nu(1) = 2 c_0 c_1.  Otherwise the
    autocorrelation is tried when q^{d+1} <= |E|^2 (its d q^{d+1} work is
    then no more than the d |E|^2 of the pair scan) or when |E|^2 exceeds
    max_pairs, and a refused autocorrelation falls through to nu_pairs.
    Each route admits itself: the pair budget gates only the pair scan, and
    the autocorrelation its tolerance and the transform budget.  The
    histogram has q entries, so q must fit max_grid.
    """
    n, q = E.size, E.q
    check_grid_budget(q, 1, max_grid)
    if q == 2:
        odd = int(np.count_nonzero(np.einsum("ij->i", E.array()) & 1))
        even = n - odd
        return np.array([even * even + odd * odd, 2 * even * odd], dtype=np.int64)
    if q ** (E.d + 1) <= n * n or n * n > max_pairs:
        try:
            return _nu_autocorrelation(E, max_grid).copy()  # the caller's own, as on every route
        except BudgetError:
            pass
    return nu_pairs(E, max_pairs)


def distance_set(
    E: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET, max_grid: int = DEFAULT_GRID_BUDGET
) -> set[int]:
    """Delta(E) as a set of canonical residue values (0 is always present)."""
    hist = nu_histogram(E, max_pairs, max_grid)
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
    tol: float  # how far the float sum of nu(t) may lie from its integer


def _r_bound(E: PointSet) -> float:
    m = E.modulus
    return E.size * tau(m) * float(m.q) ** (E.d - 1) * float(m.p1) ** (-(E.d - 2) / 2)


def _class_power(orbit: np.ndarray, q: int, d: int) -> np.ndarray:
    """P_c = the sum of |E^(m)|^2 over the class c of m, for every class slot.

    `orbit` is the orbit power of fourier.orbit_power on the orthant [0, q // 2]^d;
    it is not modified.  A class is closed under every sign flip, so P_c is
    the sum of O over the k_c orthant points of class c, added one after
    another by one bincount by the orthant's class table (sphere._class_ids).
    """
    return np.bincount(_class_ids(q, d, q // 2 + 1), orbit.reshape(-1), _class_count(q))


def _sweep_tolerance(E: PointSet, power_by_class: np.ndarray, kern: _ClassKernel) -> np.ndarray:
    """The rounding tolerance of nu(t) = q^{2d} sum_c P_c K[c, t] for every t.

    * The forward errors of O (_forward_charge) enter nu(t) through
      q^{2d} sum_s |dO(s)| |K[c(s), t]|.  By Cauchy-Schwarz and Parseval,
      sum_s (w(s) O(s))^{1/2} |K[c(s), t]| <= (sum_m |S_t^(m)|^2)^{1/2}
      (sum_s O(s))^{1/2} = q^-d (|S_t| |E|)^{1/2}, and
      sum_s w(s) |K[c(s), t]| = sum_m |S_t^(m)| <= |S_t|^{1/2}: together
      a (2 |E|^{1/2} + a) |S_t|^{1/2}, with |S_t| the exact sphere count.
      This charge is absolute: a coefficient that cancels to near 0 keeps
      the error of its terms, so no bound relative to |E^(m)|^2 holds.
    * The rest is bounded relative to the nonnegative terms, in units of
      eps = 2^-52, as rho_c: the square, the d axis folds and the division
      by q^{2d} of orbit_power round d + 2 times; the sum over the k_c
      orthant points of class c (_class_power) k_c times; the sum over the
      C = sigma(q) classes, the product P_c K[c, t] and the factor q^{2d}
      C + 3 times.  That weights q^{2d} sum_c P_c |K[c, t]|.
    * The kernel builders bound the error of K[c, t] absolutely, by
      error[c, t]: K cancels to 0 on an empty sphere, so no relative bound
      holds there.

    Hence

        tol_t = a (2 |E|^{1/2} + a) |S_t|^{1/2}
                + q^{2d} sum_c P_c (rho_c eps |K[c, t]| + error[c, t]),

    built with one sigma(q) x q temporary, |K|.  A tolerance of 1/2 or more
    for any t cannot certify the nearest integer and raises BudgetError.
    """
    q, d, h = E.q, E.d, E.q // 2 + 1
    eps = float(np.finfo(np.float64).eps)
    a = _forward_charge(E)
    classes = len(power_by_class)
    rho = np.bincount(_class_ids(q, d, h), minlength=classes) + float(d + 2 + classes + 3)
    spheres = _sphere_count_rows(q, d)[d].astype(np.float64)
    tol = (power_by_class * rho * eps) @ np.abs(kern.values)
    tol += power_by_class @ kern.error
    tol *= float(q) ** (2 * d)
    tol += a * (2 * math.sqrt(E.size) + a) * np.sqrt(spheres)
    over = np.flatnonzero(tol >= 0.5)
    if over.size:
        t = int(over[0])
        raise BudgetError(
            f"nu({t}): rounding tolerance {tol[t]:.3g} reaches 1/2, so the float sum "
            f"cannot certify an integer count for |E| = {E.size} in Z_{q}^{d}"
        )
    return tol


def nu_spectral_sweep(
    E: PointSet,
    route: str = "direct",
    max_grid: int = DEFAULT_GRID_BUDGET,
    int_tol: "float | None" = None,
) -> list[NuReport]:
    """Spectral evaluation of nu(t) for every t from one transform of E's
    indicator; must reproduce nu_pairs exactly.

    S_t^(m) depends on m only through its class, so
    nu(t) = q^{2d} sum_c P_c K[c, t] with P_c the sum of |E^(m)|^2 over
    class c (_class_power) and K the sigma(q) x q class kernel
    (sphere._class_kernel).  `route` picks how K is built: "direct" from
    exact point counts, "formula" from Gauss sums.  Beyond the one orbit
    transform (fourier.orbit_power) the work is O(q^d), and the only tables are
    those of the (q//2 + 1)^d orthant; |S_t| comes from the exact
    convolution sphere._sphere_count_rows, and the chain bound
    max_{m != 0} |S_t^(m)| is a column maximum of |K|.  P is kept on E
    (sigma(q) floats): only the first sweep of a set transforms it, or none
    when nu_histogram counted nu(t) by the autocorrelation first (as
    certificate_check and the CLI do), and every later sweep, by either
    route, reads P back after checking the transform budget.  A later
    nu_histogram transforms E again: the sweep keeps no pair counts.

    K is real, so each nu(t) is one float64 sum.  It must land within a
    tolerance of an integer, and exceed the chain bound by no more than that
    tolerance plus the chain's slack (_sweep).  The tolerance is derived per
    t from the sum's rounding steps (_sweep_tolerance) unless int_tol is
    given; each report carries the tolerance its nu(t) was checked against.
    """
    m = E.modulus
    m.require_odd("nu_spectral_sweep")
    power_by_class = _power_by_class(E, max_grid)  # its budget check precedes any kernel build
    return _sweep(E, _class_kernel(m, E.d, route, max_grid), power_by_class, int_tol)


def _sweep(
    E: PointSet, kern: _ClassKernel, power_by_class: np.ndarray, int_tol: "float | None"
) -> list[NuReport]:
    """The reports of nu_spectral_sweep for every t, from the kernel and the
    class power P_c.

    The chain check |R_t| <= q^d |E| max_{m != 0} |S_t^(m)| and the decay
    check of that chain against r_bound (d > 2) allow for the computed values
    lying off their true ones: |R_t| by tol_t, the chain and r_bound by
    slack_t.  Each K[c, t] is within error[c, t] of its S_t^(m), so the
    computed chain is within q^d |E| max_{c >= 1} error[c, t] of the true
    one; the rest are roundings of one eps each (|K| and three products in
    the chain, two powers and three products in r_bound), which 8 eps of
    each value covers."""
    q, d = E.q, E.d
    total = float(q) ** (2 * d) * (power_by_class @ kern.values)
    if int_tol is None:
        tol = _sweep_tolerance(E, power_by_class, kern)
    else:
        tol = np.full(q, float(int_tol))
    counts = _sphere_count_rows(q, d)[d]
    chains = float(q) ** d * E.size * kern.chain
    r_bound = _r_bound(E)
    eps = float(np.finfo(np.float64).eps)
    slack = float(q) ** d * E.size * kern.error[1:].max(axis=0) + 8 * eps * (chains + r_bound)
    out = []
    for t in range(q):
        main = E.size**2 * int(counts[t]) / q**d
        z, tol_t, chain = float(total[t]), float(tol[t]), float(chains[t])
        slack_t = float(slack[t])
        r = z - main
        nu_int = round(z)
        if abs(z - nu_int) > tol_t:
            raise InconsistencyError(f"nu({t}) = {z!r} is not within {tol_t:.3g} of an integer")
        if abs(r) > chain + slack_t + tol_t:
            raise InconsistencyError(f"|R_{t}| = {abs(r)} exceeds the spectral chain bound {chain}")
        if d > 2 and chain > r_bound + slack_t:
            raise InconsistencyError(f"chain bound {chain} exceeds the decay bound {r_bound}")
        out.append(
            NuReport(t, int(nu_int), main, r, r_bound, bool(main - r_bound > 0), tol_t)
        )
    return out


@dataclass(frozen=True)
class ThresholdReport:
    threshold: float
    non_vacuous: bool  # threshold < q^d, i.e. some actual set can satisfy it


def theorem_threshold(q: "int | Modulus", d: int, C: float) -> ThresholdReport:
    """C tau(q) q^d p_1^{-(d-2)/2}: sets at least this large realize every
    distance.  The constant C must be positive."""
    m = as_modulus(q)
    m.require_odd("theorem_threshold")
    if not C > 0:  # NaN too
        raise DomainError(f"the threshold needs C > 0, got C={C}")
    if as_int(d, "d") <= 2:
        raise DomainError(f"the threshold needs d > 2, got d={d}")
    thr = C * tau(m) * float(m.q) ** d * float(m.p1) ** (-(d - 2) / 2)
    return ThresholdReport(thr, thr < float(m.q) ** d)


@dataclass(frozen=True)
class CertificateRow:
    t: int
    fired: bool  # main_term - r_bound > 0
    nu: "int | None"  # nu_histogram's count, unless both its routes refuse the set
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

    The claim nu(t) > 0 is verified against the independent count of
    nu_histogram (the autocorrelation or the pair scan, never the sweep
    itself); only when both its routes refuse the set does positivity
    follow from nu = M + R_t >= M - |R_t|.  The sweep and the
    autocorrelation share one transform of E's indicator, and a later check
    of the same set, by either route, transforms it no more (E keeps its
    counts and its class power).  After a nu_spectral_sweep of E alone, the
    autocorrelation transforms E a second time: the sweep keeps no counts.
    """
    m = E.modulus
    m.require_odd("certificate_check")
    if E.d <= 2:
        raise DomainError(f"the certificate needs d > 2, got d={E.d}")
    check_grid_budget(E.q, max(E.d, 2), max_grid)  # before a pair scan the sweep would refuse
    try:
        hist = nu_histogram(E, max_pairs, max_grid)
    except BudgetError:
        hist = None
    rows = []
    for rep in nu_spectral_sweep(E, route, max_grid, int_tol):
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


# The coordinates a constructor or the sampler builds, |E| d int64 entries,
# are held to this many (2 GiB), checked before any array: every subset of a
# grid within DEFAULT_GRID_BUDGET fits, all of Z_2^23 (1.9 * 10^8) the largest.
_COORD_BUDGET = 1 << 28


def _check_coord_budget(size: int, d: int, what: str) -> None:
    if size * d > _COORD_BUDGET:
        raise BudgetError(f"{what} has {size} points in dimension {d}: {size * d} coordinates, "
                          f"past the budget {_COORD_BUDGET}")


def construct_even_weight(d: int) -> PointSet:
    """All vectors of Z_2^d with an even number of nonzero coordinates.

    |E| = 2^{d-1} and every pairwise distance is 0 in Z_2.  Past
    _COORD_BUDGET coordinates (d > 24) it raises BudgetError.
    """
    d = as_int(d, "the dimension")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    _check_coord_budget(1 << (d - 1), d, f"the even-weight set of Z_2^{d}")
    # the first d - 1 coordinates are free; the last one makes the weight even
    free = (np.arange(1 << (d - 1))[:, None] >> np.arange(d - 2, -1, -1)) & 1
    return PointSet(2, d, np.column_stack([free, free.sum(axis=1) % 2]))


def _lattice_shape(p: int, ell: int, d: int) -> tuple[int, int]:
    """q = p^ell and |E| = p^{floor(ell/2) d} of the zero-distance lattice,
    after checking that p is an odd prime and ell, d >= 1."""
    p, ell, d = as_int(p, "p"), as_int(ell, "ell"), as_int(d, "the dimension")
    if p < 3 or p % 2 == 0 or factorize(p).factors != ((p, 1),):
        raise DomainError(f"p must be an odd prime, got {p}")
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return p**ell, p ** (ell // 2 * d)


def construct_zero_distance_lattice(p: int, ell: int, d: int) -> PointSet:
    """E = (p^ceil(ell/2) Z_{p^ell})^d, of size p^{floor(ell/2) d}, whose
    coordinates must fit _COORD_BUDGET (BudgetError), as for sample_random_set.

    Coordinate differences are multiples of p^ceil(ell/2), so every distance
    is divisible by p^{2 ceil(ell/2)} and hence 0 in Z_{p^ell}.
    """
    q, size = _lattice_shape(p, ell, d)
    _check_coord_budget(size, d, "the lattice")
    p, ell, d = int(p), int(ell), int(d)  # integers, checked: numpy ones as Python ints
    coords = np.arange(0, q, p ** ((ell + 1) // 2))
    # row i holds the base-k digits of i, k = len(coords), for any d
    flat = np.arange(size, dtype=np.int64)
    digits = np.empty((size, d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        flat, digits[:, j] = np.divmod(flat, len(coords))
    return PointSet(q, d, coords[digits])


_MASK64 = (1 << 64) - 1
_U64 = np.uint64
_DRAW_CHUNK = 1 << 14  # stream outputs per stretch of _fisher_yates_draws (128 KiB)


def _mix64(z: np.ndarray, seed: int, scratch: np.ndarray) -> np.ndarray:
    """Output k of the splitmix64 stream from `seed`, in place of each k + 1
    that z holds: the state seed + (k + 1) gamma mod 2^64 through the three
    mixing rounds.  uint64 arithmetic wraps mod 2^64; scratch is as long as z."""
    z *= _U64(0x9E3779B97F4A7C15)
    z += _U64(seed & _MASK64)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, _U64(shift), out=scratch)
        z ^= scratch
        z *= _U64(mult)
    np.right_shift(z, _U64(31), out=scratch)
    z ^= scratch
    return z


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start, ..., start + count - 1 of the splitmix64 stream from `seed`.

    Output k mixes the state seed + (k + 1) gamma mod 2^64, so any stretch of
    the stream comes out at once.
    """
    z = np.arange(start + 1, start + count + 1, dtype=_U64)
    return _mix64(z, seed, np.empty_like(z))


def _fisher_yates_draws(seed: int, n: int, size: int) -> np.ndarray:
    """j_i = i + (a uniform draw below n - i) for i < size, n <= 2^64.

    Each draw takes the next stream output z and rejects it while
    z >= 2^64 - (2^64 mod (n - i)), which keeps it exactly uniform.  The
    stream is read in stretches of _DRAW_CHUNK outputs through reused
    buffers.  2^64 mod (n - i) < n - i, so a rejected z has
    z >= 2^64 - (n - i) >= 2^64 - (n - done), done the draws before the
    stretch: the remainders are computed only for those few candidates.  A
    rejection moves every later draw one output on, which changes n - i for
    the later candidates, so their rejections are recomputed from the count
    of rejections before each until that count no longer changes.  Candidate
    c's count is exact after c rounds, so this ends, and the one fixed point
    is the sequential answer; a shift of a few draws barely moves
    2^64 mod (n - i) against z, so two rounds are the rule.
    """
    draws = np.empty(size, dtype=_U64)
    steps = np.arange(_DRAW_CHUNK, dtype=_U64)
    z = np.empty(_DRAW_CHUNK, dtype=_U64)
    scratch = np.empty(_DRAW_CHUNK, dtype=_U64)
    done = pos = 0
    if n == 1 << 64:  # n - 0 = 2^64: the first output is the first draw, never rejected
        draws[0] = _splitmix64(seed, 0, 1)[0]
        done = pos = 1
    while done < size:
        take = min(_DRAW_CHUNK, size - done)
        out, tmp = z[:take], scratch[:take]
        np.add(steps[:take], _U64(pos + 1), out=out)
        _mix64(out, seed, tmp)
        top = n - done  # the largest n - i of the stretch, below 2^64
        cand = np.flatnonzero(out >= _U64((1 << 64) - top))
        if cand.size:
            z_cand, before = out[cand], np.zeros(cand.size, dtype=_U64)
            while True:
                span = _U64(top) - cand.astype(_U64) + before  # n - i for each candidate
                rem = (_U64(0) - span) % span  # 2^64 mod (n - i)
                rejected = (rem != 0) & (z_cand >= _U64(0) - rem)
                counted = np.zeros_like(before)
                np.cumsum(rejected[:-1], dtype=_U64, out=counted[1:])
                if np.array_equal(counted, before):
                    break
                before = counted
            if rejected.any():
                out = np.delete(out, cand[rejected])
        ok = out.size
        span = tmp[:ok]
        np.subtract(_U64(top), steps[:ok], out=span)
        kept = draws[done : done + ok]
        np.remainder(out, span, out=kept)
        kept += steps[:ok]
        kept += _U64(done)
        done += ok
        pos += take
    return draws


def _fisher_yates_select(draws: np.ndarray) -> np.ndarray:
    """The sorted set of values that the partial Fisher-Yates swaps j_0, j_1,
    ... pick (uint64), where step i swaps positions i and j_i >= i of the
    identity array.

    Position p >= size is only ever a target: it ends holding p if no step
    targets it, else W(k) for the last step k that does, W(k) being the
    value at position k at step k.  W(k) = k unless an earlier step
    targeted k, and then W(k) = W(last such step), so every W lies in
    [0, size).  The picks are the values that do not end at a position
    >= size:

        ([0, size) minus {W(last step targeting p) : p >= size})
        union {the targets >= size},

    the first part below size and the second at or above it, both sorted.
    One argsort of the targets groups their steps, and np.maximum.reduceat
    takes the last step of each group.  W's pointers (the last step that
    targeted p < size, or p) only run backwards, so pointer jumping over
    positions resolves them in O(log size) passes through two buffers.  A
    step with j_i = i swaps nothing but is kept: it points i at itself,
    and W(i) is never read, since no later step targets i.
    """
    size = draws.size
    steps = np.argsort(draws)  # grouped by target
    targets = draws[steps]
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    last = np.maximum.reduceat(steps, starts)
    targets = targets[starts]
    del steps, first, starts
    inside = int(np.searchsorted(targets, _U64(size)))  # the targets below size come first
    w = np.arange(size, dtype=np.int64)
    w[targets[:inside].astype(np.int64)] = last[:inside]
    jumped = np.empty_like(w)
    while True:
        np.take(w, w, out=jumped, mode="clip")
        if np.array_equal(jumped, w):
            break
        w, jumped = jumped, w
    kept = np.ones(size, dtype=bool)
    kept[w[last[inside:]]] = False
    picked = np.empty(size, dtype=_U64)
    low = np.flatnonzero(kept)
    picked[: low.size] = low
    picked[low.size :] = targets[inside:]
    return picked


def _flat_digits(flat: np.ndarray, q: int, d: int) -> np.ndarray:
    """The base-q digits of flat indices below q^d <= 2^64 (int64 or uint64),
    x_1 most significant, as one (|flat|, d) int64 array: the first quotient
    by q fits int64 whenever q^d does not.  Each digit fills one contiguous
    row of a (d, |flat|) array, the quotient kept in place, and the rows are
    transposed once at the end."""
    digits = np.empty((d, flat.size), dtype=np.int64)
    rest, digits[d - 1] = np.divmod(flat, flat.dtype.type(q))
    rest = rest.astype(np.int64, copy=False)
    for j in range(d - 2, -1, -1):
        np.divmod(rest, q, out=(rest, digits[j]))
    return np.ascontiguousarray(digits.T)


def sample_random_set(q: "int | Modulus", d: int, size: int, seed: int) -> PointSet:
    """Uniform sample of `size` distinct points of Z_q^d.

    Bit-for-bit reproducible from the seed: a splitmix64 stream drives a
    partial Fisher-Yates selection over flat indices
    (_fisher_yates_draws), so q^d may not exceed 2^64 and q must stay below
    2^63 (DomainError); size must stay below 2^32 and size d within
    _COORD_BUDGET, both BudgetError, checked before drawing, so that the
    coordinates fit whenever they are read.  The swaps are resolved
    together, not one at a time: one argsort and O(log size)
    pointer-jumping passes give the picked flat indices as a sorted set
    (_fisher_yates_select).  While q^d <= 2^62 the set keeps only them and
    builds its coordinates, their base-q digits, on the first read
    (PointSet._from_flat); past 2^62 the digits are built here.
    """
    m = _residue_modulus(q)
    d, size, seed = as_int(d, "the dimension"), as_int(size, "sample size"), as_int(seed, "seed")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if size < 1:
        raise DomainError(f"sample size must be >= 1, got {size}")
    # q >= 2, so d > 64 is past 2^64 before q^d is ever formed
    if d > 64 or m.q**d > 1 << 64:
        raise DomainError(f"|Z_{m.q}^{d}| exceeds the 2^64 flat indices of the sampler")
    n = m.q**d
    if size > n:
        raise DomainError(f"sample size {size} exceeds |Z_{m.q}^{d}| = {n}")
    if size >= 1 << 32:
        raise BudgetError(f"sample size {size} reaches the sampler's limit of 2^32 points")
    _check_coord_budget(size, d, "the sample")
    flat = _fisher_yates_select(_fisher_yates_draws(seed, n, size))
    if n <= 1 << 62:
        return PointSet._from_flat(m, d, flat.view(np.int64))
    return PointSet(m, d, _flat_digits(flat, m.q, d))


def write_pointset(E: PointSet, path) -> None:
    """Plain-text format: header ``q=<int> d=<int>``, one comma-separated
    point per line; blank lines and # comments are ignored on read.  The
    lines are those of np.savetxt(fmt="%d", delimiter=","), formatted a block
    of rows at a time as bytes (_decimal_rows)."""
    arr = E.array()
    width = len(str(int(arr.max())))
    block = max(1, 2**20 // (E.d * (width + 1)))
    with open(path, "wb") as fh:
        fh.write(f"q={E.q} d={E.d}\n".encode())
        for lo in range(0, len(arr), block):
            fh.write(_decimal_rows(arr[lo : lo + block], width))


def _decimal_rows(rows: np.ndarray, width: int) -> bytes:
    """Rows of residues below 10^width as "x_1,...,x_d\n" lines in decimal.

    Every value gets `width` digit slots and one separator slot (a comma, or
    a newline after the last coordinate); the digits fill the slots from the
    right, and the leading slots above a value's own digits are dropped, so
    0 is written "0" and no value gets a leading zero.
    """
    n, d = rows.shape
    out = np.empty((n, d, width + 1), dtype=np.uint8)
    rest = rows
    for k in range(width - 1, 0, -1):
        rest, out[:, :, k] = np.divmod(rest, 10)
    out[:, :, 0] = rest
    out[:, :, :width] += ord("0")
    out[:, :, width] = ord(",")
    out[:, -1, width] = ord("\n")
    if width == 1:
        return out.tobytes()
    keep = np.ones(out.shape, dtype=bool)
    for k in range(width - 1):
        keep[:, :, k] = rows >= 10 ** (width - 1 - k)
    return out[keep].tobytes()


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
                header = (_residue_modulus(int(match.group(1))), int(match.group(2)))
                continue
            coords = tuple(int(tok) % header[0].q for tok in line.split(","))
            if len(coords) != header[1]:
                raise DomainError(f"point {coords} does not have {header[1]} coordinates")
            pts.append(coords)
    if header is None:
        raise DomainError("missing 'q=<int> d=<int>' header line")
    return PointSet(*header, pts)
