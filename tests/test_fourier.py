import cmath
import functools
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from zqdist import fourier
from zqdist.errors import BudgetError, DomainError
from zqdist.fourier import (
    GridFunction,
    Spectrum,
    character_table,
    dft_reference,
    forward,
    half_weights,
    index_of_point,
    inverse,
    orbit_inverse,
    orbit_power,
    orthogonality_max_defect,
    plancherel_defect,
    point_of_index,
)


def random_grid(q, d, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return GridFunction(q, d, rng.standard_normal(q**d) + 1j * rng.standard_normal(q**d))


def delta(q, d, point=None):
    vals = np.zeros(q**d, dtype=complex)
    vals[0 if point is None else index_of_point(point, q, d)] = 1.0
    return GridFunction(q, d, vals)


class TestChi:
    # the additive character chi(x) = e^{2 pi i x / q}, tabulated
    def test_values(self):
        assert character_table(7)[0] == 1
        assert abs(character_table(9)[3] - cmath.exp(2j * cmath.pi / 3)) < 1e-12

    @pytest.mark.parametrize("q", [0, -3, 2.5, 9.0, "x", None])
    def test_no_modulus_refused(self, q):
        # q = 0 would give an empty table; the check precedes the cache's own
        # size comparison, which a string would fail with TypeError
        with pytest.raises(DomainError):
            character_table(q)

    @pytest.mark.parametrize("q", [fourier.DEFAULT_GRID_BUDGET + 1, 10**9, 10**20])
    def test_oversized_table_refused(self, q, refused_before_allocating):
        # 10^9 roots would take 16 GB, and numpy cannot size 10^20 of them
        with refused_before_allocating(BudgetError):
            character_table(q)

    def test_character_property(self):
        for q in (5, 8, 9, 12):
            tbl = character_table(q)
            for a in range(q):
                for b in range(q):
                    assert abs(tbl[a] * tbl[b] - tbl[(a + b) % q]) < 1e-12

    def test_character_tables_follow_the_rule(self):
        # q entries: 2^16 roots are kept, 65537 shared while held
        character_table.cache_clear()
        assert character_table(65536) is character_table(65536)
        assert character_table.cache_info().currsize == 1
        held = character_table(65537)
        assert character_table(65537) is held
        gone = weakref.ref(held)
        del held
        gc.collect()
        assert gone() is None
        assert character_table.cache_info().currsize == 1


class TestIndexing:
    def test_round_trip(self):
        for q, d in ((3, 3), (5, 2), (2, 7)):
            for i in range(q**d):
                assert index_of_point(point_of_index(i, q, d), q, d) == i

    def test_row_major_convention(self):
        # first coordinate is most significant
        assert index_of_point((1, 0, 0), 3, 3) == 9
        assert point_of_index(9, 3, 3) == (1, 0, 0)


class TestForward:
    def test_delta_is_flat(self):
        for q, d in ((3, 3), (5, 2), (4, 2)):
            F = forward(delta(q, d))
            assert np.abs(F.values - 1.0 / q**d).max() < 1e-12

    def test_constant_is_delta(self):
        for q, d in ((3, 3), (9, 2), (6, 2)):
            F = forward(GridFunction(q, d, np.ones(q**d)))
            assert abs(F.values[0] - 1) < 1e-12
            assert np.abs(F.values[1:]).max() < 1e-12

    def test_sphere_indicator_mean(self):
        # |S_1| = 6 in Z_3^3 by explicit triple-loop enumeration
        members = [
            (x, y, z)
            for x in range(3)
            for y in range(3)
            for z in range(3)
            if (x * x + y * y + z * z) % 3 == 1
        ]
        assert len(members) == 6
        vals = np.zeros(27, dtype=complex)
        for p in members:
            vals[index_of_point(p, 3, 3)] = 1.0
        F = forward(GridFunction(3, 3, vals))
        assert abs(F.values[0] - 6 / 27) < 1e-12

    def test_separable_matches_reference(self):
        # every pass count up to q^d <= 4096, so every rotation of the axes
        for q in (2, 3, 4, 5, 6, 7):
            for d in range(1, 13):
                if q**d > 4096:
                    break
                f = random_grid(q, d, seed=100 * q + d)
                ref = dft_reference(f).values
                diff = np.abs(forward(f).values - ref).max()
                assert diff < 1e-10, (q, d)
                F = Spectrum(q, d, ref)
                back = inverse(F).values
                want = q**d * np.conj(dft_reference(GridFunction(q, d, np.conj(ref))).values)
                assert np.abs(back - want).max() < 1e-10, (q, d)

    def test_reference_budget(self):
        with pytest.raises(BudgetError):
            dft_reference(random_grid(9, 3, 0), max_size=100)

    def test_kernel_budget(self):
        # 3163^2 > 10^7: the q x q kernel (160 MB) is refused before it is built,
        # though the grid itself has only 3163 points
        f = GridFunction(3163, 1, np.zeros(3163))
        with pytest.raises(BudgetError):
            forward(f)
        with pytest.raises(BudgetError):
            inverse(Spectrum(3163, 1, np.zeros(3163)))


class TestInverse:
    def test_zero_spectrum(self):
        f = inverse(Spectrum(5, 2, np.zeros(25)))
        assert np.abs(f.values).max() == 0

    def test_round_trip_delta(self):
        f = delta(9, 2)
        assert np.abs(inverse(forward(f)).values - f.values).max() < 1e-12

    def test_round_trip_random_grids(self):
        # 100 seeded grids on Z_9^3
        for seed in range(100):
            f = random_grid(9, 3, seed)
            scale = np.abs(f.values).max()
            defect = np.abs(inverse(forward(f)).values - f.values).max()
            assert defect < 1e-9 * scale


HALF_CASES = [(q, d) for q in (3, 4, 5, 6, 9, 10, 15) for d in (1, 2, 3)] + [
    (2, 10), (3, 7), (4, 5), (5, 4), (6, 4), (9, 4),
]


def orbit_sums(values, q, d):
    """sum_{m in orbit(s)} values[m] for s in the orthant [0, q // 2]^d, with
    numpy's sum over each orbit's members, gathered from a flat Z_q^d grid."""
    h = q // 2 + 1
    grid = values.reshape((q,) * d)
    out = np.zeros((h,) * d, dtype=values.dtype)
    for s in itertools.product(range(h), repeat=d):
        members = {tuple(c) for c in itertools.product(*[{u, (-u) % q} for u in s])}
        out[s] = grid[tuple(np.array(sorted(members)).T)].sum()
    return out


def orbit_sizes(q, d):
    """w(s) = prod_i w(s_i), the number of members of each orbit."""
    w = half_weights(q)
    return functools.reduce(np.multiply.outer, [w] * d)


class TestHalfTransforms:
    # The orbit transforms on the orthant [0, q // 2]^d, named after the
    # half-grid transforms they replaced.  Each pass is a q-term dot product
    # (h = q // 2 + 1 terms in orbit_inverse) with table roots within 11 eps,
    # charged (q + 11) eps of the absolute sum of its terms; |K| <= 1
    # propagates the absolute sums.

    @pytest.mark.parametrize("q,d", HALF_CASES)
    def test_half_forward_is_forward_on_half_grid(self, q, d):
        # the orbit power of a set against the orbit sums of |forward|^2 of
        # its indicator f, for q^(d-1) points (binned first pass) and for a
        # random 30% of the grid: each coefficient of each route is within
        # D = d (q + 11) eps q^-d sum |f| of its value, so each route's O(s)
        # within 2 (w O)^{1/2} D + w D^2 and the roundings of its squares and sums
        rng = np.random.Generator(np.random.PCG64(10 * q + d))
        eps = np.finfo(np.float64).eps
        w = orbit_sizes(q, d)
        for support in (np.sort(rng.choice(q**d, q ** (d - 1), replace=False)),
                        np.flatnonzero(rng.random(q**d) < 0.3)):
            f = np.zeros(q**d)
            f[support] = 1.0
            got = orbit_power(support, q, d)
            want = orbit_sums(np.abs(forward(GridFunction(q, d, f)).values) ** 2, q, d)
            assert got.shape == (q // 2 + 1,) * d
            D = d * (q + 11) * eps * np.abs(f).sum() / q**d
            bound = 2 * (2 * np.sqrt(w * want) * D + w * D**2 + (2 * d + 2) * eps * want)
            assert (np.abs(got - want) <= bound).all()

    @pytest.mark.parametrize("q,d", HALF_CASES)
    def test_hermitian_inverse_is_real_part_of_inverse(self, q, d):
        # the orbit sums of inverse(F) from the orbit sums of F, for a power
        # spectrum and for a real, even one: each route is d passes over
        # terms with absolute sum w(r) sum |F| at most
        rng = np.random.Generator(np.random.PCG64(100 * q + d))
        eps = np.finfo(np.float64).eps
        power = np.abs(forward(GridFunction(q, d, rng.random(q**d) < 0.4)).values) ** 2
        r = rng.standard_normal(q**d)
        negated = [index_of_point([-c for c in point_of_index(i, q, d)], q, d)
                   for i in range(q**d)]
        even = r + r[negated]  # real and even: F(-m) = F(m)
        for spectrum in (power, even):
            got = orbit_inverse(orbit_sums(spectrum, q, d), q, d)
            want = orbit_sums(inverse(Spectrum(q, d, spectrum)).values.real, q, d)
            assert got.shape == (q // 2 + 1,) * d
            bound = orbit_sizes(q, d) * 2 * d * (q + 11) * eps * np.abs(spectrum).sum()
            assert (np.abs(got - want) <= bound).all()

    def test_round_trip_of_a_real_grid(self):
        # |F|^2 of a 0/1 grid inverts to its autocorrelation, an integer grid
        for q, d in ((6, 3), (7, 3), (10, 2)):
            f = (np.random.Generator(np.random.PCG64(q)).random(q**d) < 0.5).astype(float)
            acorr = orbit_inverse(orbit_power(np.flatnonzero(f), q, d), q, d) * q**d
            grid = f.reshape((q,) * d)
            direct = [np.sum(grid * np.roll(grid, shift, axis=tuple(range(d))))
                      for shift in itertools.product(range(q), repeat=d)]
            assert np.abs(acorr - orbit_sums(np.array(direct), q, d)).max() < 1e-9

    @pytest.mark.parametrize("q", range(2, 13))
    def test_orbit_power_of_indicators(self, q):
        # every q <= 12, odd and even (q/2 is its own negative on every axis),
        # and every d with q^d <= 4096, against the orbit sums of |forward|^2
        eps = np.finfo(np.float64).eps
        for d in range(1, 13):
            if q**d > 4096:
                break
            f = (np.random.Generator(np.random.PCG64(q * 13 + d)).random(q**d) < 0.4)
            f = f.astype(float)
            got = orbit_power(np.flatnonzero(f), q, d)
            want = orbit_sums(np.abs(forward(GridFunction(q, d, f)).values) ** 2, q, d)
            w = orbit_sizes(q, d)
            D = d * (q + 11) * eps * f.sum() / q**d
            bound = 2 * (2 * np.sqrt(w * want) * D + w * D**2 + (2 * d + 2) * eps * want)
            assert (np.abs(got - want) <= bound).all(), (q, d)
            assert got.sum() == pytest.approx(f.sum() / q**d, rel=1e-12)  # Parseval

    @pytest.mark.parametrize("q", [2, 3, 4, 6, 9, 15, 45])
    def test_both_first_passes_within_the_pass_charge(self, q):
        # a singleton and q^(d-1) - 1, q^(d-1) points take the binned first
        # pass, q^(d-1) + 1 points the indicator in a pass buffer; each
        # against the orbit sums of |forward|^2 of the explicit indicator
        # grid, within the bound of test_orbit_power_of_indicators
        eps = np.finfo(np.float64).eps
        for d in (1, 2, 3, 4, 8):
            if q**d > 10**5:
                break
            rng = np.random.Generator(np.random.PCG64(q * 17 + d))
            lines = q ** (d - 1)
            for size in sorted({1, max(lines - 1, 1), lines, lines + 1}):
                support = np.sort(rng.choice(q**d, size, replace=False))
                f = np.zeros(q**d)
                f[support] = 1.0
                got = orbit_power(support, q, d)
                want = orbit_sums(np.abs(forward(GridFunction(q, d, f)).values) ** 2, q, d)
                w = orbit_sizes(q, d)
                D = d * (q + 11) * eps * size / q**d
                bound = 2 * (2 * np.sqrt(w * want) * D + w * D**2 + (2 * d + 2) * eps * want)
                assert (np.abs(got - want) <= bound).all(), (q, d, size)

    def test_flat_indices_must_be_integers(self):
        with pytest.raises(DomainError):
            orbit_power(np.array([0.0, 1.0]), 3, 2)

    def test_peak_is_one_grid_and_the_scratch(self):
        # Z_3^12: the set's ones scattered into the one q^d float64 grid,
        # twelve real passes in it and the scratch of at most _BLOCK entries,
        # and the square and the axis folds in the same grid; 64 KiB is left
        # for the (q//2 + 1)^d result and the interpreter's own allocations
        q, d = 3, 12
        support = np.flatnonzero(np.random.Generator(np.random.PCG64(7)).random(q**d) < 0.5)
        tracemalloc.start()
        try:
            orbit_power(support, q, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * q**d + 8 * fourier._BLOCK + 2**16, peak

    def test_sparse_peak_is_one_slab_and_the_scratch(self):
        # Z_3^12 with 4000 <= 3^11 points: no q^d grid, only the slab of one
        # first-axis row (3^11 entries), the scratch of at most _BLOCK
        # entries, one bincount row, the support's digits and the bincount
        # weights, and the (q//2 + 1)^d result; 64 KiB for the interpreter
        q, d, size = 3, 12, 4000
        support = np.sort(np.random.Generator(np.random.PCG64(7)).choice(q**d, size, replace=False))
        lines = q ** (d - 1)
        tracemalloc.start()
        try:
            orbit_power(support, q, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (2 * lines + fourier._BLOCK + 3 * size + (q // 2 + 1) ** d) + 2**16
        assert bound < 0.85 * 8 * q**d
        assert peak <= bound, peak

    @pytest.mark.parametrize("q", [2, 3, 4, 6, 9, 15, 45])
    def test_every_pass_is_a_basis_pass(self, monkeypatch, q):
        # both forms: the pass engine sees only the q x q basis, since the
        # square and the folds are slice sums in place.  Up to q^(d-1) points
        # it runs d - 1 passes on each of ceil(q / G) slabs of G first-axis
        # rows, all in one slab buffer; past it d passes on the q^d grid.
        # The result is a fresh C-contiguous (q//2 + 1)^d array
        seen = []
        passes = fourier._passes

        def spy(src, grid, kernel, d, first=0):
            seen.append((kernel, grid, d - first))
            return passes(src, grid, kernel, d, first)

        monkeypatch.setattr(fourier, "_passes", spy)
        for d in (1, 2, 3, 4):
            if q**d > 10**5:
                break
            lines = q ** (d - 1)
            for size in sorted({1, lines, lines + 1}):
                seen.clear()
                out = orbit_power(np.arange(size), q, d)
                assert out.shape == (q // 2 + 1,) * d and out.flags.c_contiguous
                assert all(kernel is fourier._orbit_basis(q) for kernel, _, _ in seen), (q, d)
                if size > lines:
                    assert [(grid.size, count) for _, grid, count in seen] == [(q**d, d)]
                else:
                    assert [(grid.size, count) for _, grid, count in seen] == [
                        (rows * lines, d - 1) for rows in slabs(q, d, fourier._BLOCK)], (q, d)
                    assert all(np.shares_memory(grid, seen[0][1]) for _, grid, _ in seen)

    def test_budget_is_checked_before_any_allocation(self):
        # two buffers of 3^30 float64 entries would be 2.93 PiB: refused up front
        with pytest.raises(BudgetError):
            orbit_power(np.arange(3), 3, 30)
        with pytest.raises(BudgetError):
            orbit_power(np.arange(3), 3, 4, max_grid=80)
        assert orbit_power(np.arange(3), 3, 4, max_grid=81).shape == (2,) * 4

    def test_weights_count_every_column_once(self):
        for q in range(2, 30):
            w = half_weights(q)
            assert w.size == q // 2 + 1 and w.sum() == q
            assert w[0] == 1 and w[-1] == (1 if q % 2 == 0 else 2)

    @pytest.mark.parametrize("support", [[4, 4], [5, 4], [-1], [9], [0, 9]])
    def test_support_must_strictly_increase_within_the_grid(self, support):
        # a repeated index once counted twice in the binned form, -1 was read
        # as 8, and 9 raised IndexError
        with pytest.raises(DomainError):
            orbit_power(np.array(support), 3, 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_flat_indices_of_any_integer_dtype(self, dtype):
        # an int8 or uint16 support once raised OverflowError on q^(d-1) = 3^11
        support = np.array([1, 100, 127])
        want = orbit_power(support, 3, 12)
        assert np.array_equal(orbit_power(support.astype(dtype), 3, 12), want)

    def test_flat_indices_must_be_one_dimensional(self):
        with pytest.raises(DomainError):
            orbit_power(np.array([[0, 1]]), 3, 2)

    def test_orbit_inverse_needs_one_entry_per_orbit(self):
        with pytest.raises(DomainError):
            orbit_inverse(np.ones(10), 3, 2)
        assert orbit_inverse(np.ones((2, 2)), 3, 2).shape == (2, 2)

    @pytest.mark.parametrize("q,d", [(3, 0), (3, -1), (0, 2), (-3, 2), (3, 2.0), (3.0, 2)])
    def test_orbit_transforms_need_q_and_d_at_least_one(self, q, d):
        with pytest.raises(DomainError):
            orbit_power(np.array([0]), q, d)
        with pytest.raises(DomainError):
            orbit_inverse(np.ones(1), q, d)

    @pytest.mark.parametrize("q", [0, -3, 2.0])
    def test_weights_need_q_at_least_one(self, q):
        with pytest.raises(DomainError):
            half_weights(q)

    def test_orbit_basis_gathers_the_table_roots(self):
        # the real basis, gathered from the parts of character_table, is bit
        # for bit the real and imaginary parts of the complex table roots;
        # the reference is built a block of rows at a time
        for q in [*range(1, 301), 1009, 3001]:
            h = q // 2 + 1
            ms = np.concatenate([np.arange(h), np.arange(1, q - h + 1)])
            basis = fourier._orbit_basis(q)
            for lo in range(0, q, 256):
                roots = character_table(q)[np.outer(ms[lo : lo + 256], np.arange(q)) % q]
                want = np.where((np.arange(lo, lo + len(roots)) < h)[:, None], roots.real, roots.imag)
                assert np.array_equal(basis[lo : lo + 256], want), q

    def test_kernel_budget(self):
        with pytest.raises(BudgetError):
            orbit_power(np.arange(3163), 3163, 1)
        with pytest.raises(BudgetError):
            orbit_inverse(np.zeros(1582), 3163, 1)

    def test_tables_past_2_16_entries_are_not_cached(self):
        # 256^2 = 2^16 entries are kept; 257^2 are shared while a caller holds
        # them and gone once it lets them go
        tables = ((fourier._kernel, (True,)), (fourier._orbit_basis, ()),
                  (fourier._orbit_cosines, ()))
        for table, key in tables:
            table.cache_clear()
            assert table(256, *key) is table(256, *key)
            held = table(257, *key)
            assert table(257, *key) is held
            gone = weakref.ref(held)
            del held
            gc.collect()
            assert gone() is None, table.__name__
            info = table.cache_info()
            assert (info.currsize, info.maxsize) == (1, 16)
            assert info.maxsize * fourier._CACHED_TABLE_ENTRIES <= 2**20


def schedule(n, d, block, first=0):
    """(j, k, groups) of fourier._passes on Z_n^d with _BLOCK = block: j
    leading axes in place, k trailing axes block by block, and the number of
    whole blocks in each group, the last one possibly fewer."""
    j = first
    while n ** (d - j) > block:
        j += 1
    per, count = block // n ** (d - j), n**j
    return j, d - j, [min(per, count - lo) for lo in range(0, count, per)]


# (q, d, _BLOCK) for the pass engine, odd and even q; the comments give the
# schedule of a pass engine that starts at the first axis
ENGINE_CASES = [
    (3, 5, 243),   # one block, j = 0
    (4, 4, 64),    # j = 1, k = 3, groups of one block
    (10, 3, 250),  # j = 1, k = 2, groups of two blocks
    (5, 4, 25),    # j = 2, k = 2
    (3, 6, 54),    # j = 3, k = 3, 27 blocks in groups of two, the last ragged
    (2, 9, 8),     # j = 6, k = 3
    (5, 2, 10),    # j = 1, k = 1: 5 lines in groups of two, the last ragged
    (6, 3, 30),    # j = 2, k = 1: 36 lines in groups of five, the last ragged
    (7, 3, 7),     # j = 2, k = 1: one line a group
]


def slabs(q, d, block):
    """The first-axis rows of each slab of orbit_power's binned form on
    Z_q^d with _BLOCK = block: G = max(1, min(q, block // q^(d-1))) a slab,
    the last one possibly fewer."""
    rows = max(1, min(q, block // q ** (d - 1)))
    return [min(rows, q - lo) for lo in range(0, q, rows)]


# (q, d, _BLOCK) for the slabs of orbit_power, odd and even q
SLAB_CASES = [
    (3, 4, 81),    # G = q: one slab of all q rows
    (4, 3, 64),    # G = q, even q
    (5, 3, 75),    # G = 3: slabs of 3 and 2 rows
    (4, 3, 48),    # G = 3: slabs of 3 and 1 rows
    (5, 3, 25),    # G = 1, q^(d-1) = _BLOCK
    (6, 3, 40),    # G = 1, q^(d-1) < _BLOCK
    (3, 5, 27),    # G = 1, q^(d-1) > _BLOCK: one pass in place per slab
    (3, 6, 9),     # G = 1, three passes in place on leading extents 1, 3, 9
    (4, 4, 16),    # G = 1, q^(d-1) > _BLOCK, even q
]


class TestPassEngine:
    # Every schedule of fourier._passes, forced by a small _BLOCK: in-place
    # leading passes, trailing blocks in groups, k = 1 lines, ragged groups,
    # complex kernels (forward, inverse) and real ones (orbit_power's basis,
    # orbit_inverse's cosines), each against a route that does not share it.

    def test_cases_cover_every_schedule(self):
        plans = [schedule(q, d, block) for q, d, block in ENGINE_CASES]
        assert {min(j, 2) for j, _, _ in plans} == {0, 1, 2}
        assert any(k == 1 and groups[-1] < groups[0] for _, k, groups in plans)
        assert any(k > 1 and groups[-1] < groups[0] for _, k, groups in plans)
        assert {q % 2 for q, _, _ in ENGINE_CASES} == {0, 1}

    @pytest.mark.parametrize("q,d,block", ENGINE_CASES)
    def test_forward_and_inverse_match_the_reference(self, monkeypatch, q, d, block):
        monkeypatch.setattr(fourier, "_BLOCK", block)
        f = random_grid(q, d, seed=7 * q + d)
        ref = dft_reference(f).values
        assert np.abs(forward(f).values - ref).max() < 1e-10
        back = inverse(Spectrum(q, d, ref)).values
        want = q**d * np.conj(dft_reference(GridFunction(q, d, np.conj(ref))).values)
        assert np.abs(back - want).max() < 1e-10

    @pytest.mark.parametrize("q,d,block", ENGINE_CASES + SLAB_CASES)
    def test_orbit_power_binned_and_scattered(self, monkeypatch, q, d, block):
        # a singleton, a third of q^(d-1) and q^(d-1) points run in slabs,
        # 30% of the grid is scattered into it; against the orbit sums of
        # |forward|^2 taken at the default _BLOCK, within the bound of
        # test_orbit_power_of_indicators
        eps = np.finfo(np.float64).eps
        rng = np.random.Generator(np.random.PCG64(q * 31 + d))
        w = orbit_sizes(q, d)
        lines = q ** (d - 1)
        for support in (np.array([q**d // 3]),
                        np.sort(rng.choice(q**d, max(lines // 3, 1), replace=False)),
                        np.sort(rng.choice(q**d, lines, replace=False)),
                        np.flatnonzero(rng.random(q**d) < 0.3)):
            f = np.zeros(q**d)
            f[support] = 1.0
            want = orbit_sums(np.abs(forward(GridFunction(q, d, f)).values) ** 2, q, d)
            with monkeypatch.context() as patch:
                patch.setattr(fourier, "_BLOCK", block)
                got = orbit_power(support, q, d)
            D = d * (q + 11) * eps * support.size / q**d
            bound = 2 * (2 * np.sqrt(w * want) * D + w * D**2 + (2 * d + 2) * eps * want)
            assert (np.abs(got - want) <= bound).all(), (q, d, support.size)

    def test_slab_cases_cover_every_slab_schedule(self):
        plans = [(q, d, block, slabs(q, d, block)) for q, d, block in SLAB_CASES]
        assert any(len(rows) == 1 for _, _, _, rows in plans)
        assert any(rows[0] > 1 and rows[-1] < rows[0] for _, _, _, rows in plans)
        assert any(rows[0] == 1 and q ** (d - 1) <= b for q, d, b, rows in plans)
        assert any(rows[0] == 1 and q ** (d - 1) > b for q, d, b, rows in plans)
        assert {q % 2 for q, _, _ in SLAB_CASES} == {0, 1}

    @pytest.mark.parametrize("n,d,rows,block", [(3, 4, 2, 9), (3, 5, 2, 9), (4, 3, 3, 16),
                                                (5, 3, 2, 100), (3, 4, 5, 27)])
    def test_passes_on_a_slab(self, monkeypatch, n, d, rows, block):
        # passes 1, ..., d - 1 on a slab whose axis 0 has `rows` entries, not
        # n^first, in place or read from a separate read-only source: against
        # the kernel applied to each axis in turn by tensordot
        rng = np.random.Generator(np.random.PCG64(n * d + rows))
        kernel = rng.standard_normal((n, n))
        slab = rng.standard_normal((rows,) + (n,) * (d - 1))
        want = slab
        for axis in range(1, d):
            want = np.moveaxis(np.tensordot(kernel, want, axes=(1, axis)), 0, axis)
        monkeypatch.setattr(fourier, "_BLOCK", block)
        src = slab.reshape(-1).copy()
        src.setflags(write=False)
        for in_place in (True, False):
            grid = src.copy() if in_place else np.empty(src.size)
            out = fourier._passes(grid if in_place else src, grid, kernel, d, 1)
            assert out is grid
            assert np.abs(out.reshape(slab.shape) - want).max() < 1e-12
        assert np.array_equal(src, slab.reshape(-1))

    @pytest.mark.parametrize("q,d,block", [(9, 4, 25), (6, 5, 16), (5, 4, 9), (10, 3, 6)])
    def test_orbit_inverse_on_forced_schedules(self, monkeypatch, q, d, block):
        # the (q//2 + 1)^d grid of the cosine passes: j = 2, 3, 2, 2; the
        # reference inverse runs at the default _BLOCK
        assert schedule(q // 2 + 1, d, block)[0] >= 2
        eps = np.finfo(np.float64).eps
        power = np.abs(random_grid(q, d, seed=q + d).values) ** 2
        want = orbit_sums(inverse(Spectrum(q, d, power)).values.real, q, d)
        monkeypatch.setattr(fourier, "_BLOCK", block)
        got = orbit_inverse(orbit_sums(power, q, d), q, d)
        bound = orbit_sizes(q, d) * 2 * d * (q + 11) * eps * power.sum()
        assert (np.abs(got - want) <= bound).all()

    def test_read_only_source_is_left_alone(self):
        # forward reads f's read-only values in place and writes one fresh grid
        f = random_grid(9, 6, seed=3)
        before = f.values.copy()
        F = forward(f)
        assert np.array_equal(f.values, before)
        assert not F.values.flags.writeable and F.values.flags.c_contiguous

    def test_each_transform_holds_one_grid_and_the_scratch(self):
        # Z_9^6 complex (forward, inverse) and Z_5^8 real (orbit_inverse):
        # the result grid, the scratch, and 64 KiB for the interpreter
        f = random_grid(9, 6, seed=5)
        F = Spectrum(9, 6, f.values)
        orbit = np.random.Generator(np.random.PCG64(2)).random((3,) * 8)
        cases = ((forward, f, 16), (inverse, F, 16), (lambda o: orbit_inverse(o, 5, 8), orbit, 8))
        for transform, arg, itemsize in cases:
            tracemalloc.start()
            try:
                transform(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = np.size(arg.values if hasattr(arg, "values") else arg)
            assert peak <= itemsize * (size + min(size, fourier._BLOCK)) + 2**16, peak


class TestPlancherel:
    def test_delta(self):
        f = delta(5, 2)
        assert plancherel_defect(f, f) < 1e-12

    def test_constant(self):
        f = GridFunction(7, 2, np.ones(49))
        g = GridFunction(7, 2, np.ones(49))
        assert plancherel_defect(f, g) < 1e-12
        # both sides equal 1 for the constant function
        assert abs(np.vdot(f.values, f.values) / 49 - 1) < 1e-12

    def test_random(self):
        for seed in range(20):
            f = random_grid(15, 2, seed)
            g = random_grid(15, 2, seed + 1000)
            scale = float(np.mean(np.abs(f.values) * np.abs(g.values)))
            assert plancherel_defect(f, g) < 1e-9 * scale

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            plancherel_defect(random_grid(3, 2, 0), random_grid(3, 3, 0))
        with pytest.raises(DomainError):
            plancherel_defect(random_grid(3, 2, 0), random_grid(5, 2, 0))


def pair_binning_defect(q, d):
    # the pair-binning count that orthogonality_max_defect replaced: every
    # (x, m) pair's phase binned per row of m, in blocks of 2^20 // q^d rows
    n = q**d
    tbl = character_table(q)
    ks = np.arange(q, dtype=np.int64)
    width = -(-(d * (q - 1) + 1) // q) * q
    worst = 0.0
    chunk = max(1, 2**20 // max(n, width))
    for lo in range(0, n, chunk):
        block = np.unravel_index(np.arange(lo, min(lo + chunk, n)), (q,) * d)
        rows = len(block[0])
        phases = np.multiply.outer(block[0], ks) % q
        for mi in block[1:]:
            column = np.multiply.outer(mi, ks) % q
            phases = (phases[:, :, None] + column[:, None, :]).reshape(rows, -1)
        phases += width * np.arange(rows, dtype=np.int64)[:, None]
        bins = np.bincount(phases.ravel(), minlength=width * rows)
        counts = bins.reshape(rows, width // q, q).sum(axis=1)
        sums = counts @ tbl / n
        if lo == 0:
            sums[0] -= 1.0
        worst = max(worst, float(np.abs(sums).max()))
    return worst


class TestOrthogonality:
    def test_bitwise_equal_to_pair_binning(self):
        # the same exact counts and the same dots, so the same float: every
        # (q, d) of verify-all, of this class and of the acceptance suite
        cases = {(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 12, 15) for d in (1, 2, 3)}
        cases |= {(q, d) for q in range(2, 126) for d in range(1, 8) if q**d <= 125}
        cases |= {(12, 3), (7, 4), (2, 10), (4, 6), (2000, 1)}
        for q, d in sorted(cases):
            assert orthogonality_max_defect(q, d) == pair_binning_defect(q, d), (q, d)

    def test_past_pair_binning_reach(self):
        # Z_3^12 has 2.8 * 10^11 pairs (x, m); the convolved counts need 3^14 steps
        tracemalloc.start()
        try:
            defect = orthogonality_max_defect(3, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect <= 5 * np.finfo(np.float64).eps
        assert peak < 48 * 2**20, peak

    def test_exhaustive(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 12, 15):
            for d in (1, 2, 3):
                if q**d > 4000:
                    continue
                assert orthogonality_max_defect(q, d) < 1e-10

    def test_larger_grids(self):
        assert orthogonality_max_defect(15, 3) < 1e-10
        assert orthogonality_max_defect(12, 3) < 1e-10

    def test_against_double_loop(self):
        # the definition summed term by term; every sum is exact but for
        # rounding, and the counts-times-roots sum rounds within (q + 2) eps
        eps = np.finfo(np.float64).eps
        for q in range(2, 126):
            for d in range(1, 8):
                n = q**d
                if n > 125:
                    break
                pts = list(itertools.product(range(q), repeat=d))
                ref = 0.0
                for m in pts:
                    terms = [cmath.exp(2j * cmath.pi * (sum(a * b for a, b in zip(x, m)) % q) / q)
                             for x in pts]
                    z = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                    ref = max(ref, abs(z / n - (1 if not any(m) else 0)))
                got = orthogonality_max_defect(q, d)
                assert got <= (q + 2) * eps and abs(got - ref) <= (q + 4) * eps, (q, d, got, ref)

    def test_peak_memory(self):
        tracemalloc.start()
        try:
            orthogonality_max_defect(15, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, peak

    def test_peak_memory_wide_modulus(self):
        # d = 1 with q = 2000: each block row bins q phases into W = q bins, and
        # the phases come from the columns of x m mod q that the block needs
        tracemalloc.start()
        try:
            defect = orthogonality_max_defect(2000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect <= 2002 * np.finfo(np.float64).eps
        assert peak < 48 * 2**20, peak


class TestGridFunction:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            GridFunction(3, 2, np.zeros(8))
        with pytest.raises(DomainError):
            GridFunction(3, 0, np.zeros(1))

    def test_values_immutable(self):
        f = random_grid(3, 2, 0)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_getitem(self):
        f = delta(3, 2, point=(1, 2))
        assert f[(1, 2)] == 1.0
        assert f[(0, 0)] == 0.0
