import functools
import io
import itertools
import math
import operator
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqdist import cli, distset, fourier, sphere
from zqdist.arith import as_modulus
from zqdist.distset import (
    PointSet,
    certificate_check,
    construct_even_weight,
    construct_zero_distance_lattice,
    distance,
    distance_set,
    nu_histogram,
    nu_pairs,
    nu_spectral_sweep,
    read_pointset,
    sample_random_set,
    theorem_threshold,
    write_pointset,
)
from zqdist.errors import BudgetError, DomainError, InconsistencyError
from zqdist.fourier import GridFunction, forward, half_weights, orbit_inverse, orbit_power
from zqdist.sphere import (
    _class_count,
    _class_ids,
    _class_kernel,
    _norms,
    sphere_counts_all,
    sphere_enumerate,
    sphere_fourier_direct,
    sphere_spec,
)


def full_grid(q, d):
    return PointSet(q, d, itertools.product(range(q), repeat=d))


def indicator(E):
    # 1_E as a complex grid function, for the full forward transform
    vals = np.zeros(E.q**E.d)
    vals[E.flat_indices()] = 1.0
    return GridFunction(E.modulus, E.d, vals)


def nu_loop(E, t):
    # independent oracle: literal double loop
    return sum(
        1
        for x in E.points
        for y in E.points
        if sum((a - b) ** 2 for a, b in zip(x, y)) % E.q == t
    )


class TestDistance:
    def test_examples(self):
        assert distance((1, 2, 3), (1, 2, 3), 9).value == 0
        assert distance((0, 0, 0), (1, 0, 0), 3).value == 1
        assert distance((0, 1), (2, 0), 5).value == 0  # 4 + 1 = 5 = 0 mod 5

    def test_symmetric(self):
        for x in itertools.product(range(4), repeat=2):
            for y in itertools.product(range(4), repeat=2):
                assert distance(x, y, 4) == distance(y, x, 4)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            distance((1, 2), (1, 2, 3), 5)


class TestPointSet:
    def test_normalizes_dedupes_sorts(self):
        E = PointSet(3, 2, [(4, -1), (1, 2), (0, 0)])
        assert E.points == ((0, 0), (1, 2))
        assert E.size == 2

    def test_rejects_empty_and_bad_shape(self):
        with pytest.raises(DomainError):
            PointSet(3, 2, [])
        with pytest.raises(DomainError):
            PointSet(3, 2, [(1, 2, 3)])
        with pytest.raises(DomainError):
            PointSet(3, 2, [(1, 2), (1, 2, 3)])

    def test_reduces_python_ints_of_any_size(self):
        assert PointSet(5, 2, [(10**30, 1)]).points == ((0, 1),)
        assert PointSet(5, 2, [(-(10**30) - 1, 2**70), (4, 4)]).points == ((4, 4),)

    def test_rejects_non_integral_coordinates(self):
        # numpy's int64 cast would truncate these to the point (0, 1)
        for rows in ([[0.5, 1.7]], np.array([[0.5, 1.7]]), [[1, 2.0]], np.array([[1.0, 2.0]]),
                     [(2**70, 0.5)], [[1, "2"]]):
            with pytest.raises(DomainError):
                PointSet(9, 2, rows)

    def test_integer_inputs_of_every_kind(self):
        # numpy integers, int32 and uint64 arrays (past 2^63 too), Python ints
        # past int64 and bools, each reduced as the Python ints they equal
        for rows in ([[10, -5], [3, 2]], [(np.int64(10), np.uint8(4)), (np.int8(-6), 2)],
                     np.array([[1, 4], [3, 2]], dtype=np.int32),
                     np.array([[2**64 - 8, 4], [3, 2**63 + 2]], dtype=np.uint64),
                     [[2**63 + 1, 4], [-(2**63) - 6, 2**64 + 2]], [[True, 4], [3, 2]]):
            want = tuple(sorted({tuple(int(c) % 9 for c in p) for p in rows}))
            assert PointSet(9, 2, rows).points == want, rows

    def test_dimension_is_an_integer(self):
        # a float d was kept as 2.0, and the pair scan then failed with TypeError
        with pytest.raises(DomainError, match="dimension"):
            PointSet(3, 2.0, [[1, 2], [0, 1], [2, 2]])
        E = PointSet(3, np.int64(2), [[1, 2], [0, 1], [2, 2]])
        assert type(E.d) is int and list(nu_histogram(E)) == list(nu_pairs(E))

    def test_membership_with_unreduced_coordinates(self):
        E = PointSet(5, 2, [(1, 2), (3, 4)])
        assert (6, -3) in E
        assert (10**30 + 3, 4) in E
        assert (0, 0) not in E
        assert (1, 2, 0) not in E

    def test_order_does_not_matter(self):
        pts = [(1, 2), (3, 4), (0, 4), (3, 4)]
        a = PointSet(5, 2, pts)
        b = PointSet(5, 2, reversed(pts))
        assert a == b
        assert hash(a) == hash(b)
        assert a.points == ((0, 4), (1, 2), (3, 4))

    def test_array_is_the_sorted_read_only_points(self):
        E = PointSet(7, 3, [(6, 0, 1), (0, 9, 2), (6, 0, 8)])
        arr = E.array()
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert arr.tolist() == [list(p) for p in E.points] == [[0, 2, 2], [6, 0, 1]]
        assert len(E) == E.size == 2

    @pytest.mark.parametrize("q,d,keys", [
        (2, 10, 1), (2, 62, 1), (2, 70, 2),
        (3, 5, 1), (3, 39, 1), (3, 40, 2),  # 3^39 < 2^62 < 3^40
        (45, 4, 1), (45, 11, 1), (45, 12, 2),  # 45^11 < 2^62 < 45^12
        (2**31 - 1, 2, 1), (2**31 - 1, 3, 2),  # (2^31 - 1)^2 < 2^62
        (10**12, 1, 1), (10**12, 3, 3),  # 10^24 > 2^62: one coordinate to a key
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_canonical_order_matches_lexsort(self, tmp_path, q, d, keys, seed):
        rng = random.Random(1000 * d + seed)
        small = [-3 * q, -1, 0, 1, q - 1, q, 2 * q + 1]
        huge = [2**63, -(2**64) - 5, 10**15, -(10**15), 3**50]

        def coord():
            pick = rng.random()
            if pick < 0.6:
                return rng.choice(small)
            if pick < 0.8 and seed % 2:
                return rng.choice(huge)
            return rng.randrange(-(10**15), 10**15)

        pool = [[coord() for _ in range(d)] for _ in range(rng.randint(1, 60))]
        rows = [rng.choice(pool) for _ in range(rng.randint(1, 120))]
        E = PointSet(q, d, rows)
        expected = _lexsort_canonical(q, rows)
        assert E.array().tolist() == expected.tolist()
        assert len(distset._packed_keys(expected, q)) == keys
        path = tmp_path / "set.txt"
        write_pointset(E, path)
        assert path.read_bytes() == (f"q={q} d={d}\n" + "".join(
            ",".join(map(str, p)) + "\n" for p in expected.tolist())).encode()

    @pytest.mark.parametrize("q,d,size", [(9, 6, 177147), (2, 16, 1 << 15)])
    def test_sorted_input_is_kept_without_a_gather(self, q, d, size):
        # rows sorted and distinct, as the sampler and the even-weight set
        # give them, cost the int64 copy, one key and one comparison: no
        # argsort, duplicate mask or gather of the rows
        rows = (sample_random_set(q, d, size, seed=2024) if q == 9
                else construct_even_weight(d)).array().copy()
        tracemalloc.start()
        try:
            E = PointSet(q, d, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 * d + 16) * len(rows), (peak, rows.nbytes)
        assert E.array().tobytes() == rows.tobytes() and not E.array().flags.writeable
        assert rows.flags.writeable and not np.shares_memory(E.array(), rows)
        shuffled = rows[::-1].copy()
        shuffled[-1] = shuffled[0]  # out of order, with a repeat
        assert PointSet(q, d, shuffled).array().tobytes() == rows[1:].tobytes()

    @pytest.mark.parametrize("q,d", [(9, 6), (2, 62), (45, 11)])
    def test_flat_indices_are_the_kept_sort_key(self, q, d):
        # one read-only array, the constructor's key, equal to the rows
        # times their base-q strides for sorted input and for unsorted input
        # with repeats
        rng = np.random.Generator(np.random.PCG64(q + d))
        strides = np.array([q ** (d - 1 - i) for i in range(d)], dtype=np.int64)
        sorted_rows = sample_random_set(q, d, 500, seed=3).array().copy()
        shuffled = rng.integers(0, q, size=(400, d))
        shuffled = np.concatenate([shuffled, shuffled[:50], -shuffled[50:60]])
        for rows in (sorted_rows, shuffled):
            E = PointSet(q, d, rows)
            flat = E.flat_indices()
            assert flat is E.flat_indices() and not flat.flags.writeable
            assert np.array_equal(flat, E.array() @ strides)
            assert (flat[1:] > flat[:-1]).all()

    def test_flat_indices_past_2_62_are_computed(self):
        # q^d = 2^63 is past the one key's 2^62: the indices are computed, read-only
        E = PointSet(2, 63, [[1] * 63, [0] * 62 + [1]])
        assert E.flat_indices().tolist() == [1, 2**63 - 1]
        assert not E.flat_indices().flags.writeable

    def test_translate_wraps(self):
        E = PointSet(5, 2, [(0, 0), (4, 3)])
        assert E.translate((1, 2**70)).points == tuple(
            sorted(((x + 1) % 5, (y + 2**70) % 5) for x, y in E.points)
        )

    def test_translate_past_2_62(self):
        # c + s exceeds int64 once q > 2^62: the sum must not wrap
        q = 5 * 3**38
        assert PointSet(q, 1, [[q - 1]]).translate([q - 1]).points == ((q - 2,),)
        rng = random.Random(5)
        rows = [[rng.randrange(q) for _ in range(3)] for _ in range(40)]
        v = [q - 1, rng.randrange(q), q // 2 + 1]
        expected = sorted(tuple((c + w) % q for c, w in zip(p, v)) for p in rows)
        assert PointSet(q, 3, rows).translate(v).points == tuple(expected)

    def test_indicator_round_trip(self):
        E = sample_random_set(5, 3, 17, seed=9)
        ind = indicator(E)
        assert int(ind.values.real.sum()) == 17
        members = set(E.points)
        for i in E.flat_indices():
            assert ind.point_of(int(i)) in members


class TestDistanceSet:
    def test_singleton(self):
        assert distance_set(PointSet(9, 3, [(1, 2, 3)])) == {0}

    def test_two_points(self):
        E = PointSet(3, 3, [(0, 0, 0), (1, 0, 0)])
        assert distance_set(E) == {0, 1}

    def test_full_grid_realizes_everything(self):
        for q in (3, 5, 9):
            assert distance_set(full_grid(q, 3)) == set(range(q))


class TestNuBrute:
    def test_two_point_example(self):
        E = PointSet(3, 3, [(0, 0, 0), (1, 0, 0)])
        assert list(nu_pairs(E)) == [2, 2, 0]

    def test_singleton(self):
        E = PointSet(7, 2, [(3, 4)])
        assert list(nu_pairs(E)) == [1, 0, 0, 0, 0, 0, 0]

    def test_full_grid_vs_sphere_counts(self):
        # translation invariance: nu(t) = q^d |S_t| on the full grid
        for q in (3, 5):
            counts = sphere_counts_all(q, 3)
            E = full_grid(q, 3)
            hist = nu_pairs(E)
            for t in range(q):
                assert hist[t] == q**3 * int(counts[t])

    def test_matches_literal_loop(self):
        E = sample_random_set(5, 3, 20, seed=1)
        hist = nu_histogram(E)
        for t in range(5):
            assert int(hist[t]) == nu_loop(E, t)

    @pytest.mark.parametrize("d,size", [(1, 2), (9, 40), (24, 40)])
    def test_mod2_path_matches_literal_loop(self, d, size):
        E = sample_random_set(2, d, size, seed=3)
        assert {sum(p) % 2 for p in E.points} == {0, 1}
        hist = nu_histogram(E)
        for t in range(2):
            assert int(hist[t]) == nu_loop(E, t)

    @settings(max_examples=30, deadline=None)
    @given(q=st.sampled_from([2, 4, 6]), d=st.integers(1, 4), size=st.integers(1, 30),
           seed=st.integers(0, 10_000))
    def test_even_q_matches_literal_loop(self, q, d, size, seed):
        E = sample_random_set(q, d, min(size, q**d), seed=seed)
        hist = nu_histogram(E)
        assert [int(h) for h in hist] == [nu_loop(E, t) for t in range(q)]

    def test_histogram_totals(self):
        for seed in range(5):
            E = sample_random_set(9, 3, 30 + seed, seed=seed)
            assert int(nu_histogram(E).sum()) == E.size**2

    def test_budget(self):
        # the pair budget gates only the pair scan: 400 pairs past max_pairs
        # are counted by the autocorrelation the grid admits, and only a set
        # that neither budget admits is refused, its kept counts included
        E = sample_random_set(3, 3, 20, seed=0)
        assert np.array_equal(nu_histogram(E, max_pairs=100), nu_pairs(E))
        with pytest.raises(BudgetError):
            nu_histogram(E, max_pairs=100, max_grid=26)

    def test_square_sums_past_2_63_stay_exact(self):
        # d (q - 1)^2 > 2^63: each square is 1 mod q, so the distance is d mod q
        q, d = 9999991, 100000
        E = PointSet(q, d, [[0] * d, [q - 1] * d])
        assert distance_set(E) == {0, d}
        assert int(nu_pairs(E)[d]) == 2

    @pytest.mark.parametrize("q,d,size,seed", [
        (9, 6, 1500, 1),  # four row blocks: the triangle inside each block is kept
        (2, 24, 800, 7),
        (15, 5, 300, 2),
        (4, 8, 600, 3),
        (101, 2, 900, 4),
        (5, 3, 1, 0),
    ])
    def test_unordered_scan_matches_ordered_scan(self, q, d, size, seed):
        E = sample_random_set(q, d, size, seed=seed)
        assert np.array_equal(nu_pairs(E), ordered_scan(E))

    def test_unordered_scan_reducing_squares(self):
        # d (q - 1)^2 > 2^63, so the squares are reduced mod q; one row per block
        q, d = 9999991, 100000
        pts = np.random.default_rng(5).integers(0, q, size=(12, d))
        E = PointSet(q, d, pts)
        assert np.array_equal(nu_pairs(E), ordered_scan(E))
        assert int(nu_pairs(E).sum()) == 144

    def test_histogram_longer_than_the_budget_is_refused(self):
        # two points make 4 pairs, but the histogram alone would have q entries,
        # as many as the grid Z_q^1
        E = PointSet(2**40 + 15, 1, [[0], [1]])
        with pytest.raises(BudgetError, match=rf"Z_{2**40 + 15}\^1 has {2**40 + 15} points"):
            nu_pairs(E)
        with pytest.raises(BudgetError, match=rf"Z_{2**40 + 15}\^1 has {2**40 + 15} points"):
            nu_histogram(E)
        E = PointSet(101, 1, [[0], [1]])
        with pytest.raises(BudgetError, match=r"Z_101\^1 has 101 points"):
            nu_histogram(E, max_grid=100)
        assert list(nu_histogram(E, max_grid=101)[:2]) == [2, 2]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), q=st.sampled_from([3, 4, 5, 6, 9, 15]), d=st.integers(1, 4))
    def test_both_routes_match_literal_loop(self, data, q, d):
        # sizes on both sides of q^{d+1} <= |E|^2, where nu_histogram switches
        # from the pair scan to the autocorrelation (capped for the literal loop)
        threshold = math.isqrt(q ** (d + 1) - 1) + 1
        hi = min(q**d, 2 * threshold, 300)
        size = data.draw(st.integers(min(max(1, threshold // 2), hi), hi))
        E = sample_random_set(q, d, size, seed=data.draw(st.integers(0, 10_000)))
        loop = [nu_loop(E, t) for t in range(q)]
        assert [int(h) for h in nu_pairs(E)] == loop
        assert [int(h) for h in nu_histogram(E)] == loop


def ordered_scan(E):
    # every ordered pair (x, y), one row x at a time, squares reduced mod q
    # before they are summed
    q, pts = E.q, E.array()
    counts = np.zeros(q, dtype=np.int64)
    for x in pts:
        diff = pts - x
        counts += np.bincount(((diff * diff) % q).sum(axis=1) % q, minlength=q)
    return counts


def _counting(monkeypatch, name):
    calls = []
    real = getattr(distset, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(distset, name, spy)
    return calls


class TestNuAutocorrelation:
    def test_one_transform_each_way(self, monkeypatch):
        # |E| = 15^2 sits exactly on q^{d+1} = |E|^2, the edge of the grid route
        E = sample_random_set(15, 3, 225, seed=11)
        forwards = _counting(monkeypatch, "orbit_power")
        inverses = _counting(monkeypatch, "orbit_inverse")
        scans = _counting(monkeypatch, "nu_pairs")
        hist = nu_histogram(E)
        assert (len(forwards), len(inverses), len(scans)) == (1, 1, 0)
        assert np.array_equal(hist, nu_pairs(E))

    def test_sweep_route_has_no_inverse(self, monkeypatch):
        # |E| = 15^3 on the edge of Z_15^5: the sweep reads nu(t) off the
        # direct class kernel with no inverse transform, while nu_histogram
        # takes the autocorrelation's one inverse and no sweep
        E = sample_random_set(15, 5, 3375, seed=11)
        forwards = _counting(monkeypatch, "orbit_power")
        inverses = _counting(monkeypatch, "orbit_inverse")
        scans = _counting(monkeypatch, "nu_pairs")
        sweeps = _counting(monkeypatch, "_sweep")
        swept = [rep.nu for rep in nu_spectral_sweep(E)]
        assert (len(forwards), len(inverses), len(scans), len(sweeps)) == (1, 0, 0, 1)
        hist = nu_histogram(E)
        assert (len(forwards), len(inverses), len(scans), len(sweeps)) == (2, 1, 0, 1)
        assert np.array_equal(hist, nu_pairs(E)) and swept == list(hist)

    @pytest.mark.parametrize("size,transforms,scans", [(80, 0, 1), (81, 1, 0)])
    def test_route_switches_at_crossover(self, monkeypatch, size, transforms, scans):
        # Z_9^3: q^{d+1} = 6561 = 81^2
        E = sample_random_set(9, 3, size, seed=4)
        forwards = _counting(monkeypatch, "orbit_power")
        pair_scans = _counting(monkeypatch, "nu_pairs")
        nu_histogram(E)
        assert (len(forwards), len(pair_scans)) == (transforms, scans)

    @pytest.mark.parametrize("q,d,max_grid", [(5, 3, 124), (11, 1, 120)])
    def test_grid_budget_keeps_pair_scan(self, monkeypatch, q, d, max_grid):
        # the grid Z_5^3, or for d = 1 the 11 x 11 transform kernel, exceeds max_grid
        E = full_grid(q, d)
        forwards = _counting(monkeypatch, "orbit_power")
        assert np.array_equal(nu_histogram(E, max_grid=max_grid), nu_pairs(E))
        assert forwards == []

    def test_nu_pairs_never_transforms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("nu_pairs called orbit_power")

        monkeypatch.setattr(distset, "orbit_power", refuse)
        E = full_grid(3, 3)
        counts = sphere_counts_all(3, 3)
        assert list(nu_pairs(E)) == [27 * int(c) for c in counts]

    @pytest.mark.parametrize("shift", [0.3, 1.0], ids=["off-integer", "wrong-total"])
    def test_perturbed_inverse_is_inconsistent(self, monkeypatch, shift):
        # The orbit sums of A are 9 orbit_inverse(...) on Z_3^2.  A shift of
        # 0.3 leaves every sum 0.3 from its integer, which rounds back to the
        # right counts; a shift of 1 rounds cleanly but breaks
        # sum nu = |E|^2.  Each check must catch its own.
        real = distset.orbit_inverse

        def perturbed(orbit, q, d):
            return real(orbit, q, d) + shift / 9

        monkeypatch.setattr(distset, "orbit_inverse", perturbed)
        with pytest.raises(InconsistencyError):
            nu_histogram(full_grid(3, 2))


class TestFirstPassForms:
    @pytest.mark.parametrize("q", [2, 3, 4, 6, 9, 15, 45])
    def test_counts_on_both_sides_of_q_to_the_d_minus_1(self, monkeypatch, q):
        # orbit_power bins E's rows up to q^(d-1) points and scatters them
        # into a pass buffer past it; a singleton and d = 1 are covered too.
        # Over Z_2 nu_histogram counts by parity, so the autocorrelation is
        # called directly; otherwise a pair budget of |E|^2 - 1 leaves the
        # transform to count
        forwards = _counting(monkeypatch, "orbit_power")
        for d in (1, 2, 3, 4, 8):
            lines = q ** (d - 1)
            if q**d > 10**5 or lines > 3000:  # nu_pairs scans at most 10^7 pairs
                continue
            for size in sorted({1, max(lines - 1, 1), lines, lines + 1}):
                E = sample_random_set(q, d, size, seed=q * 31 + d)
                want = nu_pairs(E)
                before = len(forwards)
                if q == 2:
                    got = distset._nu_autocorrelation(E, 10**7)
                else:
                    got = nu_histogram(E, max_pairs=size * size - 1)
                assert np.array_equal(got, want), (q, d, size)
                assert len(forwards) == before + 1


# Every even q of the list and every odd q <= 45 with d <= 4, while the pair
# scan at the crossover stays below 10^7 pairs (q^{d+1} <= 5 * 10^6).
CROSSOVER_CASES = [
    (q, d) for q in (4, 6, 8, 10, 12, *range(3, 46, 2)) for d in (1, 2, 3, 4)
    if q ** (d + 1) <= 5 * 10**6
]


class TestHalfSpectrumRoute:
    @pytest.mark.parametrize("q,d", CROSSOVER_CASES)
    def test_histogram_matches_pairs_at_crossover(self, monkeypatch, q, d):
        # the least |E| with q^{d+1} <= |E|^2 goes through the orbit power and
        # its inverse (for even q with the self-negative m_i = q/2 on every
        # axis, for odd q with d = 4 too, never the spectral sweep); one point
        # fewer is scanned
        edge = math.isqrt(q ** (d + 1) - 1) + 1
        forwards = _counting(monkeypatch, "orbit_power")
        inverses = _counting(monkeypatch, "orbit_inverse")
        sweeps = _counting(monkeypatch, "_sweep")
        for size, transforms in ((edge - 1, 0), (edge, 1)):
            E = sample_random_set(q, d, size, seed=10 * q + d)
            before = len(forwards), len(inverses), len(sweeps)
            assert np.array_equal(nu_histogram(E), nu_pairs(E))
            after = len(forwards), len(inverses), len(sweeps)
            assert tuple(b - a for a, b in zip(before, after)) == (transforms, transforms, 0)


def _whole_grid_tolerance(E, kern):
    """_sweep_tolerance recomputed from the whole grid: |E^|^2 over all of
    Z_q^d binned by the whole-grid _class_ids, |S_t| by enumeration, and the
    k_c roundings of each class sum (_orthant_sizes)."""
    q, d, n = E.q, E.d, E.size
    eps = np.finfo(np.float64).eps
    ids, classes = _class_ids(q, d, q), _class_count(q)
    sums = np.bincount(ids, weights=np.abs(forward(indicator(E)).values) ** 2,
                       minlength=classes)
    rho = d + 2 + _orthant_sizes(q, d) + classes + 3
    a = d * (q + 11) * eps * n
    spheres = sphere_counts_all(q, d).astype(float)
    return (a * (2 * math.sqrt(n) + a) * np.sqrt(spheres)
            + float(q) ** (2 * d) * ((eps * rho * sums) @ np.abs(kern.values) + sums @ kern.error))


TOLERANCE_SETS = [(9, 6, 177147), (15, 5, 6000), (27, 4, 3000), (45, 3, 4000)]


class TestHalfSpectrumTolerances:
    @pytest.mark.parametrize("q,d,size", TOLERANCE_SETS)
    def test_autocorrelation_residual_within_tolerance(self, q, d, size):
        E = sample_random_set(q, d, size, seed=2024)
        acorr = orbit_inverse(orbit_power(E.flat_indices(), q, d), q, d) * float(q**d)
        tol = distset._autocorrelation_tolerance(E)
        assert np.abs(acorr - np.rint(acorr)).max() <= tol
        # forward errors through Cauchy-Schwarz and Parseval, the roundings of
        # the orbit power, then the inverse passes, for an orbit of 2^d members
        eps = np.finfo(np.float64).eps
        a = d * (q + 11) * eps * size
        bound = 2**d * (a * (2 * size**0.5 + a) + (d + 2 + d * (q // 2 + 12)) * eps * size)
        assert tol == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("q,d,size", TOLERANCE_SETS)
    @pytest.mark.parametrize("route", ["direct", "formula"])
    def test_sweep_residual_within_tolerance(self, q, d, size, route):
        E = sample_random_set(q, d, size, seed=2024)
        kern = _class_kernel(E.modulus, d, route)
        sums = distset._class_power(orbit_power(E.flat_indices(), q, d), q, d)
        total = float(q) ** (2 * d) * (sums @ kern.values)
        tol = distset._sweep_tolerance(E, sums, kern)
        assert (np.abs(total.real - np.rint(total.real)) <= tol).all()
        assert (np.abs(total.imag) <= tol).all()
        assert tol == pytest.approx(_whole_grid_tolerance(E, kern), rel=1e-9)

    def test_class_sums_match_whole_grid(self):
        # the orbit-power class sums equal the whole-grid sums up to rounding
        E = sample_random_set(15, 4, 2000, seed=6)
        orbit = distset._class_power(orbit_power(E.flat_indices(), 15, 4), 15, 4)
        ids = _class_ids(15, 4, 15)
        whole = np.bincount(ids, weights=np.abs(forward(indicator(E)).values) ** 2)
        assert np.abs(orbit - whole).max() <= 1e-12 * whole.sum()


# every odd q with q^d <= 10^5 for d = 2, ..., 6; d = 1 stops where d = 2
# does, at q <= 315, since the reference transform holds a q x q kernel
FOLD_CASES = {d: [q for q in range(3, 317, 2) if q ** max(d, 2) <= 10**5] for d in range(1, 7)}


def _class_sums_exactly(E):
    """(orbit power of |forward(1_E)|^2 on the orthant, its class sums over
    all of Z_q^d, summed exactly by fsum after binning by the whole-grid
    _class_ids).

    The full grid takes every orbit member's value from the orbit's orthant
    point s, so the orbit power w(s) |E^(s)|^2 multiplies by a power of 2,
    exactly, and the two differ only by the fold's own roundings."""
    q, d = E.q, E.d
    h = q // 2 + 1
    full = (np.abs(forward(indicator(E)).values) ** 2).reshape((q,) * d)
    fold = np.minimum(np.arange(q), q - np.arange(q))  # m -> the orthant point of its orbit
    full = full[np.ix_(*[fold] * d)]
    orbit = full[(slice(0, h),) * d] * functools.reduce(np.multiply.outer, [half_weights(q)] * d)
    ids, classes = _class_ids(q, d, q), _class_count(q)
    order = np.argsort(ids, kind="stable")
    bounds = np.cumsum(np.bincount(ids, minlength=classes))[:-1]
    exact = np.array([math.fsum(part) for part in np.split(full.reshape(-1)[order], bounds)])
    return orbit, exact


def _orthant_sizes(q, d):
    """k_c, the number of points of the orthant [0, q // 2]^d in each class
    slot, read off the whole-grid _class_ids: the class sum adds
    k_c terms one after another, so it rounds at most k_c times."""
    ids, classes = _class_ids(q, d, q), _class_count(q)
    orthant = ids.reshape((q,) * d)[(slice(0, q // 2 + 1),) * d]
    return np.bincount(orthant.reshape(-1), minlength=classes)


class TestClassFold:
    @pytest.mark.parametrize("d", sorted(FOLD_CASES))
    def test_fold_matches_full_grid_classes(self, d):
        eps = np.finfo(np.float64).eps
        for q in FOLD_CASES[d]:
            E = sample_random_set(q, d, max(1, q**d // 3), seed=q + d)
            orbit, exact = _class_sums_exactly(E)
            bound = (_orthant_sizes(q, d) + 1) * eps * exact  # + 1: fsum rounds once
            folded = distset._class_power(orbit, q, d)
            assert (np.abs(folded - exact) <= bound).all(), (q, d)
            if q > 64:
                fourier._kernel.cache_clear()  # q x q transform kernels add up

    def test_power_is_not_modified(self):
        E = sample_random_set(45, 3, 3000, seed=3)
        orbit = orbit_power(E.flat_indices(), 45, 3)
        before = orbit.copy()
        distset._class_power(orbit, 45, 3)
        assert np.array_equal(orbit, before)

    def test_sweep_builds_no_grid_table(self, monkeypatch):
        # neither the q^d norm table nor the q^d class table (h = q), cold
        # caches included; nor does the autocorrelation of nu_histogram, for
        # even q and for odd q with d <= 3
        for name in ("_norms", "_class_ids"):
            real = getattr(sphere, name)

            def no_grid(q, d, h, _real=real):
                assert h < q, f"the sweep built the Z_{q}^{d} table"
                return _real(q, d, h)

            for mod in (sphere, distset):
                monkeypatch.setattr(mod, name, no_grid, raising=False)
            real.cache_clear()
        sphere._build_class_kernel.cache_clear()
        sphere._sphere_count_rows.cache_clear()
        E = sample_random_set(15, 4, 1000, seed=4)
        hist = nu_pairs(E)
        for route in ("direct", "formula"):
            assert [rep.nu for rep in nu_spectral_sweep(E, route=route)] == list(hist)
        assert np.array_equal(nu_histogram(E), hist)  # 15^5 <= 1000^2: the autocorrelation
        E = sample_random_set(105, 3, 2000, seed=5)  # 192 class slots on the 53^3 orthant
        assert [rep.nu for rep in nu_spectral_sweep(E)] == list(nu_pairs(E))
        inverses = _counting(monkeypatch, "orbit_inverse")
        for q, d, size in ((6, 5, 3000), (4, 8, 600), (66, 2, 600), (9, 3, 300), (45, 3, 2100),
                           (101, 1, 101)):
            E = sample_random_set(q, d, size, seed=q + d)
            assert np.array_equal(nu_histogram(E), nu_pairs(E)), (q, d)
        assert len(inverses) == 6


# odd q, even q and q > 64; d up to 5 while the pair scan at twice the
# crossover stays small
ORBIT_MODULI = [3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 66, 67, 70, 105]


class TestOrbitRoutes:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), q=st.sampled_from(ORBIT_MODULI))
    def test_histogram_matches_pairs(self, data, q):
        d = data.draw(st.integers(1, max(k for k in range(1, 6) if q ** (k + 1) <= 10**6)))
        edge = math.isqrt(q ** (d + 1) - 1) + 1  # the least |E| that takes a transform
        size = data.draw(st.integers(edge, min(q**d, 2 * edge)))
        E = sample_random_set(q, d, size, seed=data.draw(st.integers(0, 10_000)))
        assert np.array_equal(nu_histogram(E), nu_pairs(E)), (q, d, size)

    def test_z3001_sweep_caches_no_large_array(self):
        # no table of more than 2^16 entries outlives the sweep: what it
        # leaves (the class power, the sphere counts, the table roots) stays
        # below one 2^16-entry float64 array
        for cache in (sphere._build_class_kernel, sphere._sphere_count_rows, fourier._kernel,
                      fourier._orbit_basis, fourier._orbit_cosines,
                      fourier.character_table):
            cache.cache_clear()
        E = sample_random_set(3001, 1, 500, seed=1)
        tracemalloc.start()
        try:
            hist = [rep.nu for rep in nu_spectral_sweep(E)]
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left < 8 * 2**16, left
        assert hist == list(nu_histogram(E))

    def test_sweep_tolerance_builds_one_kernel_sized_temporary(self):
        E = sample_random_set(1009, 1, 500, seed=1)
        kern = _class_kernel(E.modulus, 1)
        by_class = distset._power_by_class(E, 10**7)
        tracemalloc.start()
        try:
            distset._sweep_tolerance(E, by_class, kern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= kern.error.nbytes + 2**16, peak


class TestEvenAutocorrelation:
    @pytest.mark.parametrize("q", [66, 70])
    def test_histogram_matches_pairs_at_crossover(self, monkeypatch, q):
        # the least |E| with q^3 <= |E|^2 takes the transform, one point fewer the scan
        edge = math.isqrt(q**3 - 1) + 1
        inverses = _counting(monkeypatch, "orbit_inverse")
        for size, transforms in ((edge - 1, 0), (edge, 1)):
            E = sample_random_set(q, 2, size, seed=q)
            before = len(inverses)
            assert np.array_equal(nu_histogram(E), nu_pairs(E))
            assert len(inverses) - before == transforms


class TestSweepRouting:
    def test_sweep_is_the_one_entry(self, monkeypatch):
        # past the crossover an odd-q set with d >= 4 is swept by the one call
        # certificate_check makes, through the module name, and never by the
        # count it is checked against
        E = sample_random_set(15, 5, 3375, seed=11)
        expected = list(nu_pairs(E))
        sweeps = _counting(monkeypatch, "nu_spectral_sweep")
        histograms = _counting(monkeypatch, "nu_histogram")
        assert list(distset.nu_histogram(E)) == expected
        assert (len(sweeps), len(histograms)) == (0, 1)
        rows = certificate_check(E)
        assert (len(sweeps), len(histograms)) == (1, 2)
        assert [r.nu for r in rows] == expected

    def test_refused_sweep_falls_back_to_autocorrelation(self, monkeypatch):
        # a sweep its tolerance refuses leaves the count alone: nu_histogram
        # takes the autocorrelation, and the CLI keeps those counts
        E = sample_random_set(15, 5, 3375, seed=11)

        def refuse(*args):
            raise BudgetError("forced")

        monkeypatch.setattr(distset, "_sweep_tolerance", refuse)
        inverses = _counting(monkeypatch, "orbit_inverse")
        sweeps = _counting(monkeypatch, "_sweep")
        expected = list(nu_pairs(E))
        assert list(nu_histogram(E)) == expected
        assert (len(inverses), len(sweeps)) == (1, 0)
        *rows, _ = cli._nu_rows(E, "forced", 10**7, 10**8)
        assert [r["nu_brute"] for r in rows] == expected
        assert all("nu_spectral" not in r for r in rows)
        assert (len(inverses), len(sweeps)) == (1, 1)

    def test_raised_grid_budget_keeps_the_counts(self):
        # q^2 fits the raised budget, but the length-q transform kernel is held
        # to 10^7 entries: the refused autocorrelation falls through to the scan
        E = sample_random_set(3163, 1, 3163, seed=1)
        assert np.array_equal(nu_histogram(E, max_grid=2 * 10**7), nu_pairs(E))

    def test_refused_autocorrelation_falls_back_to_pairs(self, monkeypatch):
        E = sample_random_set(9, 3, 600, seed=1)
        expected = nu_pairs(E)

        def refuse(*args):
            raise BudgetError("forced")

        monkeypatch.setattr(distset, "_nu_autocorrelation", refuse)
        scans = _counting(monkeypatch, "nu_pairs")
        assert np.array_equal(nu_histogram(E), expected)
        assert len(scans) == 1

    @pytest.mark.parametrize("q", [3, 9, 15, 45, 105])
    def test_histogram_matches_pairs(self, monkeypatch, q):
        # d <= 5, on both sides of q^{d+1} <= |E|^2 where the pair scan stays
        # below 2 * 10^7 pairs, else one set for the scan: the transform side
        # takes one inverse, and no set is ever swept
        sweeps = _counting(monkeypatch, "nu_spectral_sweep")
        inner_sweeps = _counting(monkeypatch, "_sweep")
        inverses = _counting(monkeypatch, "orbit_inverse")
        for d in range(1, 6):
            edge = math.isqrt(q ** (d + 1) - 1) + 1
            if edge <= q**d and edge * edge <= 2 * 10**7 and q**d <= 10**7:
                sizes = (edge - 1, edge)
            else:
                sizes = (min(q**d, 2000),)
            for size in sizes:
                E = sample_random_set(q, d, size, seed=q * d + size)
                before = len(inverses)
                assert np.array_equal(nu_histogram(E), nu_pairs(E)), (q, d, size)
                on_grid = q ** max(d, 2) <= 10**7 and q ** (d + 1) <= size * size
                assert len(inverses) - before == on_grid, (q, d, size)
        assert sweeps == inner_sweeps == []


def _peak_mib(fn, *args, **kwargs):
    # count the square, norm and class tables (whole grid and orthant) and the
    # class kernels too
    for cache in (sphere._squares, _norms, _class_ids, sphere._build_class_kernel):
        cache.cache_clear()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestHalfSpectrumMemory:
    def test_histogram_peak(self):
        E = sample_random_set(15, 5, 6000, seed=2024)
        assert _peak_mib(nu_histogram, E) <= 40

    def test_certificate_peak(self):
        E = sample_random_set(9, 6, 177147, seed=2024)
        assert _peak_mib(certificate_check, E) <= 20

    @pytest.mark.parametrize("q,d,size", [(15, 5, 6000), (9, 6, 177147)])
    def test_histogram_holds_no_indicator(self, q, d, size):
        # the two q^d pass buffers of orbit_power and O(|E| + q^(d-1)) besides:
        # no 8 q^d-byte indicator, whether E's rows are binned (6000 <= 15^4)
        # or its ones scattered into a pass buffer (177147 > 9^5)
        E = sample_random_set(q, d, size, seed=2024)
        peak = _peak_mib(nu_histogram, E) * 2**20
        assert peak <= 2 * 8 * q**d + 2 * 8 * (size + q ** (d - 1)) + 2**16, peak


class TestNuSpectral:
    def test_matches_brute_random(self):
        E = sample_random_set(9, 3, 50, seed=42)
        hist = nu_pairs(E)
        for rep in nu_spectral_sweep(E):
            assert rep.nu == int(hist[rep.t])
            assert abs(rep.main_term + rep.r_t - rep.nu) < 1e-6

    def test_routes_agree(self):
        E = sample_random_set(15, 3, 60, seed=8)
        direct = nu_spectral_sweep(E, route="direct")
        formula = nu_spectral_sweep(E, route="formula")
        for a, b in zip(direct, formula):
            assert a.nu == b.nu
            assert abs(a.r_t - b.r_t) < 1e-6

    def test_full_grid_error_term_vanishes(self):
        E = full_grid(3, 3)
        counts = sphere_counts_all(3, 3)
        for rep in nu_spectral_sweep(E):
            assert rep.r_t == 0
            assert rep.nu == 27 * int(counts[rep.t])

    def test_empty_fiber(self):
        E = PointSet(3, 3, [(0, 0, 0), (1, 0, 0)])
        rep = nu_spectral_sweep(E)[2]
        assert rep.nu == 0
        assert abs(rep.main_term + rep.r_t) < 1e-9

    def test_even_q_rejected(self):
        with pytest.raises(DomainError):
            nu_spectral_sweep(construct_even_weight(3))

    @pytest.mark.parametrize("q,d", [(3, 1), (9, 1), (9, 2), (27, 2)])
    def test_formula_route_on_empty_spheres(self, q, d):
        # these grids have empty spheres, whose formula-route coefficients are
        # pure rounding noise; the default tolerance must still accept the sums
        for E in (full_grid(q, d), PointSet(q, d, [(0,) * d]), sample_random_set(q, d, q, seed=5)):
            hist = nu_pairs(E)
            for rep in nu_spectral_sweep(E, route="formula"):
                assert rep.nu == int(hist[rep.t])

    @settings(max_examples=30, deadline=None)
    @given(q=st.sampled_from([3, 5, 7, 9, 15, 25, 27]), d=st.integers(1, 2),
           size=st.integers(1, 40), seed=st.integers(0, 10_000))
    def test_both_routes_match_histogram_low_d(self, q, d, size, seed):
        E = sample_random_set(q, d, min(size, q**d), seed=seed)
        hist = [int(h) for h in nu_pairs(E)]
        for route in ("direct", "formula"):
            assert [rep.nu for rep in nu_spectral_sweep(E, route=route)] == hist

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), q=st.sampled_from([3, 5, 9, 15, 21, 25, 27, 45]))
    def test_class_sweep_matches_pairs_and_full_spectra(self, data, q):
        # q^d <= 10^5 keeps the full direct spectra of the chain oracle small
        d = data.draw(st.integers(1, max(k for k in (1, 2, 3, 4) if q**k <= 10**5)))
        size = data.draw(st.integers(1, min(q**d, 300)))
        E = sample_random_set(q, d, size, seed=data.draw(st.integers(0, 10_000)))
        hist = [int(h) for h in nu_pairs(E)]
        chain = _full_spectrum_chain(q, d)
        for route in ("direct", "formula"):
            assert [rep.nu for rep in nu_spectral_sweep(E, route=route)] == hist
            kern = _class_kernel(E.modulus, d, route)
            assert np.abs(kern.chain - chain).max() <= 1e-14

    def test_tolerance_at_one_half_is_a_budget_error(self, monkeypatch):
        # class sums 10^15 times too large drive the derived tolerance past 1/2;
        # that is a budget limit, not an inconsistency
        E = sample_random_set(9, 3, 200, seed=3)
        kern = _class_kernel(E.modulus, 3)
        sums = distset._class_power(orbit_power(E.flat_indices(), 9, 3), 9, 3)
        tol = distset._sweep_tolerance(E, sums, kern)
        assert 0 < tol.max() < 1e-9
        with pytest.raises(BudgetError, match="reaches 1/2"):
            distset._sweep_tolerance(E, sums * 1e15, kern)
        real = distset._class_power
        monkeypatch.setattr(distset, "_class_power", lambda power, q, d: real(power, q, d) * 1e15)
        with pytest.raises(BudgetError):
            nu_spectral_sweep(E)
        with pytest.raises(BudgetError):
            certificate_check(E)

    def test_chain_checks_allow_the_derived_slack_only(self, monkeypatch):
        # a chain understated (or, against r_bound, overstated) by more than its
        # derived slack plus tol_t (none against r_bound) fails; one within
        # tol_t plus half the slack (half the slack) passes
        E = sample_random_set(9, 4, 300, seed=6)
        q, d, n = 9, 4, E.size
        kern = _class_kernel(E.modulus, d)
        reports = nu_spectral_sweep(E)
        t = max(range(q), key=lambda t: abs(reports[t].r_t) / kern.chain[t])
        r = abs(reports[t].r_t)
        scale = float(q) ** d * n
        r_bound = distset._r_bound(E)
        # the kernel error of a class m != 0, and 8 eps of the chain and r_bound
        eps = float(np.finfo(np.float64).eps)
        slack = scale * kern.error[1:, t].max() + 8 * eps * (scale * kern.chain[t] + r_bound)
        tol = distset._sweep_tolerance(E, distset._power_by_class(E, 10**7), kern)[t]
        assert 0 < slack < 1e-12 * r_bound and tol == reports[t].tol

        def sweep_with_chain(value):
            chain = kern.chain.copy()
            chain[t] = value / scale
            fake = types.SimpleNamespace(values=kern.values, error=kern.error, chain=chain)
            monkeypatch.setattr(distset, "_class_kernel", lambda *args: fake)
            return nu_spectral_sweep(E)

        assert sweep_with_chain(r - tol - slack / 2) == reports
        with pytest.raises(InconsistencyError, match="chain bound"):
            sweep_with_chain(r - 2 * (slack + tol))
        sweep_with_chain(r_bound + slack / 2)
        with pytest.raises(InconsistencyError, match="decay bound"):
            sweep_with_chain(r_bound + 2 * slack)


@functools.lru_cache(maxsize=None)
def _full_spectrum_chain(q, d):
    """max_{m != 0} |S_t^(m)| for every t, over the full direct spectra."""
    chain = []
    for t in range(q):
        mags = np.abs(sphere_fourier_direct(sphere_spec(q, d, t)).values)
        mags[0] = 0.0
        chain.append(mags.max())
    return np.array(chain)


class TestThreshold:
    def test_frozen_values(self):
        rep = theorem_threshold(9, 6, 1.0)
        assert rep.threshold == 177147.0
        assert rep.non_vacuous
        rep = theorem_threshold(3, 3, 1.0)
        assert abs(rep.threshold - 2 * 27 * 3**-0.5) < 1e-9
        assert not rep.non_vacuous  # 31.18 > 27

    def test_monotone_in_C(self):
        a = theorem_threshold(9, 4, 1.0).threshold
        b = theorem_threshold(9, 4, 2.5).threshold
        assert b == pytest.approx(2.5 * a)

    def test_gates(self):
        with pytest.raises(DomainError):
            theorem_threshold(6, 3, 1.0)
        with pytest.raises(DomainError):
            theorem_threshold(9, 2, 1.0)

    def test_non_integral_dimension_refused(self):
        # d = 3.5 would get a threshold of 2878.25
        with pytest.raises(DomainError):
            theorem_threshold(9, 3.5, 1.0)

    @pytest.mark.parametrize("C", [-1.0, 0, 0.0, float("nan")])
    def test_non_positive_constant_refused(self, C):
        # C = -1 would give the threshold -1262.67, reported as non-vacuous
        with pytest.raises(DomainError):
            theorem_threshold(9, 3, C)


class TestCertificate:
    def test_soundness_random_sets(self):
        for seed in range(6):
            E = sample_random_set(9, 3, 120 + 30 * seed, seed=seed)
            rows = certificate_check(E)
            assert all(r.sound for r in rows)

    def test_fires_on_full_grid_z3(self):
        rows = certificate_check(full_grid(3, 3))
        fired = {r.t for r in rows if r.fired}
        assert fired == {2}  # M = 324 > 280.6 = R_bound only at t = 2
        assert all(r.sound for r in rows)

    def test_full_grid_margin_positive_everywhere(self):
        # R_t = 0 on the full grid, so the margin M - |R_t| is M > 0 for every t
        for q in (3, 9):
            rows = certificate_check(full_grid(q, 3))
            assert all(r.margin > 0 for r in rows)
            assert all(r.nu is not None and r.nu > 0 for r in rows)

    def test_count_is_never_the_sweep(self, monkeypatch):
        # 600^2 >= 9^5: the certificate checks its sweep against the
        # autocorrelation of nu_histogram
        E = sample_random_set(9, 4, 600, seed=1)
        sweeps = _counting(monkeypatch, "_sweep")
        inverses = _counting(monkeypatch, "orbit_inverse")
        rows = certificate_check(E)
        assert (len(sweeps), len(inverses)) == (1, 1)
        assert [r.nu for r in rows] == [int(h) for h in nu_pairs(E)]

    def test_one_transform_shared_with_histogram(self, monkeypatch):
        # 600^2 >= 9^4, so nu_histogram takes the autocorrelation route and
        # reuses the sweep's transform
        E = sample_random_set(9, 3, 600, seed=1)
        forwards = _counting(monkeypatch, "orbit_power")
        rows = certificate_check(E)
        assert len(forwards) == 1
        assert [r.nu for r in rows] == [int(h) for h in nu_pairs(E)]

    def test_tiny_set_never_fires(self):
        rows = certificate_check(PointSet(9, 3, [(0, 0, 0), (1, 2, 3)]))
        assert not any(r.fired for r in rows)

    def test_gates(self):
        with pytest.raises(DomainError):
            certificate_check(construct_even_weight(4))
        with pytest.raises(DomainError):
            certificate_check(sample_random_set(9, 2, 10, seed=0))


class TestKeptClassPower:
    # a PointSet keeps its class power P_c, so only its first sweep transforms it
    def test_one_transform_for_both_routes_and_the_sweep(self, monkeypatch):
        # |E|^2 > max_pairs, so the count is the autocorrelation's: it runs
        # once, and its one transform serves both routes and the sweep
        E = sample_random_set(9, 6, 20000, seed=2024)
        forwards = _counting(monkeypatch, "orbit_power")
        inverses = _counting(monkeypatch, "orbit_inverse")
        direct = certificate_check(E, "direct")
        formula = certificate_check(E, "formula")
        sweep = nu_spectral_sweep(E)
        assert (len(forwards), len(inverses)) == (1, 1)
        assert [r.nu for r in direct] == [r.nu for r in formula] == [rep.nu for rep in sweep]
        assert repr(direct) == repr(certificate_check(PointSet(9, 6, E.array()), "direct"))
        assert repr(formula) == repr(certificate_check(PointSet(9, 6, E.array()), "formula"))
        assert repr(sweep) == repr(nu_spectral_sweep(PointSet(9, 6, E.array())))
        assert len(forwards) == 4

    def test_counts_past_the_pair_budget(self, monkeypatch):
        # 12000^2 > 10^8 pairs: both routes still fill nu on every row with
        # the pair counts, from one transform of E
        E = sample_random_set(9, 6, 12000, seed=2024)
        forwards = _counting(monkeypatch, "orbit_power")
        expected = [int(h) for h in nu_pairs(E, max_pairs=2 * 10**8)]
        for route in ("direct", "formula"):
            rows = certificate_check(E, route)
            assert [r.nu for r in rows] == expected, route
            assert all(r.sound for r in rows)
        assert len(forwards) == 1

    def test_counts_kept_read_only(self, monkeypatch):
        E = sample_random_set(9, 4, 600, seed=1)
        assert E._nu is None
        hist = nu_histogram(E)
        assert np.array_equal(E._nu, hist) and E._nu.dtype == np.int64
        with pytest.raises(ValueError):
            E._nu[0] = 0
        hist[0] = 0  # the caller's copy
        forwards = _counting(monkeypatch, "orbit_power")
        assert np.array_equal(nu_histogram(E), nu_pairs(E)) and forwards == []
        with pytest.raises(BudgetError):  # the transform budget is checked when kept
            distset._nu_autocorrelation(E, 9**4 - 1)
        assert E.translate((1, 2, 3, 4))._nu is None

    def test_autocorrelation_leaves_it_for_the_sweep(self, monkeypatch):
        E = sample_random_set(9, 3, 600, seed=1)
        assert np.array_equal(nu_histogram(E), nu_pairs(E))
        forwards = _counting(monkeypatch, "orbit_power")
        for route in ("direct", "formula"):
            assert [rep.nu for rep in nu_spectral_sweep(E, route=route)] == list(nu_pairs(E))
        assert forwards == []

    def test_grid_budget_checked_when_kept(self):
        E = sample_random_set(9, 4, 600, seed=1)
        nu_spectral_sweep(E)
        assert E._power_by_class is not None
        with pytest.raises(BudgetError):
            distset._power_by_class(E, 9**4 - 1)
        with pytest.raises(BudgetError):
            nu_spectral_sweep(E, max_grid=9**4 - 1)
        with pytest.raises(BudgetError):
            certificate_check(E, max_grid=9**4 - 1)

    def test_new_sets_start_empty(self):
        E = sample_random_set(9, 4, 600, seed=1)
        assert E._power_by_class is None
        nu_spectral_sweep(E)
        assert len(E._power_by_class) == 13  # sigma(9) floats
        with pytest.raises(ValueError):
            E._power_by_class[0] = 0.0
        assert E.translate((1, 2, 3, 4))._power_by_class is None
        assert PointSet(9, 4, E.array())._power_by_class is None

    def test_even_q_and_pair_scans_keep_none(self):
        # even q through the autocorrelation, Z_2 by parity, odd q below the
        # crossover (9^4 > 80^2) by the pair scan
        for E in (sample_random_set(6, 5, 3000, seed=3), construct_even_weight(6),
                  sample_random_set(9, 3, 80, seed=4)):
            nu_histogram(E)
            distance_set(E)
            nu_pairs(E)
            assert E._power_by_class is None


class TestConstructions:
    def test_even_weight_d3_exact(self):
        E = construct_even_weight(3)
        assert E.points == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert distance_set(E) == {0}

    def test_even_weight_d1(self):
        assert construct_even_weight(1).points == ((0,),)

    def test_even_weight_sizes_and_distances(self):
        for d in range(1, 13):
            E = construct_even_weight(d)
            assert E.size == 2 ** (d - 1)
            assert distance_set(E) == {0}

    def test_lattice_examples(self):
        E = construct_zero_distance_lattice(3, 2, 3)
        assert (E.q, E.size) == (9, 27)
        assert distance_set(E) == {0}
        E = construct_zero_distance_lattice(3, 3, 3)
        assert (E.q, E.size) == (27, 27)
        assert distance_set(E) == {0}
        E = construct_zero_distance_lattice(5, 2, 3)
        assert (E.q, E.size) == (25, 125)
        assert distance_set(E) == {0}

    def test_lattice_ell1_is_singleton(self):
        E = construct_zero_distance_lattice(7, 1, 3)
        assert E.points == ((0, 0, 0),)
        # past numpy's 32 meshgrid dimensions too
        assert construct_zero_distance_lattice(3, 1, 40).points == ((0,) * 40,)

    def test_lattice_size_formula(self):
        for p, ell, d in ((3, 2, 2), (3, 4, 2), (5, 3, 2), (7, 2, 3)):
            E = construct_zero_distance_lattice(p, ell, d)
            assert E.size == p ** ((ell // 2) * d)

    def test_lattice_rejects_bad_p(self):
        for bad in (2, 4, 9, 15):
            with pytest.raises(DomainError):
                construct_zero_distance_lattice(bad, 2, 3)

    def test_non_integral_arguments_refused(self):
        for call in (lambda: construct_even_weight(2.5), lambda: construct_even_weight("3"),
                     lambda: construct_zero_distance_lattice(3.0, 2, 3),
                     lambda: construct_zero_distance_lattice(3, 2.0, 3),
                     lambda: construct_zero_distance_lattice(3, 2, 3.0)):
            with pytest.raises(DomainError):
                call()
        E = construct_zero_distance_lattice(np.int64(3), np.int64(2), np.int64(3))
        assert E == construct_zero_distance_lattice(3, 2, 3)
        assert construct_even_weight(np.int64(3)) == construct_even_weight(3)

    @pytest.mark.parametrize("build,args", [
        (construct_even_weight, (33,)),  # 2^32 points
        (construct_even_weight, (64,)),  # 2^63 points, past a shift of int64
        (construct_zero_distance_lattice, (3, 40, 3)),  # 3^60 points from 26 GiB of coordinates
        # below 2^32 points, past _COORD_BUDGET coordinates
        (construct_even_weight, (32,)),  # 2^31 x 32 coordinates, 512 GiB
        (construct_zero_distance_lattice, (3, 41, 1)),  # 3^20 points, 26 GiB
        (sample_random_set, (3, 40, 2**32 - 1, 1)),  # 1.7 * 10^11 coordinates
    ])
    def test_oversized_sets_refused_before_any_array(self, build, args, refused_before_allocating):
        with refused_before_allocating(BudgetError):
            build(*args)


class TestSampling:
    def test_deterministic(self):
        a = sample_random_set(9, 3, 40, seed=123)
        b = sample_random_set(9, 3, 40, seed=123)
        assert a == b

    def test_seeds_differ(self):
        a = sample_random_set(9, 3, 40, seed=1)
        b = sample_random_set(9, 3, 40, seed=2)
        assert a != b

    def test_full_size_is_grid(self):
        assert sample_random_set(3, 2, 9, seed=5) == full_grid(3, 2)

    def test_distinctness_and_range(self):
        E = sample_random_set(5, 3, 100, seed=77)
        assert E.size == 100
        assert all(0 <= c < 5 for p in E.points for c in p)

    def test_errors(self):
        with pytest.raises(DomainError):
            sample_random_set(3, 2, 0, seed=0)
        with pytest.raises(DomainError):
            sample_random_set(3, 2, 10, seed=0)

    def test_non_integral_arguments_refused(self):
        for args in ((3, 2.0, 3, 1), (3, 0, 1, 1), (3, 2, 3.0, 1), (3, 2, 3, 1.0)):
            with pytest.raises(DomainError):
                sample_random_set(*args)
        E = sample_random_set(3, np.int64(2), np.int64(3), np.int64(1))
        assert E == sample_random_set(3, 2, 3, 1)

    def test_exact_beyond_int64(self):
        # 2^63 < 3^40 < 2^64: flat indices past int64 keep their exact digits
        E = sample_random_set(3, 40, 4, seed=1)
        flat = [sum(c * 3 ** (39 - j) for j, c in enumerate(p)) for p in E.points]
        assert flat == [
            8195237237126968763,
            8196980753821780236,
            9648886400068060536,
            10451216379200822465,
        ]

    def test_flat_indices_beyond_int64_rejected(self):
        E = sample_random_set(3, 40, 4, seed=1)
        with pytest.raises(DomainError):
            E.flat_indices()
        # 2^63 itself still fits: the largest flat index is 2^63 - 1
        assert PointSet(2, 63, [[1] * 63]).flat_indices().tolist() == [2**63 - 1]

    @pytest.mark.parametrize("q,d,size,seed", [
        (9, 6, 3000, 2024),
        (15, 5, 6000, 2024),
        (3, 40, 3000, 7),  # 2^64 mod 3^40 rejects a third of the draws
        (2, 64, 50, 3),  # q^d = 2^64 exactly: no rejection, no reduction
        (4, 32, 200, -5),
        (5, 27, 500, 2**70 + 3),
        (3, 8, 6561, 11),  # full permutations
        (5, 5, 3125, 12),
        (7, 4, 2400, 13),  # size = n - 1
        (2, 1, 2, 14),
    ])
    def test_matches_scalar_splitmix64(self, q, d, size, seed):
        assert list(sample_random_set(q, d, size, seed).points) == _scalar_sample(
            q, d, size, seed)

    def test_grid_beyond_64_bits_rejected(self):
        with pytest.raises(DomainError):
            sample_random_set(101, 10, 3, seed=1)

    @pytest.mark.parametrize("q,d,size,seed", [
        (9, 6, 177147, 2024),
        (3, 11, 177147, 5),
        (2, 64, 1000, 3),
        (3, 40, 2000, 9),
        (10**9, 2, 500, 4),
        (2**32 - 5, 2, 400, 6),
        (2, 63, 50, 1),
        (4, 32, 70, 2),
        (45, 4, 20000, 11),
        (9, 6, 531441, 7),  # the full grid: every position is picked
        (15, 5, 1, 3),  # one point
        (9, 1, 1, 0),
        (2**63 - 1, 1, 3000, 5),  # 2^62 < n < 2^64, coordinates built eagerly
    ])
    def test_byte_identical_to_the_stable_sort_sampler(self, q, d, size, seed):
        E = sample_random_set(q, d, size, seed)
        digits, flat = _stable_sort_sample(q, d, size, seed)
        if q**d <= 1 << 63:
            assert E.flat_indices().dtype == np.int64
            assert E.flat_indices().tobytes() == flat.astype(np.int64).tobytes()
        got = E.array()
        assert got.dtype == np.int64 and got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == digits.tobytes()

    def test_size_of_2_32_refused_before_drawing(self, monkeypatch):
        # a sample of 2^32 points or more is refused before any draw, to keep
        # the sampler's arrays bounded whatever the coordinate budget; the
        # budget is raised so that only that limit applies
        def forbidden(*args):
            raise AssertionError("the sampler drew before checking the size")

        monkeypatch.setattr(distset, "_fisher_yates_draws", forbidden)
        monkeypatch.setattr(distset, "_COORD_BUDGET", 2**40)
        with pytest.raises(BudgetError):
            sample_random_set(2, 64, 2**32, seed=1)
        with pytest.raises(AssertionError):  # one point less reaches the draws
            sample_random_set(2, 64, 2**32 - 1, seed=1)

    def test_numpy_integer_q_is_its_value(self):
        # q stayed np.int64, so q^d wrapped past 2^63: 3^40 read as negative,
        # and 3^30 raised OverflowError in the draws
        for d, size in ((40, 2000), (30, 50), (6, 300)):
            for q in (np.int64(3), np.uint8(3), np.int32(3)):
                got = sample_random_set(q, d, size, 9)
                assert type(got.q) is int
                assert got.array().tobytes() == sample_random_set(3, d, size, 9).array().tobytes()

    def test_non_integral_q_refused(self):
        # 9.0 was kept as the modulus, and the sampler then raised TypeError
        # while the constructor accepted it
        for q in (9.0, 9.5, "9", None):
            with pytest.raises(DomainError):
                sample_random_set(q, 3, 5, 1)
            with pytest.raises(DomainError):
                PointSet(q, 2, [(1, 2)])

    @pytest.mark.parametrize("q", [2**63, 2**63 + 1, 2**64, np.uint64(2**64 - 1), 10**30])
    def test_q_past_int64_refused_before_any_array(self, q, refused_before_allocating):
        # the residues are int64: these raised OverflowError or UFuncTypeError
        with refused_before_allocating(DomainError):
            PointSet(q, 2, [(5, 7)])
        with refused_before_allocating(DomainError):
            sample_random_set(q, 1, 3, 1)

    @pytest.mark.parametrize("d", [2**40, 2**62])
    def test_huge_dimension_refused_before_q_to_the_d(self, d, refused_before_allocating):
        # q^d was formed in full before it was compared with 2^64
        with refused_before_allocating(DomainError):
            sample_random_set(2, d, 3, 1)

    def test_largest_q_kept(self):
        q = 2**63 - 1
        assert PointSet(q, 2, [(q - 1, 5), (-1, 5), (q, 7)]).points == ((0, 7), (q - 1, 5))
        E = sample_random_set(q, 1, 3, 1)
        assert list(E.points) == _scalar_sample(q, 1, 3, 1)

    def test_sampled_coordinates_built_on_the_first_read(self):
        reads = [
            lambda E: E.array(), lambda E: E.points, lambda E: list(E),
            lambda E: E == E, lambda E: hash(E), lambda E: E.translate((0, 0, 0, 0)),
            lambda E: (1, 2, 3, 4) in E,
        ]
        for read in reads:
            E = sample_random_set(9, 4, 700, 5)
            assert (E.size, len(E)) == (700, 700)
            flat = E.flat_indices()
            assert not flat.flags.writeable and E._coords is None
            # the transforms read the flat indices only
            nu_histogram(E), nu_spectral_sweep(E), certificate_check(E)
            assert E._coords is None
            read(E)
            arr = E._coords
            assert arr is not None and not arr.flags.writeable and E.array() is arr
            rebuilt = PointSet(9, 4, E.points)
            assert E == rebuilt and hash(E) == hash(rebuilt)
            assert rebuilt.flat_indices().tobytes() == flat.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        q=st.one_of(
            st.sampled_from([-(2**64), -1, 0, 1, 2, 3, 4, 9, 45, 2**31 - 1, 2**62, 2**63 - 1, 2**63,
                             2**64, 10**30, True, False, 9.0, 2.5, float("nan"), float("inf"),
                             np.int64(9), np.uint64(2**64 - 1), np.int8(-3), np.uint8(5), "9"]),
            st.integers(-5, 60),
        ),
        d=st.one_of(
            st.sampled_from([-1, 0, 1, 2, 64, 2**40, True, 2.0, np.int64(3), np.uint64(2**63)]),
            st.integers(1, 12),
        ),
        size=st.one_of(st.sampled_from([-1, 0, 1, 2**31, 2**32, 2**64, True, 3.0, np.int64(5),
                                        np.uint64(7)]),
                       st.integers(1, 400)),
        seed=st.one_of(
            st.sampled_from([-(2**70), -1, 0, 2**64, 2**200, False, 1.0, np.uint64(2**64 - 1),
                             np.int64(-7)]),
            st.integers(0, 2**64),
        ),
    )
    def test_arguments_give_a_set_or_a_classified_error(self, q, d, size, seed):
        try:
            E = sample_random_set(q, d, size, seed)
        except (DomainError, BudgetError):
            return
        assert E.size == operator.index(size) and E.d == operator.index(d) and type(E.q) is int
        if E.q ** E.d <= 1 << 62:
            assert E.flat_indices().size == E.size


def _stable_sort_sample(q, d, size, seed):
    # reference: the draws resolved through one stable argsort, the digits
    # peeled in uint64 from the unsorted picks, the rows lexsorted; returns
    # them with the sorted picks
    draws = distset._fisher_yates_draws(seed, q**d, size)
    order = np.argsort(draws, kind="stable")
    ranked = draws[order]
    same = ranked[1:] == ranked[:-1]
    before = np.full(size, -1, dtype=np.int64)
    before[order[1:][same]] = order[:-1][same]
    last = np.append(~same, True)
    targets, k = ranked[last], order[last]
    inside = targets < np.uint64(size)
    w = np.arange(size, dtype=np.int64)
    w[targets[inside].astype(np.int64)] = k[inside]
    for _ in range(size.bit_length()):
        w = w[w]
    flat = np.where(before < 0, draws, w[before].astype(np.uint64))
    picks = np.sort(flat)
    digits = np.empty((size, d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        flat, digits[:, j] = np.divmod(flat, np.uint64(q))
    return digits[np.lexsort(digits.T[::-1])], picks


def _splitmix64_scalar(seed):
    # independent oracle: splitmix64 one output at a time
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _scalar_draws_from(outputs, n, size):
    # each draw takes the next output, rejected while z >= 2^64 - (2^64 mod (n - i))
    draws = []
    for i in range(size):
        limit = (1 << 64) - ((1 << 64) % (n - i))
        z = next(outputs)
        while z >= limit:
            z = next(outputs)
        draws.append(i + z % (n - i))
    return draws


def _scalar_draws(q, d, size, seed):
    return _scalar_draws_from(_splitmix64_scalar(seed), q**d, size)


def _scalar_sample(q, d, size, seed):
    # the scalar draws, then the Fisher-Yates swaps one at a time
    return sorted(tuple((f // q**k) % q for k in range(d - 1, -1, -1))
                  for f in _swap_loop(_scalar_draws(q, d, size, seed)))


def _lexsort_canonical(q, rows):
    # reference: reduce as Python ints, lexsort all d columns, drop repeats
    arr = np.array([[int(c) % q for c in p] for p in rows], dtype=np.int64)
    arr = arr[np.lexsort(arr.T[::-1])]
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    return arr[keep]


def _swap_loop(draws):
    # reference: the Fisher-Yates swaps one at a time, untouched positions implicit
    swap, chosen = {}, []
    for i, j in enumerate(draws):
        chosen.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    return chosen


class TestFisherYatesDraws:
    # stretches of 7 outputs, so that rejections fall at their ends and
    # starts, and one stretch holds several
    @pytest.mark.parametrize("q,d,size,seed", [
        (3, 40, 300, 7),  # 2^64 mod 3^40 rejects a third of the outputs
        (3, 40, 300, 8),
        (2**63 - 1, 1, 200, 5),
        (2, 64, 100, 3),  # n = 2^64: the first draw takes its output whole
        (2, 64, 1, 4),
        (3, 39, 400, 9),  # n < 2^62, candidates without rejections too
        (9, 6, 100, 2024),
        (7, 1, 7, 1),  # n = size: the last span is 1
    ])
    def test_matches_scalar_draws_in_short_stretches(self, monkeypatch, q, d, size, seed):
        want = _scalar_draws(q, d, size, seed)
        for chunk in (7, 64, 1 << 14):
            monkeypatch.setattr(distset, "_DRAW_CHUNK", chunk)
            got = distset._fisher_yates_draws(seed, q**d, size)
            assert got.dtype == np.uint64 and got.tolist() == want, chunk


    @pytest.mark.parametrize("seed", range(6))
    def test_a_rejection_moves_the_later_candidates(self, monkeypatch, seed):
        # outputs within a few of the rejection bound n - i (2^64 mod (n - i)
        # = 2^64 - (n - i) while n - i > 2^63), so that whether an output is
        # rejected depends on how many were rejected before it; the stream
        # stands in for splitmix64, output k at stream position k + 1
        n, size = 2**63 + 10, 300
        rng = random.Random(seed)
        stream = [2**64 - 1, n - 1] + [n - k + rng.randint(-3, 3) if rng.random() < 0.8
                                       else rng.randrange(2**64) for k in range(2, 2000)]

        def scripted(z, seed, scratch):
            z[:] = [stream[k - 1] for k in z.tolist()]
            return z

        monkeypatch.setattr(distset, "_mix64", scripted)
        want = _scalar_draws_from(iter(stream), n, size)
        for chunk in (7, 64, 1 << 14):
            monkeypatch.setattr(distset, "_DRAW_CHUNK", chunk)
            assert distset._fisher_yates_draws(0, n, size).tolist() == want, chunk


class TestFisherYatesSelect:
    # the select step returns the picked set, sorted, not the picks in order
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.one_of(st.integers(1, 3000), st.integers(1, 2**64)))
    def test_matches_swap_loop(self, data, n):
        size = data.draw(st.integers(1, min(n, 2000)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        draws = [rng.randrange(i, n) for i in range(size)]
        got = distset._fisher_yates_select(np.array(draws, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == sorted(_swap_loop(draws))

    @pytest.mark.parametrize("size", [1, 2, 3, 1000])
    def test_chains(self, size):
        # each step targets the next position: the last pick follows one chain
        # back through every step; all target the last position; none swaps;
        # each swaps with the first position past the picks
        for draws in ([min(i + 1, size - 1) for i in range(size)], [size - 1] * size,
                      list(range(size)), [size] * size, [size + i for i in range(size)]):
            got = distset._fisher_yates_select(np.array(draws, dtype=np.uint64))
            assert got.tolist() == sorted(_swap_loop(draws))


class TestFlatDigits:
    # the digit rows are transposed once; the reference writes each digit
    # into its strided column
    @staticmethod
    def column_loop(flat, q, d):
        digits = np.empty((flat.size, d), dtype=np.int64)
        rest, digits[:, d - 1] = np.divmod(flat, flat.dtype.type(q))
        rest = rest.astype(np.int64, copy=False)
        for j in range(d - 2, -1, -1):
            rest, digits[:, j] = np.divmod(rest, q)
        return digits

    @pytest.mark.parametrize("q,d,dtype,low", [
        (3, 14, np.int64, 0), (45, 4, np.int64, 0), (7, 1, np.int64, 0),
        (2, 64, np.uint64, 2**63), (2**32, 2, np.uint64, 2**63), (3, 40, np.uint64, 2**63),
    ])
    def test_matches_column_loop(self, q, d, dtype, low):
        rng = np.random.default_rng(q + d)
        span = min(q**d, 2**64) - low
        flat = np.sort((rng.integers(0, span, 5000, dtype=np.uint64) + np.uint64(low)).astype(dtype))
        got = distset._flat_digits(flat, q, d)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, self.column_loop(flat, q, d))


class TestTranslationInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        v=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
    )
    def test_translate(self, seed, v):
        E = sample_random_set(9, 3, 25, seed=seed)
        F = E.translate(v)
        assert distance_set(E) == distance_set(F)
        assert np.array_equal(nu_histogram(E), nu_histogram(F))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nu_totals(self, seed):
        E = sample_random_set(5, 3, 1 + seed % 60, seed=seed)
        assert int(nu_histogram(E).sum()) == E.size**2


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        E = sample_random_set(15, 3, 33, seed=4)
        path = tmp_path / "set.txt"
        write_pointset(E, path)
        assert read_pointset(path) == E

    def test_bytes_match_savetxt(self, tmp_path):
        # the lines np.savetxt(fmt="%d", delimiter=",") wrote, byte for byte:
        # one to nineteen digits, zeros, one coordinate, and 2^16 rows of 17
        # one-digit values, three blocks of at most 2^20 bytes
        sets = [
            construct_even_weight(17),
            full_grid(11, 2),
            PointSet(7, 1, [(0,), (3,), (6,)]),
            sample_random_set(1000003, 3, 5000, seed=9),
            PointSet(2**62 + 1, 2, [(0, 2**62), (10**18, 9), (10**17 - 1, 10**17)]),
            sample_random_set(3, 8, 4000, seed=1),
        ]
        for E in sets:
            path = tmp_path / "set.txt"
            write_pointset(E, path)
            ref = io.StringIO()
            ref.write(f"q={E.q} d={E.d}\n")
            np.savetxt(ref, E.array(), fmt="%d", delimiter=",")
            assert path.read_bytes() == ref.getvalue().encode(), E
            assert read_pointset(path) == E

    def test_comments_blanks_normalization(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_text(
            "# a comment\n\nq=5 d=2\n1,2\n\n6,-1  # reduced mod 5\n# trailing\n",
            encoding="utf-8",
        )
        E = read_pointset(path)
        assert E.points == ((1, 2), (1, 4))

    def test_huge_coordinates_reduce(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"q=5 d=2\n{10**30},1\n{-(10**40)},{2**80 + 1}\n", encoding="utf-8")
        assert read_pointset(path).points == ((0, 1), (0, 2))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d=2 q=5\n0,0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            read_pointset(path)

    def test_wrong_arity(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("q=5 d=2\n0,0,0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            read_pointset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(DomainError):
            read_pointset(path)


class TestAdversarialSpectralAgreement:
    def test_sphere_as_point_set(self):
        E = PointSet(9, 3, sphere_enumerate(sphere_spec(9, 3, 1)))
        hist = nu_pairs(E)
        for rep in nu_spectral_sweep(E):
            assert rep.nu == int(hist[rep.t])

    def test_lattice_construction(self):
        E = construct_zero_distance_lattice(3, 2, 3)
        hist = nu_pairs(E)
        for rep in nu_spectral_sweep(E):
            assert rep.nu == int(hist[rep.t])
        assert nu_pairs(E)[0] == E.size**2
