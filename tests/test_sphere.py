import functools
import gc
import itertools
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest

from zqdist import distset, fourier, gauss, sphere
from zqdist.arith import as_modulus
from zqdist.errors import BudgetError, DomainError, InconsistencyError
from zqdist.fourier import forward
from zqdist.sphere import (
    _class_count,
    _class_ids,
    _class_kernel,
    decay_report,
    sphere_count_formula,
    sphere_counts_all,
    sphere_enumerate,
    sphere_fourier_direct,
    sphere_indicator,
    sphere_size_bound_check,
    sphere_spec,
    sphere_spectrum,
    sphere_spectrum_formula,
)


def brute_count(q, d, t):
    # independent oracle: literal loop over the whole grid
    return sum(
        1 for x in itertools.product(range(q), repeat=d) if sum(c * c for c in x) % q == t
    )


@functools.lru_cache(maxsize=None)
def convolution_counts(q, d):
    # independent oracle: the histogram of x^2 mod q convolved d times, in
    # Python integers held by numpy object arrays, one shift per square
    squares = np.bincount(np.arange(q) ** 2 % q, minlength=q)
    counts = np.zeros(q, dtype=object)
    counts[0] = 1
    for _ in range(d):
        step = np.zeros(q, dtype=object)
        for k in np.flatnonzero(squares):
            step += int(squares[k]) * np.roll(counts, k)
        counts = step
    return tuple(int(c) for c in counts)


class TestEnumerate:
    def test_z3_cubed(self):
        sizes = [len(sphere_enumerate(sphere_spec(3, 3, t))) for t in range(3)]
        assert sizes == [9, 6, 12]
        assert sum(sizes) == 27

    def test_matches_brute_loop(self):
        for q in (2, 3, 4, 5, 9):
            for d in (1, 2, 3):
                for t in range(q):
                    assert len(sphere_enumerate(sphere_spec(q, d, t))) == brute_count(q, d, t)

    def test_lexicographic_order(self):
        pts = sphere_enumerate(sphere_spec(5, 3, 2))
        assert pts == sorted(pts)

    def test_membership(self):
        for p in sphere_enumerate(sphere_spec(9, 3, 4)):
            assert sum(c * c for c in p) % 9 == 4

    def test_budget(self):
        with pytest.raises(BudgetError):
            sphere_enumerate(sphere_spec(45, 4, 0), max_grid=1000)

    def test_negative_t_normalized(self):
        assert sphere_enumerate(sphere_spec(5, 2, -1)) == sphere_enumerate(sphere_spec(5, 2, 4))

    @pytest.mark.parametrize("t", [1.5, 3.0, np.float64(2.0), "3"])
    def test_non_integral_t_refused(self, t):
        # kept as a residue, t = 1.5 would get a count of 81 points from the formula
        with pytest.raises(DomainError):
            sphere_count_formula(sphere_spec(9, 3, t))

    def test_non_integral_dimension_refused(self):
        # d = 2.5 would get a count of 32.0 points for S_1 in Z_9
        with pytest.raises(DomainError):
            sphere_count_formula(sphere_spec(9, 2.5, 1))

    def test_integer_t_of_any_kind(self):
        for t in (np.int64(4), np.uint8(4), 13, True):
            assert sphere_spec(9, 3, t).t_value == int(t) % 9


class TestPartition:
    def test_numpy_integer_q_is_its_value(self):
        # np.int64 q reached the count table and raised UFuncTypeError
        assert sphere_counts_all(np.int64(9), 3).tolist() == sphere_counts_all(9, 3).tolist()
        with pytest.raises(BudgetError):
            sphere_counts_all(np.int64(3), 40)
        for q in (9.0, "9"):
            with pytest.raises(DomainError):
                sphere_counts_all(q, 3)

    @pytest.mark.parametrize("d", [0, -1])
    def test_no_dimension_refused(self, d):
        # d = 0 would recurse without end in the norm table's build
        with pytest.raises(DomainError):
            sphere_counts_all(9, d)

    def test_counts_partition_grid(self):
        for q in (2, 3, 5, 9, 15):
            for d in (1, 2, 3):
                counts = sphere_counts_all(q, d)
                assert int(counts.sum()) == q**d

    @pytest.mark.parametrize("q,d", [(3162, 2), (45, 4)])
    def test_counts_bin_in_bounded_blocks(self, q, d):
        # np.bincount casts its input to intp: one call on the whole norm table
        # would make an 8-byte copy of it, 80 MB for the two-byte Z_3162^2
        norms = sphere._norms(q, d, q)
        sphere._counts_cached.cache_clear()
        tracemalloc.start()
        try:
            counts = sphere._counts_cached(q, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak
        assert counts.dtype == np.intp
        assert np.array_equal(counts, np.bincount(norms, minlength=q))


    def test_convolved_rows_equal_enumeration(self):
        # the kernel's and the sweep's exact counts, odd and even q, every i <= d
        for q, d in itertools.product((2, 3, 4, 6, 9, 15, 45), range(1, 7)):
            if q**d > 10**5:
                continue
            rows = sphere._sphere_count_rows(q, d)
            assert rows.shape == (d + 1, q) and not rows.flags.writeable
            assert list(rows[0]) == [1] + [0] * (q - 1)
            for i in range(1, d + 1):
                assert np.array_equal(rows[i], sphere_counts_all(q, i)), (q, d, i)

    def test_convolved_rows_hold_no_q_by_q_table(self):
        # one cyclic convolution per row: a q x q int64 table at q = 3001 is 69 MiB
        sphere._sphere_count_rows.cache_clear()
        tracemalloc.start()
        try:
            rows = sphere._sphere_count_rows(3001, 2)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 2
        assert int(rows[2].sum()) == 3001**2
        for t in (0, 1, 2, 3000):
            assert int(rows[2][t]) == sphere_count_formula(sphere_spec(3001, 2, t)).exact_count


class TestCountFormula:
    def test_z3_cubed_reports(self):
        rep0 = sphere_count_formula(sphere_spec(3, 3, 0))
        assert (rep0.exact_count, rep0.main_term, rep0.ii_t) == (9, 9, 0)
        rep1 = sphere_count_formula(sphere_spec(3, 3, 1))
        assert (rep1.exact_count, rep1.main_term, rep1.ii_t) == (6, 9, -3)

    def test_matches_enumeration(self):
        for q in (3, 5, 9, 15, 27):
            counts = sphere_counts_all(q, 3)
            for t in range(q):
                assert sphere_count_formula(sphere_spec(q, 3, t)).exact_count == int(counts[t])

    def test_low_dimensions(self):
        for q in (3, 5, 9, 15):
            for d in (1, 2):
                counts = sphere_counts_all(q, d)
                for t in range(q):
                    assert sphere_count_formula(sphere_spec(q, d, t)).exact_count == int(counts[t])

    def test_crt_product_example(self):
        # |S_1(Z_15^3)| = |S_1(Z_3^3)| * |S_1(Z_5^3)|
        c15 = sphere_counts_all(15, 3)
        c3 = sphere_counts_all(3, 3)
        c5 = sphere_counts_all(5, 3)
        for t in range(15):
            assert int(c15[t]) == int(c3[t % 3]) * int(c5[t % 5])
        rep = sphere_count_formula(sphere_spec(15, 3, 1))
        assert rep.exact_count == int(c3[1]) * int(c5[1])

    def test_error_term_within_combined_bound(self):
        # the per-factor bounds combine multiplicatively for composite q
        for q in (15, 45):
            for t in range(q):
                rep = sphere_count_formula(sphere_spec(q, 3, t))
                assert abs(rep.ii_t) <= rep.ii_bound * (1 + 1e-12)

    def test_even_q_rejected(self):
        with pytest.raises(DomainError):
            sphere_count_formula(sphere_spec(6, 3, 1))

    def test_q63_d8_tolerance_from_magnitudes(self):
        # 63 = 3^2 * 7: two prime powers, and both parities of k d in the 3^2 factor
        expected = convolution_counts(63, 8)
        for t in range(63):
            assert sphere_count_formula(sphere_spec(63, 8, t)).exact_count == expected[t], t

    def test_matches_convolution_odd_q_below_100(self):
        # every t of every odd q < 100 with d <= 10; the float character sum
        # this replaced could not certify 684 of these (q, t) cases at d = 10
        for q in range(3, 100, 2):
            for d in range(1, 11):
                expected = convolution_counts(q, d)
                for t in range(q):
                    rep = sphere_count_formula(sphere_spec(q, d, t))
                    assert rep.exact_count == expected[t], (q, d, t)
                    assert rep.ii_t == expected[t] - q ** (d - 1)
                    assert type(rep.exact_count) is int and type(rep.ii_t) is int

    @pytest.mark.parametrize("q,d", [(2187, 8), (99, 10)])
    def test_large_counts_exact(self, q, d):
        # counts past 2^53: the spheres partition the grid, t = 1 is the
        # convolution, and so is the error term of every factor in the bound check
        spec = sphere_spec(q, d, 1)
        assert sum(sphere_count_formula(sphere_spec(q, d, t)).exact_count for t in range(q)) == q**d
        assert sphere_count_formula(spec).exact_count == convolution_counts(q, d)[1]
        for f in sphere_size_bound_check(spec).factors:
            qi = f.p**f.alpha
            assert f.ii_abs == abs(convolution_counts(qi, d)[1] - qi ** (d - 1)), qi


class TestSizeBound:
    def test_z3_example(self):
        rep = sphere_size_bound_check(sphere_spec(3, 3, 1))
        (f,) = rep.factors
        assert f.ii_abs == 3
        assert abs(f.bound - 9 * 3**-0.5) < 1e-12
        assert f.ratio <= 1 and rep.ok

    def test_zero_error_term(self):
        rep = sphere_size_bound_check(sphere_spec(3, 3, 0))
        assert rep.factors[0].ii_abs == 0 and rep.ok

    def test_q27_d4_sweep(self):
        for t in range(27):
            rep = sphere_size_bound_check(sphere_spec(27, 4, t))
            assert rep.ok
            assert all(f.ratio <= 1 for f in rep.factors)

    def test_composite_per_factor(self):
        rep = sphere_size_bound_check(sphere_spec(45, 3, 7))
        assert [(f.p, f.alpha) for f in rep.factors] == [(3, 2), (5, 1)]
        assert rep.ok

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            sphere_size_bound_check(sphere_spec(3, 2, 0))


class TestFourierDirect:
    def test_mean_value(self):
        counts = sphere_counts_all(3, 3)
        for t in range(3):
            sp = sphere_fourier_direct(sphere_spec(3, 3, t))
            assert abs(sp.values[0] - int(counts[t]) / 27) < 1e-12

    def test_plancherel_with_itself(self):
        # sum_m |S_t^(m)|^2 = |S_t| / q^d for an indicator
        for q, d, t in ((3, 3, 1), (5, 3, 2), (9, 2, 4)):
            sp = sphere_fourier_direct(sphere_spec(q, d, t))
            counts = sphere_counts_all(q, d)
            total = float(np.sum(np.abs(sp.values) ** 2))
            assert abs(total - int(counts[t]) / q**d) < 1e-12


# odd q, composite ones included, and d with q^d <= 10^5
FORMULA_CASES = [(q, d) for q in (3, 5, 9, 15, 21) for d in (1, 2, 3, 4) if q**d <= 10**5]


class TestFourierFormula:
    def test_matches_direct_entrywise(self):
        # the kernel column spread over every frequency against the transform;
        # for d <= 2 some classes are empty and their zero rows must stay unread
        eps = np.finfo(np.float64).eps
        for q, d in FORMULA_CASES:
            kern = _class_kernel(as_modulus(q), d, "formula")
            ids, slots = _class_ids(q, d, q), _class_count(q)
            if d == 1:  # the non-squares mod q leave classes empty, with zero rows
                empty = np.bincount(ids, minlength=slots) == 0
                assert empty.any()
                assert not kern.values[empty].any() and not kern.error[empty].any()
            counts = sphere_counts_all(q, d)
            for t in range(q):
                spec = sphere_spec(q, d, t)
                formula = sphere_spectrum_formula(spec).values
                gap = np.abs(formula - sphere_fourier_direct(spec).values)
                tol = kern.error[ids, t] + d * (q + 11) * eps * counts[t] / q**d
                assert (gap <= tol).all(), (q, d, t, gap.max())

    def test_scalar_against_direct(self):
        # within the formula kernel's error plus the transform's d passes
        q, d, t = 9, 3, 0
        eps = np.finfo(np.float64).eps
        sp = sphere_fourier_direct(sphere_spec(q, d, t))
        formula = sphere_spectrum_formula(sphere_spec(q, d, t))
        kern = _class_kernel(as_modulus(q), d, "formula")
        tol = kern.error[:, t].max() + d * (q + 11) * eps * sphere_counts_all(q, d)[t] / q**d
        for m in ((0, 0, 0), (1, 0, 0), (2, 5, 7), (8, 8, 8)):
            assert abs(formula[m] - sp.values[sp.index_of(m)]) <= tol

    def test_mean_value_example(self):
        assert abs(sphere_spectrum_formula(sphere_spec(3, 3, 1))[(0, 0, 0)] - 2 / 9) < 1e-12

    def test_scalar_matches_array_route(self):
        # the product formula term by term, from brute-force Gauss sums
        q, d, t = 5, 3, 3
        rows = [gauss.gauss_brute(s, np.arange(q), q) for s in range(q)]
        arr = sphere_spectrum_formula(sphere_spec(q, d, t))
        for m in ((0, 0, 0), (1, 2, 3), (4, 4, 1)):
            total = sum(
                np.exp(-2j * np.pi * s * t / q) * np.prod([rows[s][-mi % q] for mi in m])
                for s in range(q)
            )
            assert abs(total / q ** (d + 1) - arr[m]) < 1e-12

    def test_divisibility_gate(self):
        # s with a common factor g = (s, q) kills coordinates g does not divide
        from zqdist.gauss import gauss_general

        assert gauss_general(3, -1 % 9, 9).is_zero
        assert not gauss_general(3, -3 % 9, 9).is_zero

    def test_even_q_rejected(self):
        with pytest.raises(DomainError):
            sphere_spectrum_formula(sphere_spec(6, 3, 1))
        with pytest.raises(DomainError):
            sphere_spectrum(sphere_spec(6, 3, 1), "formula")

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            sphere_spectrum_formula(sphere_spec(3, 3, 1))[(0, 0)]


def decay_check(spec, route="direct"):
    return decay_report(spec, sphere_spectrum(spec, route))


class TestDecayBound:
    def test_z3_d3_frozen_bound(self):
        rep = decay_check(sphere_spec(3, 3, 1))
        assert abs(rep.bound - (1 / 3) * 2 * 3**-0.5) < 1e-12
        assert rep.ok and rep.ratio <= 1

    def test_z3_d4_frozen_bound(self):
        rep = decay_check(sphere_spec(3, 4, 0))
        assert abs(rep.bound - 2 / 9) < 1e-12
        assert rep.ok

    def test_sweep(self):
        for q in (3, 5, 9, 15):
            for t in range(q):
                for route in ("direct", "formula"):
                    rep = decay_check(sphere_spec(q, 3, t), route)
                    assert rep.ok, (q, t, route)

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            decay_check(sphere_spec(3, 2, 0))


class TestOrthogonalInvariance:
    def test_signed_permutations_fix_spheres(self):
        pts = set(sphere_enumerate(sphere_spec(5, 3, 2)))
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                image = {
                    tuple((s * p[i]) % 5 for s, i in zip(signs, perm)) for p in pts
                }
                assert image == pts


class TestIndicator:
    def test_indicator_matches_enumeration(self):
        spec = sphere_spec(7, 2, 3)
        ind = sphere_indicator(spec)
        members = set(sphere_enumerate(spec))
        for i, v in enumerate(ind.values):
            assert (ind.point_of(i) in members) == (v == 1.0)

    def test_direct_is_forward_of_indicator(self):
        spec = sphere_spec(5, 3, 1)
        a = sphere_fourier_direct(spec).values
        b = forward(sphere_indicator(spec)).values
        assert np.abs(a - b).max() == 0


# odd q (composite ones included) and d with q^d <= 10^5, and large primes
# q whose representatives have no zero coordinate (j = d)
CLASS_CASES = [
    (q, d)
    for q in (3, 5, 9, 15, 21, 25, 27, 45)
    for d in (1, 2, 3, 4)
    if q**d <= 10**5
] + [(101, 1), (101, 2), (251, 2)]


def sigma(q):
    return sum(h for h in range(1, q + 1) if q % h == 0)


class TestClassKernel:
    @pytest.mark.parametrize("q,d", CLASS_CASES)
    def test_direct_spectra_are_constant_on_classes(self, q, d):
        # the oracle: every full direct spectrum, binned by class
        eps = np.finfo(np.float64).eps
        kernels = {route: _class_kernel(as_modulus(q), d, route) for route in ("direct", "formula")}
        ids, slots = _class_ids(q, d, q), _class_count(q)  # the reference class of every frequency
        sizes = np.bincount(ids, minlength=slots)
        for kn in kernels.values():
            assert kn.values.shape == kn.error.shape == (slots, q)
            assert not kn.values[sizes == 0].any()  # an empty class has a zero row
        present = np.flatnonzero(sizes)
        if d >= 3:
            assert len(present) == sigma(q)
        assert sizes[0] == 1 and ids[0] == 0  # class 0 is m = 0 alone
        order = np.argsort(ids, kind="stable")
        bounds = np.cumsum(sizes)[:-1]
        counts = sphere_counts_all(q, d)
        for t in range(q):
            spectrum = sphere_fourier_direct(sphere_spec(q, d, t)).values
            # the transform's own rounding: d length-q passes, roots within 11 eps
            tol = d * (q + 11) * eps * counts[t] / q**d
            for c, members in enumerate(np.split(spectrum[order], bounds)):
                if members.size == 0:
                    continue
                assert np.abs(members - members[0]).max() <= 2 * tol, (t, c)
                for route, kn in kernels.items():
                    gap = np.abs(members - kn.values[c, t]).max()
                    assert gap <= kn.error[c, t] + tol, (route, t, c, gap)
            mags = np.abs(spectrum)
            mags[0] = 0.0
            for kn in kernels.values():
                assert abs(kn.chain[t] - mags.max()) <= kn.error[:, t].max() + tol

    @pytest.mark.parametrize("q,d", CLASS_CASES + [(3, 5), (5, 5), (7, 5), (9, 5), (3, 6), (5, 6)])
    def test_kernels_equal_grid_representative_kernels(self, q, d):
        # the reference: the first member in flat order of every class of the
        # whole grid, by np.minimum.at over all q^d frequencies; the kernels
        # from the padded Z_q^min(d, 3) members must match it bit for bit
        ids, slots = _class_ids(q, d, q), _class_count(q)
        first = np.full(slots, q**d)
        np.minimum.at(first, ids, np.arange(q**d))
        present = np.flatnonzero(np.bincount(ids, minlength=slots))
        reps = np.stack(np.unravel_index(first[present], (q,) * d), axis=1)
        small, small_present = sphere._class_representatives(q, d)
        assert np.array_equal(small_present, present)
        assert np.array_equal(small, reps)
        for route, build in (("direct", sphere._kernel_direct), ("formula", sphere._kernel_formula)):
            vals, err = build(q, d, reps, present)
            kern = _class_kernel(as_modulus(q), d, route)
            assert vals.shape == err.shape == (slots, q), route
            assert kern.values.tobytes() == vals.tobytes(), route
            assert kern.error.tobytes() == err.tobytes(), route

    @pytest.mark.parametrize("d", range(1, 7))
    def test_representatives_are_first_grid_members(self, d):
        # the reference: the first indices of np.unique over the whole-grid
        # class ids, for every odd q with q^d <= 10^6 (d = 1 stops where
        # d = 2 does, at q < 1000)
        for q in range(3, 1000, 2):
            if q ** max(d, 2) > 10**6:
                break
            ids = _class_ids(q, d, q)
            present, first = np.unique(ids, return_index=True)
            reps, reps_present = sphere._class_representatives(q, d)
            assert np.array_equal(reps_present, present), (q, d)
            grid_reps = np.stack(np.unravel_index(first, (q,) * d), axis=1)
            assert np.array_equal(reps, grid_reps), (q, d)

    def test_representatives_match_whole_z_q3_table(self):
        # the reference: the first members of the classes of all of Z_q^3,
        # binned in int64 with no orthant, padded with leading zeros for d > 3
        for q in range(3, 130, 2):
            squares = np.arange(q, dtype=np.int64) ** 2 % q
            ids = _class_ids_int64(q, 3, _form_flat_int64(q, [squares] * 3))
            present, first = np.unique(ids, return_index=True)
            tails = np.stack(np.unravel_index(first, (q,) * 3), axis=1)
            for d in range(3, 7):
                reps, reps_present = sphere._class_representatives(q, d)
                assert np.array_equal(reps_present, present), (q, d)
                assert not reps[:, : d - 3].any() and np.array_equal(reps[:, d - 3 :], tails), (q, d)

    def test_representatives_peak_is_the_orthant(self):
        # the classes are binned on the (q//2 + 1)^3 orthant, not on Z_q^3
        q = 211
        gc.collect()
        tracemalloc.start()
        try:
            sphere._class_representatives(q, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (q // 2 + 1) ** 3 + 2**20, peak

    def test_direct_kernel_enumerates_no_grid(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the direct kernel built a Z_q^j table")

        for q, d in ((45, 3), (15, 5), (101, 2), (1009, 1)):
            reps, present = sphere._class_representatives(q, d)
            monkeypatch.setattr(sphere, "_form_flat", forbidden)
            vals, err = sphere._kernel_direct(q, d, reps, present)
            monkeypatch.undo()
            assert vals.shape == err.shape == (sigma(q), q)

    def test_direct_kernel_peak_is_the_kernel(self):
        # _kernel_direct writes each class row into the sigma(q) x q arrays it
        # returns, so a prime q near the q x q limit holds no second copy
        tracemalloc.start()
        try:
            kern = sphere._build_class_kernel(3001, 1, "direct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (kern.values.nbytes + kern.error.nbytes), peak

    def test_kernel_cache_is_bounded(self):
        # fourier's rule for tables of Z_q: cached while q^2 <= 2^16, so 257
        # is rebuilt
        sphere._build_class_kernel.cache_clear()
        a = _class_kernel(as_modulus(45), 3)
        assert _class_kernel(as_modulus(45), 3) is a
        assert not a.values.flags.writeable and not a.error.flags.writeable
        info = sphere._build_class_kernel.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 1, 16)
        assert info.maxsize * fourier._CACHED_TABLE_ENTRIES <= 2**20
        b = _class_kernel(as_modulus(257), 1, "formula")
        assert _class_kernel(as_modulus(257), 1, "formula") is b  # shared while held
        gone = weakref.ref(b)
        del b
        gc.collect()
        assert gone() is None
        assert sphere._build_class_kernel.cache_info().currsize == 1

    def test_both_builders_return_real_kernels(self):
        for q, d in ((9, 3), (15, 2), (45, 3), (101, 1)):
            reps, present = sphere._class_representatives(q, d)
            for build in (sphere._kernel_direct, sphere._kernel_formula):
                vals, err = build(q, d, reps, present)
                assert vals.dtype == err.dtype == np.float64, (q, d, build.__name__)

    def test_imaginary_gauss_error_fails_the_formula_build(self, monkeypatch):
        # S_t^(m) is real: Gauss sums a relative 1e-9 off in the imaginary
        # direction leave imaginary parts far past the kernel's error bound
        real = gauss.gauss_row
        monkeypatch.setattr(sphere, "gauss_row", lambda a, n: real(a, n) * (1 + 1e-9j))
        for q, d in ((9, 3), (15, 4), (101, 1)):
            reps, present = sphere._class_representatives(q, d)
            with pytest.raises(InconsistencyError, match="imaginary part"):
                sphere._kernel_formula(q, d, reps, present)

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            _class_kernel(as_modulus(9), 3, "fft")

    def test_even_q_and_grid_budget(self):
        with pytest.raises(DomainError):
            _class_kernel(as_modulus(6), 3)
        with pytest.raises(BudgetError):
            _class_kernel(as_modulus(9), 3, max_grid=700)
        with pytest.raises(BudgetError):  # 3163^2 > 10^7: no q x q table is built
            _class_kernel(as_modulus(3163), 1)


def _form_flat_int64(q, tables):
    # reference: the int64 sums with a % on every pass
    acc = np.zeros(1, dtype=np.int64)
    for tbl in tables:
        acc = ((acc[:, None] + np.asarray(tbl, dtype=np.int64)[None, :]) % q).reshape(-1)
    return acc


def _class_ids_int64(q, d, norms):
    # reference: the slots written in int64, with no narrower dtype anywhere
    norms = np.asarray(norms, dtype=np.int64).reshape((q,) * d)
    ids = np.empty((q,) * d, dtype=np.int64)
    for g, n, offset in sphere._class_slots(q):
        ids[(slice(None, None, g),) * d] = offset + norms[(slice(0, n),) * d] % n
    return ids.reshape(-1)


class TestNarrowTables:
    @pytest.mark.parametrize("q,d,dtype", [
        (127, 3, np.uint8), (128, 3, np.uint8), (129, 3, np.uint16),
        (32767, 1, np.uint16), (32768, 1, np.uint16), (32769, 1, np.int64),
    ])
    def test_norms_at_the_width_edges(self, q, d, dtype):
        squares = np.arange(q, dtype=np.int64) ** 2 % q
        norms = sphere._norms(q, d, q)
        assert norms.dtype == dtype
        assert np.array_equal(norms, _form_flat_int64(q, [squares] * d))
        # every residue on the first two axes, so sums reach 2 q - 2
        tables = [np.arange(q), np.arange(q)[::-1], squares][:d]
        form = sphere._form_flat(q, tables)
        assert form.dtype == dtype
        assert np.array_equal(form, _form_flat_int64(q, tables))

    @pytest.mark.parametrize("q,d", [(3162, 2), (2000003, 1), (45, 4), (3, 14)])
    def test_norm_table_peak_is_the_table(self, q, d):
        # the squares are taken in place and the outer sums reduced in
        # blocks, with no full-size temporary beside the result; every block
        # equals the int64 reference
        gc.collect()
        tracemalloc.start()
        try:
            norms = sphere._norms(q, d, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * norms.nbytes, (peak, norms.nbytes)
        squares = np.arange(q, dtype=np.int64) ** 2 % q
        head = _form_flat_int64(q, [squares] * (d - 1))
        rows = norms.reshape(len(head), q)
        for lo in range(0, len(head), 256):
            block = (head[lo : lo + 256, None] + squares) % q
            assert np.array_equal(rows[lo : lo + 256], block), lo

    def test_large_norm_tables_are_not_kept(self):
        # 45^4 > 2^16 points: the norm table is shared while held, and neither
        # it nor the counts keep it once released; 9^5 points are kept
        assert sphere._norms(9, 5, 9) is sphere._norms(9, 5, 9)
        held = sphere._norms(45, 4, 45)
        counts = sphere_counts_all(45, 4)
        assert sphere._norms(45, 4, 45) is held
        gone = weakref.ref(held)
        del held
        gc.collect()
        assert gone() is None
        assert sphere_counts_all(45, 4) is counts  # 45 counts are kept

    def test_indicator_is_built_once(self):
        # the boolean comparison goes straight to GridFunction's complex copy
        q, d = 45, 3
        norms = sphere._norms(q, d, q)
        spec = sphere_spec(q, d, 1)
        tracemalloc.start()
        try:
            ind = sphere_indicator(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * q**d + 2**16, peak
        assert np.array_equal(ind.values, (norms == 1).astype(complex))

    def test_one_byte_a_point(self):
        assert sphere._norms(27, 4, 27).nbytes == 27**4
        ids, slots = _class_ids(45, 4, 45), _class_count(45)
        assert slots == 78 and ids.nbytes == 45**4

    @pytest.mark.parametrize("q,d,dtype", [
        (105, 3, np.uint8),  # sigma = 192: the first members come from a radix sort
        (165, 3, np.uint16),  # sigma = 288: slots past one byte
        (120, 3, np.uint16),  # sigma = 360 over one-byte norms: the cast comes first
        (27720, 1, np.int64),  # sigma = 112320 over two-byte norms
        (45045, 1, np.int64),  # sigma = 104832 past two bytes
    ])
    def test_class_ids_width(self, q, d, dtype):
        norms = sphere._norms(q, d, q)
        ids = sphere._class_ids(q, d, q)
        assert ids.dtype == dtype
        assert int(ids.max()) < sigma(q)
        assert np.array_equal(ids, _class_ids_int64(q, d, norms))
        # the orthant table is the whole grid's on [0, q // 2]^d
        orthant = sphere._class_ids(q, d, q // 2 + 1)
        assert orthant.dtype == dtype
        on_orthant = ids.reshape((q,) * d)[(slice(0, q // 2 + 1),) * d]
        assert np.array_equal(orthant, on_orthant.reshape(-1))

    def test_orthant_tables_are_the_grid_tables_on_the_orthant(self):
        # one builder for both boxes: the orthant's norm table is the whole
        # grid's on [0, q // 2]^d for every q <= 64, odd and even, and every d
        # with q^d <= 10^5, and so is the class table for odd q
        for q in range(2, 65):
            h = q // 2 + 1
            builders = (sphere._norms, sphere._class_ids) if q % 2 else (sphere._norms,)
            for d in itertools.takewhile(lambda d: q**d <= 10**5, itertools.count(1)):
                for build in builders:
                    grid = build(q, d, q).reshape((q,) * d)
                    orthant = build(q, d, h)
                    assert orthant.dtype == grid.dtype and not orthant.flags.writeable
                    on_orthant = grid[(slice(0, h),) * d].reshape(-1)
                    assert np.array_equal(orthant, on_orthant), (build.__name__, q, d)

    @pytest.mark.parametrize("q", [1, 2, 9, 45, 3001, 65537])
    def test_one_square_table(self, q):
        # x^2 mod q in int64, read-only: the norm tables take their axes from it
        squares = sphere._squares(q)
        assert squares.dtype == np.int64 and not squares.flags.writeable
        assert np.array_equal(squares, np.arange(q, dtype=np.int64) ** 2 % q)


class TestGaussTable:
    def test_render_error_within_kernel_constants(self):
        # _kernel_formula and the CLI's Gauss tolerance assume each rendered
        # G(s, b, n) is within 2 eps of |G| of its exact value for b = 0 and
        # within 16 eps otherwise; checked for both renderings, gauss_row's
        # table and GaussSumValue.complex_render, for every n <= 150, even n
        # included.  G(s, -b, n) = G(s, b, n) (x -> -x), and the table
        # renders the two alike, so b runs over [0, n // 2].
        eps = np.finfo(np.float64).eps
        worst = {True: 0.0, False: 0.0}
        exact = {}
        with mpmath.workdps(30):
            for n in range(1, 151):
                tbl = gauss.gauss_row(np.arange(n), n)
                assert np.array_equal(tbl[:, 1:], tbl[:, :0:-1]), n
                seen = set()
                for s, b in itertools.product(range(n), range(n // 2 + 1)):
                    v = gauss.gauss_general(s, b, n)
                    z = complex(tbl[s, b])
                    if v.is_zero:
                        assert z == 0 and v.complex_render == 0, (n, s, b)
                        continue
                    if (b == 0, v, z) in seen:  # the same rendering of the same value
                        continue
                    seen.add((b == 0, v, z))
                    if v not in exact:
                        mag = v.scale * mpmath.sqrt(v.surd)
                        turn = mpmath.mpf(v.phase.numerator) / v.phase.denominator
                        value = mag * mpmath.mpc(*v.unit) * mpmath.expjpi(2 * turn)
                        err = float(abs(mpmath.mpc(v.complex_render) - value) / mag) / eps
                        exact[v] = value, mag
                        worst[not v.phase] = max(worst[not v.phase], err)  # b = 0: no phase
                    value, mag = exact[v]
                    err = float(abs(mpmath.mpc(z) - value) / mag) / eps
                    worst[b == 0] = max(worst[b == 0], err)
        assert worst[True] <= 2 and worst[False] <= 16, worst

    def test_one_gauss_row_call(self, monkeypatch):
        # the formula kernel reads its q x q table of Gauss sums from one call
        calls = []
        real = gauss.gauss_row

        def counted(a, n):
            calls.append((np.array(a), n))
            return real(a, n)

        def forbidden(*args):
            raise AssertionError("gauss_general called by the table")

        monkeypatch.setattr(sphere, "gauss_row", counted)
        monkeypatch.setattr(gauss, "gauss_general", forbidden)
        vals, _ = sphere._kernel_formula(15, 3, *sphere._class_representatives(15, 3))
        assert len(calls) == 1 and calls[0][1] == 15
        assert np.array_equal(calls[0][0], np.arange(15))
        assert vals.shape == (sigma(15), 15)

    def test_formula_sweep_keeps_no_table(self):
        # the q x q table of Z_1009 is 16 MB; the formula kernel (sigma(q) q
        # values) is past the kernel cache, so nothing of either outlives the sweep
        E = distset.sample_random_set(1009, 1, 500, seed=1)
        sphere._build_class_kernel.cache_clear()
        tracemalloc.start()
        try:
            distset.nu_spectral_sweep(E, "formula")
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left < 2**20, left

    def test_table_equals_stacked_rows(self):
        for q in range(1, 100, 2):
            rows = np.stack([gauss.gauss_row(s, q) for s in range(q)])
            assert gauss.gauss_row(np.arange(q), q).tobytes() == rows.tobytes(), q
