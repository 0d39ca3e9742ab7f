import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqdist.arith import jacobi
from zqdist.cli import _gauss_tol
from zqdist.errors import BudgetError, DomainError
from zqdist.fourier import DEFAULT_GRID_BUDGET, character_table
from zqdist.gauss import GaussSumValue, gauss_brute, gauss_closed, gauss_general, gauss_row

EPS = float(np.finfo(np.float64).eps)
# One rendering of a closed form, relative to |G|: complex_render's 16 eps, as
# cli._gauss_tol charges it.  A cmath reference e^{2 pi i s / n} u sqrt(n)
# is charged 24 eps: its argument takes three roundings below 2 pi (6 pi eps
# < 19 eps), the exponential and the two products at most 5 eps more.
RENDER = 16 * EPS
CMATH_REF = 24 * EPS


def direct_sum(a: int, b: int, n: int) -> complex:
    # independent oracle: plain cmath sum, no shared code with gauss_brute
    return sum(cmath.exp(2j * cmath.pi * ((a * x * x + b * x) % n) / n) for x in range(n))


def brute_tol(n: int) -> float:
    """gauss_brute's docstring bound, (sqrt(2) (n + 2) + 22) eps n, plus
    17 n eps for ``definition``."""
    return (math.sqrt(2) * (n + 2) + 22 + 17) * EPS * n


def definition(pairs_a, pairs_b, n: int) -> np.ndarray:
    """G(a, b, n) for each a in pairs_a (down) and b in pairs_b (across): the
    n terms cos and sin of 2 pi k / n, k = a x^2 + b x mod n exact, each from
    math (within 11 eps), summed by math.fsum, so within 17 n eps in all."""
    cos = np.array([math.cos(2 * math.pi * k / n) for k in range(n)])
    sin = np.array([math.sin(2 * math.pi * k / n) for k in range(n)])
    x = np.arange(n, dtype=np.int64)
    out = np.empty((len(pairs_a), len(pairs_b)), dtype=np.complex128)
    for i, a in enumerate(pairs_a):
        for j, b in enumerate(pairs_b):
            k = (a % n * x * x + b % n * x) % n
            out[i, j] = complex(math.fsum(cos[k]), math.fsum(sin[k]))
    return out


# The closed-form checks, as functions of their range, so that a test below
# can run each one against a perturbed rendering.


def check_closed_against_brute(n_max: int) -> None:
    for n in range(1, n_max):
        for a in range(n if n > 1 else 1):
            if n > 1 and math.gcd(a, n) != 1:
                continue
            diff = abs(gauss_closed(a, n).complex_render - gauss_brute(a, 0, n))
            assert diff < _gauss_tol(n), (n, a, diff)


def check_general_against_brute(n_max: int) -> None:
    for n in range(1, n_max):
        tol = _gauss_tol(n)
        for a in range(n):
            for b in range(n):
                diff = abs(gauss_general(a, b, n).complex_render - gauss_brute(a, b, n))
                assert diff < tol, (n, a, b, diff)


def check_completing_the_square(n_max: int) -> None:
    # odd n, gcd(a, n) = 1: G(a, b, n) = e^{-2 pi i b^2 (4a)^{-1}/n} eps_n (a/n) sqrt(n),
    # the right side in cmath; |G| = sqrt(n)
    for n in range(3, n_max, 2):
        eps_n = 1 if n % 4 == 1 else 1j
        tol = (RENDER + CMATH_REF) * math.sqrt(n)
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            base = eps_n * jacobi(a, n) * math.sqrt(n)
            for b in range(n):
                shift = (-b * b * pow(4 * a, -1, n)) % n
                expected = cmath.exp(2j * cmath.pi * shift / n) * base
                diff = abs(gauss_general(a, b, n).complex_render - expected)
                assert diff < tol, (n, a, b, diff)


def check_crt_multiplicativity(pairs) -> None:
    # for coprime odd n1, n2: G(a, n1 n2) = G(a n2, n1) G(a n1, n2).  The
    # product of two renderings is within 2 RENDER |G| and its own rounding
    # (sqrt(2) eps |G| for each of the two real products, 3 eps in all)
    for n1, n2 in pairs:
        n = n1 * n2
        tol = (3 * RENDER + 3 * EPS) * math.sqrt(n)
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            whole = gauss_general(a, 0, n).complex_render
            split = gauss_general(a * n2, 0, n1).complex_render * gauss_general(a * n1, 0, n2).complex_render
            assert abs(whole - split) < tol, (n1, n2, a)
            assert abs(whole - gauss_brute(a, 0, n)) < _gauss_tol(n), (n1, n2, a)


def check_agreement(n: int, a: int, b: int) -> None:
    assert abs(gauss_general(a, b, n).complex_render - gauss_brute(a, b, n)) < _gauss_tol(n)


class TestBrute:
    def test_frozen_values(self):
        # G(1, 0, 3) = 1 + 2 e^{2 pi i / 3} = i sqrt(3): squares mod 3 are 0, 1, 1
        expected = 1 + 2 * cmath.exp(2j * cmath.pi / 3)
        assert abs(gauss_brute(1, 0, 3) - expected) < 1e-12
        assert abs(gauss_brute(1, 0, 3) - 1j * math.sqrt(3)) < 1e-12
        # G(1, 0, 5): squares mod 5 are 0, 1, 4, 4, 1
        expected = 1 + 2 * cmath.exp(2j * cmath.pi / 5) + 2 * cmath.exp(8j * cmath.pi / 5)
        assert abs(gauss_brute(1, 0, 5) - expected) < 1e-12
        assert abs(gauss_brute(1, 0, 5) - math.sqrt(5)) < 1e-12
        # n = 2 (mod 4) vanishes
        assert abs(gauss_brute(1, 0, 2)) < 1e-12

    def test_matches_plain_sum(self):
        for n in range(1, 30):
            for a in range(n):
                for b in range(n):
                    assert abs(gauss_brute(a, b, n) - direct_sum(a, b, n)) < 1e-9 * max(n, 1)

    def test_array_b_matches_plain_sum(self):
        for n in range(1, 31):
            for a in range(n):
                row = gauss_brute(a, np.arange(n), n)
                assert row.shape == (n,)
                for b in range(n):
                    assert abs(row[b] - direct_sum(a, b, n)) < 1e-9 * n
        grid = np.array([[-3, 40], [7, 10**6]])
        out = gauss_brute(5, grid, 12)
        assert out.shape == (2, 2)
        for b, z in zip(grid.ravel(), out.ravel()):
            assert abs(z - direct_sum(5, int(b), 12)) < 1e-9 * 12

    def test_array_a_matches_double_loop(self):
        # every x summed one term at a time: cmath terms, math.fsum; the worst
        # |grid - fsum| over n <= 30 is 0.11 of the (n + 12) eps n asserted here
        eps = np.finfo(np.float64).eps
        for n in range(1, 31):
            grid = gauss_brute(np.arange(n)[:, None], np.arange(n), n)
            assert grid.shape == (n, n)
            for a in range(n):
                for b in range(n):
                    terms = [cmath.exp(2j * cmath.pi * ((a * x * x + b * x) % n) / n)
                             for x in range(n)]
                    ref = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
                    assert abs(grid[a, b] - ref) <= (n + 12) * eps * n, (n, a, b)

    def test_array_a_blocks_equal_single_rows(self):
        # n = 300 splits the table into 2 x 2 blocks of up to 2^16 // n = 218
        # rows and columns; each row asked on its own is one 1 x 300 product.
        # Both lie within the bound of the definition, so within twice it of
        # each other
        n = 300
        grid = gauss_brute(np.arange(n)[:, None], np.arange(n), n)
        rows = np.stack([gauss_brute(a, np.arange(n), n) for a in range(n)])
        assert np.abs(grid - rows).max() <= 2 * brute_tol(n)
        edges = [0, 217, 218, 299]
        assert np.abs(grid[np.ix_(edges, edges)] - definition(edges, edges, n)).max() <= brute_tol(n)

    def test_array_a_broadcasts(self):
        big = 2**70 + 3
        out = gauss_brute([[big], [-big], [5]], np.array([0, 1, 7, 10**6]), 12)
        assert out.shape == (3, 4)
        for i, a in enumerate((big, -big, 5)):
            for j, b in enumerate((0, 1, 7, 10**6)):
                assert abs(out[i, j] - direct_sum(a % 12, b % 12, 12)) < 1e-9 * 12, (a, b)

    def test_huge_scalar_arguments(self):
        big = 10**30
        assert abs(gauss_brute(big + 3, big, 7) - direct_sum((big + 3) % 7, big % 7, 7)) < 1e-9 * 7

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            gauss_brute(1, 0, 0)

    def test_rejects_n_past_grid_budget(self):
        # checked before any Z_n array exists
        with pytest.raises(BudgetError):
            gauss_brute(3, 5, DEFAULT_GRID_BUDGET + 1)

    @pytest.mark.parametrize("n", [7, 64, 65, 130, 1031])
    def test_scattered_pairs_equal_grid_entries(self, n):
        # scattered pairs, each asked as a scalar, match the table's entries
        # within twice the bound (both lie within it of the definition); the
        # pairs repeat, sit on the last row and column and come as negative
        # and huge Python ints.  Asked elementwise in one call they are refused
        rng = np.random.default_rng(n)
        a = rng.integers(0, n, size=(5, 7))
        b = rng.integers(0, n, size=(5, 7))
        a[0, :3] = b[0, :3] = n - 1
        a[1, 1], b[1, 1] = a[1, 0], b[1, 0]
        if n == 1031:  # the table rows of the a that occur, one call for them all
            occur = sorted(set(a.ravel().tolist()))
            grid = np.zeros((n, n), dtype=np.complex128)
            grid[occur] = gauss_brute(np.array(occur)[:, None], np.arange(n), n)
        else:
            grid = gauss_brute(np.arange(n)[:, None], np.arange(n), n)
        ref = grid[a, b]
        big = 2**70 * n
        for i, j in np.ndindex(a.shape):
            x, y = int(a[i, j]), int(b[i, j])
            for got in (gauss_brute(x, y, n), gauss_brute(x - big, y + 3 * big, n)):
                assert abs(got - ref[i, j]) <= 2 * brute_tol(n), (x, y)
        with pytest.raises(DomainError):
            gauss_brute(a, b, n)

    @staticmethod
    def check_call_shapes(n):
        """A column of a against a row of b, as Python ints, as numpy arrays
        and nested one axis deeper; each row, each column and each pair on its
        own; for n <= 300 the whole table too: every value lies within the
        docstring's bound of the definition, on unsorted, repeated, negative
        and past-2^63 Python-int residues.  Returns the residues."""
        big = 2**70 * n
        a = [n - 1, 3, -2, 3, big + 5, 0, -big - 1]
        b = [5, n - 1, -1, 5, 2 * big + 2, 1, n // 2, 3 * n]
        res_a, res_b = np.array([x % n for x in a]), np.array([y % n for y in b])
        column = [[x] for x in a]
        outer = gauss_brute(column, b, n)
        calls = [
            outer,
            gauss_brute(res_a[:, None], res_b, n),
            gauss_brute(res_a.reshape(7, 1, 1), res_b, n).reshape(7, 8),
            np.stack([gauss_brute(x, b, n) for x in a]),
            np.hstack([gauss_brute(column, y, n) for y in b]),
            np.array([[gauss_brute(x, y, n) for y in b] for x in a]),
        ]
        if n <= 300:
            x = np.arange(n)
            calls.append(gauss_brute(x[:, None], x, n)[np.ix_(res_a, res_b)])
        ref = definition(res_a.tolist(), res_b.tolist(), n)
        for got in calls:
            assert got.shape == (7, 8)
            assert np.abs(got - ref).max() <= brute_tol(n)
        assert isinstance(gauss_brute(a[0], b[0], n), complex)
        assert gauss_brute(column, b, n).tobytes() == outer.tobytes()  # the same call, the same bits
        return res_a, res_b

    @pytest.mark.parametrize("n", [1, 2, 256, 257, 300])
    def test_call_shapes_agree_within_bound(self, n):
        # n = 256 is the last whole table that is one product, n = 257 the
        # first whose table splits into blocks
        self.check_call_shapes(n)

    @pytest.mark.parametrize("n", [7, 70, 1031, 32771])
    def test_outer_requests_equal_scalar_and_per_pair_calls(self, n):
        # a column against a row agrees with the row and scalar calls within
        # the bound; the same pairs spelled out in full, one a and one b per
        # entry, are refused rather than taken pair by pair
        res_a, res_b = self.check_call_shapes(n)
        pairs_a, pairs_b = (v.copy() for v in np.broadcast_arrays(res_a[:, None], res_b))
        with pytest.raises(DomainError):
            gauss_brute(pairs_a, pairs_b, n)

    @pytest.mark.parametrize("n", [70, 1031])
    def test_ragged_edge_tiles_agree_across_call_shapes(self, n):
        # blocks of 2^16 // n rows and columns do not divide n: the last block
        # is narrower (n = 1031: 16 blocks of 63 and one of 23; n = 70: the
        # one block is the whole table).  The rows and columns on both sides
        # of its first edge and the table's last, asked as a table, row by
        # row, column by column and pair by pair, lie within the bound
        step = max(1, 2**16 // n)
        assert n % step
        last = (n - 1) // step * step
        edge = sorted({max(0, last - 2), max(0, last - 1), last, n - 1})
        a = np.array(edge + [0])
        ref = definition(a.tolist(), edge, n)
        grid = gauss_brute(a[:, None], np.arange(n), n)[:, edge]
        rows = np.stack([gauss_brute(x, edge, n) for x in a.tolist()])
        cols = np.hstack([gauss_brute(a[:, None], y, n) for y in edge])
        pairs = np.array([[gauss_brute(x, y, n) for y in edge] for x in a.tolist()])
        for got in (grid, rows, cols, pairs):
            assert np.abs(got - ref).max() <= brute_tol(n)
        for x, y in [(n - 1, n - 1), (0, n - 1), (n - 1, 0)]:
            assert abs(gauss_brute(x, y, n) - direct_sum(x, y, n)) < _gauss_tol(n)

    def test_unit_tiles(self):
        # n > 2^15 has blocks of one row and one column: each value is one dot
        # product of length n, in a row, a column or on its own
        n = 32771
        assert 2**16 // n == 1
        b = [3, 17000, n - 1]
        ref = definition([7], b, n)[0]
        row = gauss_brute(7, b, n)
        for got in (row, [gauss_brute(7, y, n) for y in b], gauss_brute([[7]], b, n)[0],
                    gauss_brute([[7], [7], [7]], b, n)[1]):
            assert np.abs(np.asarray(got) - ref).max() <= brute_tol(n)
        assert abs(row[0] - direct_sum(7, 3, n)) < _gauss_tol(n)

    def test_elementwise_request_is_refused(self):
        # only outer products are taken: a scalar on either side, or a
        # (..., 1) array of a against a 1-D b
        x = np.arange(5)
        for a, b in [(x, x), (x.reshape(5, 1), x.reshape(1, 5)), (x[:, None], x[None, :, None]),
                     ([[1, 2]], [3, 4]), (x[:, None], np.zeros((0, 2), dtype=int))]:
            with pytest.raises(DomainError):
                gauss_brute(a, b, 7)
        assert gauss_brute(4, np.arange(0), 7).shape == (0,)
        assert gauss_brute(np.zeros((0, 1), dtype=int), x, 7).shape == (0, 5)
        assert gauss_brute(x.reshape(1, 5), 2, 7).shape == (1, 5)
        assert gauss_brute(x[:1], x, 7).shape == (5,)

    def test_row_drops_each_column_after_use(self):
        # a row of Z_3001 is one chirp row against 143 blocks of 2^16 // n = 21
        # linear columns, each dropped when the next is built: the traced peak
        # stays near one block (2^16 roots and their int64 phases)
        n = 3001
        character_table(n)
        tracemalloc.start()
        try:
            row = gauss_brute(5, np.arange(n), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak
        edges = [0, 20, 21, 2981, 2982, 3000]  # block edges and the ragged last block of 19
        assert np.abs(row[edges] - definition([5], edges, n)[0]).max() <= brute_tol(n)

    def test_two_rows_peak_within_blocks(self):
        # two rows of Z_3001 are one block of chirp rows against 143 blocks of
        # 21 columns: the traced peak is the result and the chirp rows (2 x n
        # roots each), one block of at most 2^16 roots with its int64 phases,
        # and one int64 Z_n, plus 64 KiB of small objects
        n = 3001
        a = np.array([[5], [2999]])
        character_table(n)
        tracemalloc.start()
        try:
            got = gauss_brute(a, np.arange(n), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * 16 * a.size * n + (16 + 8) * 2**16 + 8 * n + 2**16
        assert peak <= bound, (peak, bound)
        edges = [0, 20, 21, 2981, 2982, 3000]
        assert np.abs(got[:, edges] - definition([5, 2999], edges, n)).max() <= brute_tol(n)

    def test_scalar_peak_memory(self):
        # n > 2^16 has blocks of one row and one column: one chirp row, one linear column, their dot
        n = 1000003
        tbl = character_table(n)  # held, so the call shares it and builds none
        tracemalloc.start()
        try:
            gauss_brute(3, 5, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 46 * 2**20, peak
        assert character_table(n) is tbl

    def test_rounding_bound_against_50_digits(self):
        # every table root is within 11 eps of e^{2 pi i k / n}, and every
        # G(a, b, n) within the docstring's (sqrt(2) (n + 2) + 22) eps n of
        # the definition evaluated to 50 digits: the exact multiplicities of
        # each residue k times cos and sin of 2 pi k / n, as 10^-50 integers
        eps = np.finfo(np.float64).eps
        scale = 10**50
        with mpmath.workdps(60):
            for n in range(1, 41):
                tbl = character_table(n)
                roots = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
                for k, r in enumerate(roots):
                    assert abs(mpmath.mpc(tbl[k].real, tbl[k].imag) - r) <= 11 * eps, (n, k)
                re = np.array([int(mpmath.nint(r.real * scale)) for r in roots], dtype=object)
                im = np.array([int(mpmath.nint(r.imag * scale)) for r in roots], dtype=object)
                x = np.arange(n)
                k = (x[:, None, None] * (x * x) + x[:, None] * x) % n  # k[a, b, x]
                counts = np.zeros((n, n, n), dtype=np.int64)  # counts[a, b, k]
                np.add.at(counts, (x[:, None, None], x[:, None], k), 1)
                exact_re = counts.astype(object) @ re
                exact_im = counts.astype(object) @ im
                grid = gauss_brute(x[:, None], x, n)
                bound = (math.sqrt(2) * (n + 2) + 22) * eps * n
                for a in range(n):
                    for b in range(n):
                        err = abs(mpmath.mpc(grid[a, b].real, grid[a, b].imag)
                                  - mpmath.mpc(exact_re[a, b], exact_im[a, b]) / scale)
                        assert err <= bound, (n, a, b, float(err), bound)


class TestClosed:
    def test_odd_branch(self):
        v = gauss_closed(1, 3)
        assert abs(v.complex_render - 1j * math.sqrt(3)) < 1e-12
        assert v.magnitude_sq == 3
        v = gauss_closed(1, 5)
        assert abs(v.complex_render - math.sqrt(5)) < 1e-12
        assert v.magnitude_sq == 5

    def test_mod4_branch(self):
        # (1+i) eps_3^{-1} (4/3) sqrt(4) = (1+i)(-i)(1)(2) = 2 - 2i
        v = gauss_closed(3, 4)
        assert abs(v.complex_render - (2 - 2j)) < 1e-12
        assert v.magnitude_sq == 8  # |G(a, n)|^2 = 2n for n = 0 (mod 4)
        assert abs(gauss_closed(1, 4).complex_render - (2 + 2j)) < 1e-12

    def test_mod2_branch(self):
        v = gauss_closed(1, 2)
        assert v.is_zero
        assert v.magnitude_sq == 0
        assert v.complex_render == 0

    def test_magnitudes(self):
        # |G(a, n)| = sqrt(n) for odd n, sqrt(2n) for n = 0 (mod 4), 0 for n = 2 (mod 4)
        for n in range(1, 80):
            for a in range(n if n > 1 else 1, 0, -1):
                if math.gcd(a, n) != 1:
                    continue
                m2 = gauss_closed(a, n).magnitude_sq
                if n % 2 == 1:
                    assert m2 == n
                elif n % 4 == 2:
                    assert m2 == 0
                else:
                    assert m2 == 2 * n
                break

    def test_noncoprime_rejected(self):
        with pytest.raises(DomainError):
            gauss_closed(2, 6)

    def test_against_brute(self):
        check_closed_against_brute(60)


class TestGeneral:
    def test_gate_examples(self):
        assert gauss_general(2, 1, 6).is_zero  # (2, 6) = 2 does not divide 1
        v = gauss_general(2, 4, 6)  # 2 G(1, 2, 3) = 3 - i sqrt(3)
        assert abs(v.complex_render - (3 - 1j * math.sqrt(3))) < 1e-12
        assert abs(v.complex_render - gauss_brute(2, 4, 6)) < 1e-12
        for n in (1, 2, 7, 12):
            assert abs(gauss_general(0, 0, n).complex_render - n) < 1e-12
        assert gauss_general(0, 3, 7).is_zero

    def test_oracle_equivalence_sweep(self):
        check_general_against_brute(46)

    def test_completing_the_square(self):
        check_completing_the_square(36)

    def test_crt_multiplicativity(self):
        check_crt_multiplicativity(((3, 5), (3, 7), (5, 9), (7, 9), (9, 25)))

    def test_even_modulus_linear_term_exact(self):
        v = gauss_general(1, 1, 8)
        assert v.is_zero and v.magnitude_sq == 0
        assert v.complex_render == 0
        assert abs(gauss_brute(1, 1, 8)) < 1e-12
        # e^{-2 pi i / 8} G(1, 8) = (1 - i) / sqrt(2) * (1 + i) sqrt(8) = 4
        w = gauss_general(1, 2, 8)
        assert (w.scale, w.surd, w.unit, w.phase) == (1, 8, (1, 1), Fraction(7, 8))
        assert abs(w.complex_render - 4) < 1e-12
        assert abs(w.complex_render - gauss_brute(1, 2, 8)) < 1e-12

    @pytest.mark.parametrize(
        "a, b, n",
        [(1, 2, 8), (3, 6, 16), (5, 10, 64), (6, 4, 24), (7, 2, 12), (1, 4, 6)],
    )
    def test_even_linear_term_completes_the_square(self, a, b, n):
        g = math.gcd(a, n)
        assert (n // g) % 2 == 0 and (b // g) % 2 == 0 and b % n
        assert abs(gauss_general(a, b, n).complex_render - gauss_brute(a, b, n)) < 1e-12 * n

    @pytest.mark.parametrize("a, b, n", [(1, 1, 4), (1, 1, 8), (3, 5, 64), (2, 2, 16), (2, 6, 24)])
    def test_odd_linear_term_vanishes_mod4(self, a, b, n):
        g = math.gcd(a, n)
        assert (n // g) % 4 == 0 and (b // g) % 2 == 1
        assert gauss_general(a, b, n).is_zero
        assert abs(gauss_brute(a, b, n)) < 1e-12 * n

    @pytest.mark.parametrize(
        "a, b, n", [(1, 1, 2), (1, 3, 6), (3, 5, 14), (2, 6, 20), (5, 7, 62), (9, 27, 54)]
    )
    def test_odd_linear_term_mod2_halves(self, a, b, n):
        # G(a', b', 2m) = 2 G(2a', b', m) for odd m: |G|^2 = 4 g^2 m
        g = math.gcd(a, n)
        assert (n // g) % 4 == 2 and (b // g) % 2 == 1
        v = gauss_general(a, b, n)
        assert v.magnitude_sq == 4 * g * g * (n // g // 2)
        assert abs(v.complex_render - gauss_brute(a, b, n)) < 1e-12 * n

    def test_numeric_magnitude_coerces(self):
        assert gauss_general(1, 2, 8).magnitude_sq == 16
        assert gauss_general(2, 4, 16).magnitude_sq == 64

    def test_zero_iff_render_small(self):
        for n in range(1, 40):
            for a in range(n):
                for b in range(n):
                    v = gauss_general(a, b, n)
                    assert v.is_zero == (abs(v.complex_render) < 1e-9 * math.sqrt(n))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 120),
        a=st.integers(-500, 500),
        b=st.integers(-500, 500),
    )
    def test_random_agreement(self, n, a, b):
        check_agreement(n, a, b)


class TestTolerances:
    @pytest.mark.parametrize("check", [
        lambda: check_closed_against_brute(8),
        lambda: check_general_against_brute(8),
        lambda: check_completing_the_square(8),
        lambda: check_crt_multiplicativity(((3, 5),)),
        lambda: check_agreement(7, 3, 2),
        lambda: check_agreement(1, 0, 0),
    ])
    def test_relative_render_error_fails(self, monkeypatch, check):
        # the checks above allow only the rounding of each side: a rendering
        # off by a relative 1e-9 fails every one of them
        check()
        real = GaussSumValue.complex_render.fget
        monkeypatch.setattr(GaussSumValue, "complex_render",
                            property(lambda v: real(v) * (1 + 1e-9)))
        with pytest.raises(AssertionError):
            check()


def check_rows_against_scalar_render(rows, n):
    # each entry is within 4 eps of |G| = scale sqrt(surd) of the symbolic
    # value's own rendering, and exactly 0 wherever that value is zero
    eps = np.finfo(np.float64).eps
    assert rows.shape == (n, n) and rows.dtype == np.complex128
    for a, row in enumerate(rows):
        vals = [gauss_general(a, b, n) for b in range(n)]
        rendered = np.array([v.complex_render for v in vals])
        size = np.array([v.scale * math.sqrt(v.surd) for v in vals])
        assert np.all(np.abs(row - rendered) <= 4 * eps * size), (n, a)
        zero = np.array([v.is_zero for v in vals])
        assert np.all(row[zero] == 0), (n, a)


class TestRow:
    def test_matches_scalar_render(self):
        for n in range(1, 100):
            check_rows_against_scalar_render(np.stack([gauss_row(a, n) for a in range(n)]), n)

    @pytest.mark.parametrize("n", [128, 210, 256, 300])
    def test_class_rows_match_scalar_render_past_100(self, n):
        # 2^7 and 2^8 put every 4 | n' class on the even progression, 210 =
        # 2 3 5 7 has eight classes on the odd one; one call renders every row
        check_rows_against_scalar_render(gauss_row(np.arange(n), n), n)

    def test_small_moduli_and_zero_a(self):
        for a in (0, 1, 5, -3):
            assert np.array_equal(gauss_row(a, 1), [1.0])
        for a in (0, 12, -24):
            expected = np.zeros(12, dtype=np.complex128)
            expected[0] = 12
            assert np.array_equal(gauss_row(a, 12), expected)

    def test_huge_and_negative_a(self):
        big = 2**70 + 3
        for n in (7, 12, 30, 64):
            assert np.array_equal(gauss_row(big, n), gauss_row(big % n, n))
            assert np.array_equal(gauss_row(-big, n), gauss_row(-big % n, n))
            assert np.abs(gauss_row(big, n) - gauss_brute(big, np.arange(n), n)).max() < 1e-12 * n

    def test_array_a_equals_stacked_rows(self):
        for n in (*range(1, 100), 128, 210, 256, 300, 1155):
            rows = np.stack([gauss_row(a, n) for a in range(n)])
            assert gauss_row(np.arange(n), n).tobytes() == rows.tobytes(), n
        big = 2**70 + 3
        for n in (7, 12, 30, 64):
            out = gauss_row([big, -big], n)  # Python ints, reduced before any int64 array
            assert out.shape == (2, n)
            rows = np.stack([gauss_row(big % n, n), gauss_row(-big % n, n)])
            assert out.tobytes() == rows.tobytes()
        grid = gauss_row(np.arange(12).reshape(3, 4), 12)
        assert grid.shape == (3, 4, 12)
        assert grid.tobytes() == gauss_row(np.arange(12), 12).tobytes()
        assert gauss_row(np.arange(0), 5).shape == (0, 5)

    def test_rejects_bad_n(self):
        for n in (0, -5):
            with pytest.raises(DomainError):
                gauss_row(1, n)

    def test_refused_past_the_grid_budget_before_allocating(self):
        # one row of Z_(10^12) would take 14.6 TiB; 10001 rows of Z_1000 pass
        # the budget only as a whole output (10^7 entries are allowed)
        many = np.zeros(10**4 + 1, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                gauss_row(1, 10**12)
            with pytest.raises(BudgetError):
                gauss_row(many, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    def test_class_blocks_bound_the_peak(self):
        # the 1008 rows of the unit class render in blocks of at most 2^17
        # entries: the output and at most 4 MiB of temporaries besides
        n = 1009
        a = np.arange(n)
        tracemalloc.start()
        try:
            gauss_row(a, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * n + 4 * 2**20, peak


class TestIntegerArguments:
    def test_numpy_integers_give_the_python_int_values(self):
        # pow(a, -1, n) in the reduction takes only Python ints
        assert gauss_row(np.arange(5), np.int64(5)).tobytes() == gauss_row(np.arange(5), 5).tobytes()
        assert gauss_row(3, np.int64(12)).tobytes() == gauss_row(3, 12).tobytes()
        assert gauss_general(3, 1, np.int64(5)) == gauss_general(3, 1, 5)
        assert gauss_general(np.int64(3), np.int32(1), 5) == gauss_general(3, 1, 5)
        assert gauss_closed(np.int64(3), np.uint8(5)) == gauss_closed(3, 5)
        assert gauss_brute(np.int64(3), 1, np.int64(5)) == gauss_brute(3, 1, 5)

    @pytest.mark.parametrize("call", [
        lambda: gauss_general(3.0, 1, 5),
        lambda: gauss_general(3, 1, 5.0),
        lambda: gauss_general(3, Fraction(1, 2), 5),
        lambda: gauss_closed(3, 5.0),
        lambda: gauss_row(3, 12.0),
        lambda: gauss_row(np.array([1.5]), 5),
        lambda: gauss_brute(0.5, 1, 5),
        lambda: gauss_brute(1, [1, 2.5], 5),
    ], ids=["general-a", "general-n", "general-b", "closed-n", "row-n", "row-a", "brute-a",
            "brute-b"])
    def test_non_integral_arguments_are_domain_errors(self, call):
        with pytest.raises(DomainError):
            call()
