import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqdist import gauss
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
        # n = 150 splits the 150^3 (a, b, x) triples into blocks that end inside a row of a
        n = 150
        grid = gauss_brute(np.arange(n)[:, None], np.arange(n), n)
        rows = np.stack([gauss_brute(a, np.arange(n), n) for a in range(n)])
        assert grid.tobytes() == rows.tobytes()

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
        # each value is read off its own aligned tile, so any call shape gives
        # the grid's bits; the pairs repeat, sit on the last tile edge and come
        # as negative and huge Python ints in an odd shape
        rng = np.random.default_rng(n)
        a = rng.integers(0, n, size=(5, 7))
        b = rng.integers(0, n, size=(5, 7))
        a[0, :3] = b[0, :3] = n - 1
        a[1, 1], b[1, 1] = a[1, 0], b[1, 0]
        if n == 1031:  # the grid rows of the a that occur, one call per row
            grid = np.zeros((n, n), dtype=np.complex128)
            for v in set(a.ravel().tolist()):
                grid[v] = gauss_brute(v, np.arange(n), n)
        else:
            grid = gauss_brute(np.arange(n)[:, None], np.arange(n), n)
        ref = grid[a, b]
        big = 2**70 * n
        huge_a = [[x - big for x in row] for row in a.tolist()]
        huge_b = [[y + 3 * big for y in row] for row in b.tolist()]
        for got in (gauss_brute(a, b, n), gauss_brute(huge_a, huge_b, n),
                    gauss_brute(a - 5 * n, b, n)):
            assert got.shape == (5, 7) and got.tobytes() == ref.tobytes()
        for i, j in [(0, 0), (1, 1), (2, 3), (4, 6)]:
            assert gauss_brute(int(a[i, j]), int(b[i, j]), n) == ref[i, j]
        outer = gauss_brute(a[:, :1], b[0], n)  # (5, 1) against (7,)
        assert outer.tobytes() == grid[a[:, :1], b[0]].tobytes()

    @pytest.mark.parametrize("n", [70, 1031])
    def test_ragged_edge_tiles_agree_across_call_shapes(self, n):
        # T does not divide n: the last tile row and column are narrower, with
        # the same bits in every call shape
        t = max(1, min(64, math.isqrt(2**15 // n)))
        assert n % t
        edge = list(range(n - n % t - 2, n))  # the last full tile's end and the ragged tile
        a = np.array(edge + [0, t])
        grid = gauss_brute(a[:, None], np.arange(n), n)
        scattered = gauss_brute(a, a[::-1], n)
        for i, x in enumerate(a.tolist()):
            assert gauss_brute(x, np.arange(n), n).tobytes() == grid[i].tobytes()
            for y in edge + [0]:
                assert gauss_brute(x, y, n) == grid[i, y]
            assert scattered[i] == grid[i, a[::-1][i]]
        for x, y in [(n - 1, n - 1), (0, n - 1), (n - 1, 0)]:
            assert abs(grid[list(a).index(x), y] - direct_sum(x, y, n)) < _gauss_tol(n)

    def test_unit_tiles(self):
        # n > 2^15 has 1 x 1 tiles: each value is one dot product of length n
        n = 32771
        assert math.isqrt(2**15 // n) == 0
        b = [3, 17000, n - 1]
        row = gauss_brute(7, b, n)
        assert [gauss_brute(7, y, n) for y in b] == list(row)
        assert gauss_brute([7, 7, 7], b, n).tobytes() == row.tobytes()
        assert abs(row[0] - direct_sum(7, 3, n)) < _gauss_tol(n)

    @pytest.mark.parametrize("n", [7, 70, 1031, 32771])
    def test_outer_requests_equal_scalar_and_per_pair_calls(self, n):
        # a column against a row is grouped by axis; the same pairs spelled
        # out in full take the per-pair path, and one pair at a time the
        # scalar one: all three agree bit for bit, on unsorted, repeated,
        # negative and huge Python-int residues
        big = 2**70 * n
        a = [n - 1, 3, -2, 3, big + 5, 0, -big - 1]
        b = [5, n - 1, -1, 5, 2 * big + 2, 1, n // 2, 3 * n]
        column = [[x] for x in a]
        res_a = np.array([x % n for x in a])
        res_b = np.array([y % n for y in b])
        outer = gauss_brute(column, b, n)
        assert outer.shape == (len(a), len(b))
        pairs_a, pairs_b = (v.copy() for v in np.broadcast_arrays(res_a[:, None], res_b))
        assert gauss_brute(pairs_a, pairs_b, n).tobytes() == outer.tobytes()
        assert gauss_brute(res_a[:, None], res_b, n).tobytes() == outer.tobytes()
        for i, x in enumerate(a):
            assert gauss_brute(x, b, n).tobytes() == outer[i].tobytes()
            for j, y in enumerate(b):
                assert gauss_brute(x, y, n) == outer[i, j], (x, y)
        for j, y in enumerate(b):  # a column against a scalar keeps the column's shape
            assert gauss_brute(column, y, n).tobytes() == outer[:, j : j + 1].tobytes()
        nested = gauss_brute(res_a.reshape(7, 1, 1), res_b, n)
        assert nested.shape == (7, 1, len(b)) and nested.tobytes() == outer.tobytes()

    def test_whole_grid_scatters_no_pairs(self, monkeypatch):
        # outer-product requests are grouped by axis: no sort of the n^2
        # (chunk, tile row, tile column) keys; other shapes still take it
        sorts = []
        real = np.lexsort

        def lexsort(keys, *args, **kwargs):
            sorts.append(len(keys[0]))
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", lexsort)
        for n in (7, 70, 150):
            x = np.arange(n)
            gauss_brute(x[:, None], x, n)
            gauss_brute(x[::-1, None], x[::-1], n)
            gauss_brute(3, x, n)
            gauss_brute(3, 5, n)
        assert sorts == []
        gauss_brute(np.arange(5), np.arange(5), 7)
        assert sorts == [5]
        assert gauss_brute(4, np.arange(0), 7).shape == (0,)

    @staticmethod
    def count_builds(monkeypatch):
        """The first row and column of every chirp-row and linear-column build."""
        built = {"rows": [], "cols": []}
        real_rows, real_cols = gauss._chirp_rows, gauss._linear_columns

        def rows(a0, a1, *args):
            built["rows"].append(a0)
            return real_rows(a0, a1, *args)

        def cols(b0, b1, *args):
            built["cols"].append(b0)
            return real_cols(b0, b1, *args)

        monkeypatch.setattr(gauss, "_chirp_rows", rows)
        monkeypatch.setattr(gauss, "_linear_columns", cols)
        return built

    @pytest.mark.parametrize("n", [64, 70, 130])
    def test_full_grid_builds_each_tile_row_and_column_once(self, monkeypatch, n):
        built = self.count_builds(monkeypatch)
        x = np.arange(n)
        grid = gauss_brute(x[:, None], x, n)
        t = max(1, min(64, math.isqrt(2**15 // n)))
        assert sorted(built["rows"]) == sorted(built["cols"]) == list(range(0, n, t))
        monkeypatch.undo()
        assert grid.tobytes() == np.stack([gauss_brute(a, x, n) for a in range(n)]).tobytes()

    def test_row_drops_each_column_after_use(self):
        # Z_3001 (T = 3): a row call meets each of the 1001 tile columns once,
        # so no column is kept past its tile: the traced peak stays near one
        # tile's chirp rows and columns (3 x 3001 roots each), not the 32 MiB
        # a chunk of kept columns would take
        n = 3001
        character_table(n)
        tracemalloc.start()
        try:
            row = gauss_brute(5, np.arange(n), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak
        for y in (0, 695, 696, 1392, 2999, 3000):  # chunk edges at 3 * 232 k and the ragged column
            assert gauss_brute(5, y, n) == row[y]

    def test_chunks_build_each_tile_column_once(self, monkeypatch):
        # two tile rows of Z_3001 (T = 3) past the cap: the 1001 tile columns
        # come in 5 chunks of at most 232, each column is built once and kept
        # for the second row, within 2^21 entries (32 MiB), and each tile
        # row's chirp rows are built once per chunk
        n = 3001
        a = np.array([[5], [2999]])
        character_table(n)
        built = self.count_builds(monkeypatch)
        tracemalloc.start()
        try:
            got = gauss_brute(a, np.arange(n), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 16 * 2**20 <= peak <= 40 * 2**20, peak
        assert sorted(built["cols"]) == list(range(0, n, 3))
        assert sorted(built["rows"]) == [3] * 5 + [2997] * 5
        monkeypatch.undo()
        for r, x in enumerate(a.ravel().tolist()):
            for y in (0, 695, 696, 2783, 2784, 3000):  # chunk edges and the ragged column
                assert gauss_brute(x, y, n) == got[r, y]

    def test_scalar_peak_memory(self):
        # n > 2^15 has 1 x 1 tiles: one chirp row, one linear column, their dot
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


class TestRow:
    def test_matches_scalar_render(self):
        # each entry is within 4 eps of |G| = scale sqrt(surd) of the symbolic
        # value's own rendering, and exactly 0 wherever that value is zero
        eps = np.finfo(np.float64).eps
        for n in range(1, 100):
            for a in range(n):
                row = gauss_row(a, n)
                assert row.shape == (n,) and row.dtype == np.complex128
                vals = [gauss_general(a, b, n) for b in range(n)]
                rendered = np.array([v.complex_render for v in vals])
                size = np.array([v.scale * math.sqrt(v.surd) for v in vals])
                assert np.all(np.abs(row - rendered) <= 4 * eps * size), (n, a)
                zero = np.array([v.is_zero for v in vals])
                assert np.all(row[zero] == 0), (n, a)

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
        for n in range(1, 100):
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
