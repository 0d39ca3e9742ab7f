import collections
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np

import zqdist
from zqdist import cli, distset, fourier, gauss, sphere
from zqdist.arith import as_modulus
from zqdist.cli import main
from zqdist.distset import sample_random_set
from zqdist.errors import BudgetError


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def records(text):
    return list(csv.DictReader(io.StringIO(text)))


def sphere_count_loop(q, d, t):
    return sum(1 for x in itertools.product(range(q), repeat=d) if sum(c * c for c in x) % q == t)


def nu_loop(E):
    # independent oracle: every ordered pair, distances counted one by one
    counts = [0] * E.q
    for x in E.points:
        for y in E.points:
            counts[sum((a - b) ** 2 for a, b in zip(x, y)) % E.q] += 1
    return counts


class TestSphereCommand:
    def test_z3_rows(self, tmp_path):
        code, text = run(tmp_path, "sphere", "--q", "3", "--d", "3", "--all-t")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("q,d,t,count_enum")
        assert lines[1].split(",")[:5] == ["3", "3", "0", "9", "9"]
        assert lines[2].split(",")[:5] == ["3", "3", "1", "6", "6"]
        assert lines[3].split(",")[:5] == ["3", "3", "2", "12", "12"]

    def test_even_q_counts_only(self, tmp_path):
        code, text = run(tmp_path, "sphere", "--q", "4", "--d", "2", "--all-t")
        assert code == 0
        assert "true" in text

    def test_t_reduced_before_deduplication(self, tmp_path):
        code, text = run(tmp_path, "sphere", "--q", "9", "--d", "3", "--t", "1", "4", "22")
        assert code == 0
        assert [r["t"] for r in records(text)] == ["1", "4", "all"]

    def test_odd_q_low_dimensions(self, tmp_path):
        code, text = run(tmp_path, "sphere", "--q", "5", "--d", "1", "2", "--all-t")
        assert code == 0
        rows = [r for r in records(text) if r["t"] != "all"]
        assert len(rows) == 10
        for r in rows:
            count = str(sphere_count_loop(5, int(r["d"]), int(r["t"])))
            assert r["count_enum"] == r["count_formula"] == r["count_crt"] == count
            assert r["ii_bound"] == r["bound_ratio_max"] == ""
            assert r["passed"] == "true"

    def test_composite_q_crt_count(self, tmp_path):
        code, text = run(tmp_path, "sphere", "--q", "15", "--d", "3", "--t", "0", "7")
        assert code == 0
        rows = records(text)
        assert [r["t"] for r in rows] == ["0", "7", "all"]
        for r in rows[:2]:
            assert r["count_crt"] == str(sphere_count_loop(15, 3, int(r["t"])))
            assert 0 <= float(r["bound_ratio_max"]) <= 1

    def test_counts_take_no_gauss_sums(self, tmp_path, monkeypatch):
        # the count formula is exact integer arithmetic: G(s, q) is never evaluated
        calls = collections.Counter()
        real = gauss.gauss_general

        def counted(a, b, n):
            calls[n] += 1
            return real(a, b, n)

        monkeypatch.setattr(gauss, "gauss_general", counted)
        monkeypatch.setattr(cli, "gauss_general", counted)
        code, text = run(tmp_path, "sphere", "--q", "45", "--d", "3", "--all-t")
        assert code == 0 and len(records(text)) == 46
        assert all(r["passed"] == "true" for r in records(text))
        assert not calls


class TestGaussCommand:
    def test_verify_small(self, tmp_path):
        code, text = run(tmp_path, "gauss", "--verify", "--n-max", "25")
        assert code == 0
        assert text.count("true") == 25

    def test_single_eval(self, tmp_path):
        code, text = run(tmp_path, "gauss", "--a", "3", "--n", "4")
        assert code == 0
        row = text.strip().splitlines()[1].split(",")
        assert row[3] == "2" and row[4] == "-2"  # G(3, 4) = 2 - 2i

    def test_even_modulus_linear_term_exact(self, tmp_path):
        code, text = run(tmp_path, "gauss", "--a", "1", "--b", "1", "--n", "8")
        assert code == 0
        (row,) = records(text)
        assert "exact" not in row
        assert row["closed_re"] == row["closed_im"] == "0"
        assert row["magnitude_sq"] == "0" and row["passed"] == "true"

    def test_missing_args(self, tmp_path):
        code, _ = run(tmp_path, "gauss")
        assert code == 2

    def test_modulus_past_grid_budget_exit_2(self, tmp_path):
        # the oracle sums over all of Z_n, so n counts against --max-grid
        code, text = run(tmp_path, "gauss", "--a", "3", "--n", "1001", "--max-grid", "1000")
        assert code == 2 and text == ""
        code, _ = run(tmp_path, "gauss", "--a", "3", "--n", "1000", "--max-grid", "1000")
        assert code == 0

    def test_relative_closed_form_error_fails(self, tmp_path, monkeypatch):
        # a closed form off by a relative 1e-9 lies far past the rounding of
        # either side, which is all the tolerance allows
        real_row = gauss.gauss_row
        monkeypatch.setattr(cli, "gauss_row", lambda a, n: real_row(a, n) * (1 + 1e-9))
        code, text = run(tmp_path, "gauss", "--verify", "--n-max", "12")
        assert code == 1
        assert [r["passed"] for r in records(text)] == ["false"] * 12

    def test_tolerance_is_the_derived_bound(self, tmp_path):
        eps = np.finfo(np.float64).eps
        code, text = run(tmp_path, "gauss", "--verify", "--n-max", "150")
        assert code == 0
        for r in records(text):
            n = int(r["n"])
            tol = (np.sqrt(2) * (n + 2) + 22 + 16 * np.sqrt(2)) * eps * n
            assert abs(float(r["tol"]) - tol) <= 1e-11 * tol, n
            assert float(r["max_abs_err"]) < tol / 10, n
        code, text = run(tmp_path, "gauss", "--a", "7", "--b", "3", "--n", "1031")
        (row,) = records(text)
        assert code == 0 and float(row["abs_err"]) < cli._gauss_tol(1031) / 10

    def test_sweep_row_is_one_call_of_each(self, monkeypatch):
        calls = []
        real_row, real_brute = gauss.gauss_row, gauss.gauss_brute

        def counted_row(a, n):
            calls.append(("row", np.array(a), n))
            return real_row(a, n)

        def counted_brute(a, b, n):
            calls.append(("brute", (a, b), n))
            return real_brute(a, b, n)

        def forbidden(*args):
            raise AssertionError("gauss_general called by the sweep")

        monkeypatch.setattr(cli, "gauss_row", counted_row)
        monkeypatch.setattr(cli, "gauss_brute", counted_brute)
        for mod in (cli, gauss):
            monkeypatch.setattr(mod, "gauss_general", forbidden)
        row = cli._gauss_sweep_row(12)
        assert [(kind, n) for kind, _, n in calls] == [("row", 12), ("brute", 12)]
        assert np.array_equal(calls[0][1], np.arange(12))
        a, b = np.broadcast_arrays(*calls[1][1])
        assert a.shape == (12, 12)  # one row of b per a
        assert sorted(zip(a.ravel().tolist(), b.ravel().tolist())) == list(
            itertools.product(range(12), repeat=2)
        )
        assert row["cases"] == 144 and row["passed"]

    def test_sweep_row_agrees_with_per_a_rows(self):
        # the whole table against one row call per a: every oracle value lies
        # within gauss_brute's bound of the definition, so the two worst
        # distances from gauss_row differ by at most twice that bound
        eps = np.finfo(np.float64).eps
        for n in range(1, 100):
            worst = 0.0
            for a in range(n):
                diff = np.abs(gauss.gauss_row(a, n) - gauss.gauss_brute(a, np.arange(n), n))
                worst = max(worst, float(diff.max()))
            bound = (np.sqrt(2) * (n + 2) + 22) * eps * n
            assert abs(cli._gauss_sweep_row(n)["max_abs_err"] - worst) <= 2 * bound, n

    def test_sweep_row_peak_memory(self):
        # n = 200 has 8 * 10^6 (a, b, x) triples; the oracle counts them in blocks
        tracemalloc.start()
        try:
            row = cli._gauss_sweep_row(200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row["passed"]
        assert peak <= 48 * 2**20, peak


class TestSpectrumCommand:
    def test_sweep(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--q", "3", "5", "--all-t")
        assert code == 0
        assert all(line.endswith("true") for line in text.strip().splitlines()[1:])

    def test_even_q_rejected(self, tmp_path):
        code, _ = run(tmp_path, "spectrum", "--q", "4", "--all-t")
        assert code == 2

    def test_each_route_once_per_row(self, tmp_path, monkeypatch):
        # one transform per row; the formula spectra of all rows share one
        # fetch of the kernel and one whole-grid class table (h = q)
        calls = {"sphere_fourier_direct": [], "_class_kernel": [], "_class_ids": []}
        for name in calls:
            real = getattr(sphere, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name].append(args)
                return _real(*args, **kwargs)

            for mod in (sphere, cli):
                monkeypatch.setattr(mod, name, counted, raising=False)
        code, text = run(tmp_path, "spectrum", "--q", "9", "--all-t")
        assert code == 0 and len(records(text)) == 9
        assert len(calls["sphere_fourier_direct"]) == 9 and len(calls["_class_kernel"]) == 1
        assert [args for args in calls["_class_ids"] if args[2] == 9] == [(9, 3, 9)]

    def test_formula_kernel_built_once_per_q_and_d(self, tmp_path, monkeypatch):
        # Z_1009's kernel is past the cache: every row of the command reads
        # the one build
        builds = []
        real = sphere._kernel_formula

        def counted(q, d, *args):
            builds.append((q, d))
            return real(q, d, *args)

        monkeypatch.setattr(sphere, "_kernel_formula", counted)
        code, text = run(tmp_path, "spectrum", "--q", "1009", "--d", "1", "--t", "1", "2", "3", "4")
        assert code == 0 and len(records(text)) == 4
        assert builds == [(1009, 1)]

    def test_dft_kernel_built_once_for_the_rows(self, tmp_path, monkeypatch):
        # Z_257's DFT kernel is past the cache: it is built once inside the
        # formula kernel's build and once for all 257 rows, which hold it
        builds = []
        real = fourier._kernel

        def tracked(*key):
            tbl = real(*key)
            if key == (257, True) and not any(ref() is tbl for ref in builds):
                builds.append(weakref.ref(tbl))
            return tbl

        for mod in (fourier, sphere, cli):
            monkeypatch.setattr(mod, "_kernel", tracked, raising=False)
        code, text = run(tmp_path, "spectrum", "--q", "257", "--d", "1", "--all-t")
        assert code == 0 and len(records(text)) == 257
        assert len(builds) == 2

    def test_kernel_built_once_per_route(self, tmp_path):
        # the formula kernel of Z_45^3 is fetched once for all 45 rows; the
        # direct spectra need no kernel
        sphere._build_class_kernel.cache_clear()
        code, text = run(tmp_path, "spectrum", "--q", "45", "--d", "3", "--all-t")
        assert code == 0 and len(records(text)) == 45
        info = sphere._build_class_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        code, _ = run(tmp_path, "nu", "--random", "300", "--q", "45", "--d", "3")
        assert code == 0
        assert sphere._build_class_kernel.cache_info().misses == 2  # the direct kernel

    def test_one_class_table_per_command(self, tmp_path, monkeypatch):
        # the formula spectra of all 15 rows share one q^d class table, built
        # once; the formula kernel's representatives are found on the 8^3
        # orthant of Z_15^3
        calls = []
        real = sphere._class_ids

        def spy(q, d, h):
            calls.append((q, d, h))
            return real(q, d, h)

        for mod in (sphere, cli):
            monkeypatch.setattr(mod, "_class_ids", spy)
        sphere._build_class_kernel.cache_clear()
        real.cache_clear()
        code, text = run(tmp_path, "spectrum", "--q", "15", "--d", "4", "--all-t")
        assert code == 0 and len(records(text)) == 15
        assert sorted(calls) == [(15, 3, 8), (15, 4, 15)]
        assert real.cache_info().misses == 2

    def test_route_tol_is_the_derived_bound(self, tmp_path):
        eps = np.finfo(np.float64).eps
        code, text = run(tmp_path, "spectrum", "--q", "15", "--d", "3", "--all-t")
        assert code == 0
        kern = sphere._class_kernel(as_modulus(15), 3, "formula")
        counts = sphere.sphere_counts_all(15, 3)
        for r in records(text):
            t = int(r["t"])
            tol = 3 * (15 + 11) * eps * counts[t] / 15**3 + kern.error[:, t].max()
            assert r["route_tol"] == format(float(tol), ".12g")
            assert float(r["max_route_diff"]) < tol < 1e-13 and r["passed"] == "true"

    def test_relative_formula_kernel_error_fails(self, tmp_path, monkeypatch):
        # a formula kernel off by a relative 1e-9 stays within the fixed
        # route_tol 1e-8 it replaced, but far past the routes' own errors
        real = sphere._kernel_formula

        def perturbed(*args):
            vals, err = real(*args)
            return vals * (1 + 1e-9), err

        monkeypatch.setattr(sphere, "_kernel_formula", perturbed)
        sphere._build_class_kernel.cache_clear()
        try:
            code, text = run(tmp_path, "spectrum", "--q", "9", "--d", "3", "--all-t")
            rows = [r for q in (3, 5, 9, 15)
                    for r in cli._spectrum_rows(as_modulus(q), 3, range(q), 10**7)]
        finally:
            sphere._build_class_kernel.cache_clear()
        assert code == 1
        for r in records(text):
            assert float(r["max_route_diff"]) < 1e-8 and r["passed"] == "false", r
        assert all(r["max_route_diff"] < 1e-8 and not r["passed"] for r in rows)

    def test_t_sorted_after_reduction(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--q", "9", "--t", "10", "2")
        assert code == 0
        assert [r["t"] for r in records(text)] == ["1", "2"]

    def test_d2_has_no_decay_columns(self, tmp_path):
        code, text = run(tmp_path, "spectrum", "--q", "5", "--d", "2", "--all-t")
        assert code == 0
        rows = records(text)
        assert [r["t"] for r in rows] == ["0", "1", "2", "3", "4"]
        for r in rows:
            assert r["max_nonzero_coeff"] == r["decay_bound"] == r["ratio_to_bound"] == ""
            assert float(r["max_route_diff"]) < 1e-8 and r["passed"] == "true"


class TestNuCommand:
    def test_construct_then_nu_flow(self, tmp_path):
        setfile = tmp_path / "ew.txt"
        code = main(["construct", "even-weight", "--d", "3", "--out-set", str(setfile),
                     "--check", "--out", str(tmp_path / "c.csv")])
        assert code == 0
        crow = (tmp_path / "c.csv").read_text().strip().splitlines()[1]
        assert crow.split(",")[5] == "0"  # distances column is exactly "0"
        code, text = run(tmp_path, "nu", "--set-file", str(setfile), name="nu.csv")
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        by_t = {r[4]: r[5] for r in rows}
        assert by_t["0"] == "16" and by_t["1"] == "0"  # Delta(E) = {0}

    def test_random_set_brute_vs_spectral(self, tmp_path):
        code, text = run(tmp_path, "nu", "--random", "40", "--q", "9", "--d", "3",
                         "--seed", "11")
        assert code == 0
        for line in text.strip().splitlines()[1:]:
            assert line.endswith("true")

    def test_one_transform_for_both_counts(self, tmp_path, monkeypatch):
        # 600^2 >= 9^4: the histogram and the spectral sweep share one transform
        calls = []

        def counted(real):
            def spy(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return spy

        for mod in (distset, sphere, cli):
            for name in ("forward", "orbit_power"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        code, text = run(tmp_path, "nu", "--random", "600", "--q", "9", "--d", "3",
                         "--seed", "1")
        assert code == 0 and calls == ["orbit_power"]
        *rows, _ = records(text)
        assert all(r["match"] == "true" for r in rows)

    def test_count_is_never_the_sweep(self, tmp_path, monkeypatch):
        # 600^2 >= 9^5: the nu_brute column comes from the autocorrelation,
        # so "match" compares two routes
        routes = []
        for name in ("_sweep", "orbit_inverse"):
            real = getattr(distset, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                routes.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(distset, name, spy)
        code, text = run(tmp_path, "nu", "--random", "600", "--q", "9", "--d", "4", "--seed", "1")
        assert code == 0 and sorted(routes) == ["_sweep", "orbit_inverse"]
        *rows, _ = records(text)
        assert all(r["match"] == "true" for r in rows)

    def test_budget_error_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "nu", "--random", "40", "--q", "9", "--d", "3",
                      "--max-pairs", "10", "--max-grid", "10")
        assert code == 2

    def test_histogram_past_the_budgets_exit_2(self, tmp_path, capsys):
        # two points, but a histogram of q entries, the grid Z_q^1: refused
        # before it is allocated
        q = 2**40 + 15
        setfile = tmp_path / "two.txt"
        setfile.write_text(f"q={q} d=1\n0\n1\n", encoding="utf-8")
        assert main(["nu", "--set-file", str(setfile)]) == 2
        assert f"grid Z_{q}^1 has {q} points" in capsys.readouterr().err
        assert main(["nu", "--random", "2", "--q", str(q), "--d", "1", "--seed", "1"]) == 2
        assert f"grid Z_{q}^1 has {q} points" in capsys.readouterr().err
        # a raised --max-grid admits q, the pair scan's own limit still holds
        q = 10**7 + 19
        assert main(["nu", "--random", "2", "--q", str(q), "--d", "1", "--seed", "1",
                     "--max-grid", str(q)]) == 2
        assert f"grid Z_{q}^1 has {q} points, exceeding the budget 10000000" in (
            capsys.readouterr().err)

    def test_oversized_random_is_a_budget_error(self, monkeypatch, capsys):
        # rejected before sampling: 2^62 draws could never be allocated
        assert main(["nu", "--random", str(2**62), "--q", "2", "--d", "64"]) == 2
        assert "fits neither the pair budget" in capsys.readouterr().err
        monkeypatch.setattr(cli, "sample_random_set", None)
        for size in (2**62, 20000):
            for cmd in ("nu", "certificate"):
                assert main([cmd, "--random", str(size), "--q", "3", "--d", "40"]) == 2

    def test_oversized_constructions_are_budget_errors(self, monkeypatch, capsys):
        # refused before construction: 2^63 and 3^40 points could never be built
        assert main(["nu", "--even-weight", "--d", "64"]) == 2
        assert "fits neither the pair budget" in capsys.readouterr().err

        def forbidden(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(cli, "construct_zero_distance_lattice", forbidden)
        monkeypatch.setattr(cli, "construct_even_weight", forbidden)
        for cmd in ("nu", "certificate"):
            assert main([cmd, "--lattice", "3", "2", "--d", "40"]) == 2
            assert "fits neither the pair budget" in capsys.readouterr().err
            assert main([cmd, "--even-weight", "--d", "40"]) == 2

    def test_construction_arguments_keep_domain_errors(self, capsys):
        for argv in (["--even-weight", "--d", "0"], ["--lattice", "4", "2", "--d", "3"],
                     ["--lattice", "3", "0", "--d", "3"], ["--lattice", "3", "2", "--d", "0"]):
            assert main(["nu", *argv]) == 2
            err = capsys.readouterr().err
            assert "must be" in err and "budget" not in err, argv

    def test_spectral_route_only(self, tmp_path, monkeypatch):
        # the pair budget refuses the scan and the autocorrelation is refused
        # too, so only the sweep counts
        def refuse(*args):
            raise BudgetError("forced")

        monkeypatch.setattr(distset, "_nu_autocorrelation", refuse)
        code, text = run(tmp_path, "nu", "--random", "30", "--q", "5", "--d", "3", "--seed", "3",
                         "--max-pairs", "100")
        assert code == 0
        *rows, total = records(text)
        assert all(r["nu_brute"] == r["match"] == "" for r in rows)
        expected = nu_loop(sample_random_set(5, 3, 30, 3))
        assert [int(r["nu_spectral"]) for r in rows] == expected
        assert total["t"] == "all" and total["nu_brute"] == "900"

    def test_brute_route_only(self, tmp_path):
        code, text = run(tmp_path, "nu", "--random", "30", "--q", "5", "--d", "4", "--seed", "3",
                         "--max-grid", "100")
        assert code == 0
        *rows, total = records(text)
        assert all(r["nu_spectral"] == r["main_term"] == r["match"] == "" for r in rows)
        expected = nu_loop(sample_random_set(5, 4, 30, 3))
        assert [int(r["nu_brute"]) for r in rows] == expected
        assert total["t"] == "all" and total["nu_brute"] == "900"

    def test_refused_sweep_keeps_the_pair_counts(self, tmp_path):
        # the sweep of Z_5003 needs a q x q kernel past 10^7 entries, so it is
        # refused and the pair scan's counts stand without the spectral columns
        code, text = run(tmp_path, "nu", "--random", "500", "--q", "5003", "--d", "1",
                         "--seed", "1")
        assert code == 0
        *rows, total = records(text)
        assert all(r["nu_brute"] != "" and r["nu_spectral"] == "" for r in rows)
        assert total["t"] == "all" and total["nu_brute"] == "250000"

    def test_raised_grid_budget_keeps_the_pair_counts(self, tmp_path):
        # |E| = q puts Z_3163 on the transform side; q^2 > 10^7 refuses the
        # transform at the default budget, and its kernel past a raised one
        expected = [str(c) for c in distset.nu_pairs(sample_random_set(3163, 1, 3163, 1))]
        for extra in ((), ("--max-grid", "20000000")):
            code, text = run(tmp_path, "nu", "--random", "3163", "--q", "3163", "--d", "1",
                             "--seed", "1", *extra)
            assert code == 0, extra
            *rows, total = records(text)
            assert [r["nu_brute"] for r in rows] == expected
            assert all(r["nu_spectral"] == "" for r in rows)
            assert total["nu_brute"] == str(3163**2)

    def test_missing_source(self, tmp_path):
        code, _ = run(tmp_path, "nu")
        assert code == 2

    def test_missing_file(self, tmp_path):
        code, _ = run(tmp_path, "nu", "--set-file", str(tmp_path / "nope.txt"))
        assert code == 2


class TestCertificateCommand:
    def test_lattice(self, tmp_path):
        code, text = run(tmp_path, "certificate", "--lattice", "3", "2", "--d", "3")
        assert code == 0
        assert all(line.endswith("true") for line in text.strip().splitlines()[1:])

    def test_z9d6_at_default_tolerance(self, tmp_path):
        # nu(7) lands 1.4e-6 from its integer here, which a fixed 1e-6 rejected
        code, text = run(tmp_path, "certificate", "--random", "177147", "--q", "9", "--d", "6",
                         "--seed", "2024")
        assert code == 0
        rows = records(text)
        assert [r["t"] for r in rows] == [str(t) for t in range(9)]
        # |E|^2 is past the pair budget; the autocorrelation still counts every t
        assert all(int(r["nu_brute"]) > 0 and r["sound"] == "true" for r in rows)


class TestConstructCommand:
    def test_lattice_with_check(self, tmp_path):
        code, text = run(tmp_path, "construct", "lattice", "--p", "3", "--ell", "2",
                         "--d", "3", "--check")
        assert code == 0
        header, row = list(csv.reader(io.StringIO(text)))[:2]
        rec = dict(zip(header, row))
        assert rec["size"] == "27" and rec["distances"] == "0"

    def test_even_weight_with_check(self, tmp_path):
        code, text = run(tmp_path, "construct", "even-weight", "--d", "6", "--check")
        assert code == 0
        assert records(text) == [{
            "construction": "even-weight", "q": "2", "d": "6", "size": "32",
            "expected_size": "32", "distances": "0", "passed": "true",
        }]

    def test_missing_params(self, tmp_path):
        code, _ = run(tmp_path, "construct", "lattice")
        assert code == 2

    def test_oversized_constructions_are_budget_errors(self, monkeypatch, capsys):
        # refused before construction: 2^63 and 3^40 points could never be built
        def forbidden(*args):
            raise AssertionError("the set was built")

        monkeypatch.setattr(cli, "construct_zero_distance_lattice", forbidden)
        monkeypatch.setattr(cli, "construct_even_weight", forbidden)
        for argv in (["even-weight", "--d", "64"], ["lattice", "--p", "3", "--ell", "2", "--d", "40"],
                     ["even-weight", "--d", "24", "--out-set", "ew.txt"]):
            assert main(["construct", *argv]) == 2, argv
            assert "fits neither the pair budget" in capsys.readouterr().err

    def test_construction_arguments_keep_domain_errors(self, capsys):
        for argv in (["even-weight", "--d", "0"], ["lattice", "--p", "4", "--ell", "2", "--d", "3"],
                     ["lattice", "--p", "3", "--ell", "0", "--d", "3"]):
            assert main(["construct", *argv]) == 2
            err = capsys.readouterr().err
            assert "must be" in err and "budget" not in err, argv


class TestVerifyAll:
    ARGS = ["verify-all", "--n-max", "15", "--q-max", "9", "--sets-per-q", "2"]

    def test_passes_and_deterministic(self, tmp_path):
        code1, text1 = run(tmp_path, *self.ARGS, name="v1.csv")
        code2, text2 = run(tmp_path, *self.ARGS, name="v2.csv")
        assert code1 == code2 == 0
        assert text1 == text2
        assert ",false" not in text1

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "v.json"
        code = main([*self.ARGS, "--format", "json", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows and all(r["passed"] for r in rows)

    def test_nu_decomposition_tolerance_is_derived(self, tmp_path):
        # each row allows the sweep's own tolerance of its nu(t) and the
        # rounding of main + r_t, far below the fixed 1e-6 it replaced
        code, text = run(tmp_path, *self.ARGS)
        assert code == 0
        rows = [r for r in records(text) if r["check"] == "nu_decomposition"]
        assert len(rows) == 3 * 5 + 1  # full grid, sphere, singleton, two random; lattice
        for r in rows:
            assert r["passed"] == "true"
            assert float(r["value"]) <= float(r["tol"]) < 1e-8, r

    def test_perturbed_transform_fails_the_fourier_rows(self, monkeypatch):
        # a forward transform off by a relative 1e-6 fails every round trip
        # and Plancherel row on the splitmix64 grids
        real = fourier.forward

        def perturbed(f):
            F = real(f)
            return fourier.Spectrum(F.modulus, F.d, F.values * (1 + 1e-6))

        rows = cli._verify_fourier(15, 1)
        assert all(r["passed"] for r in rows)
        monkeypatch.setattr(fourier, "forward", perturbed)
        monkeypatch.setattr(cli, "forward", perturbed)
        moved = [r for r in cli._verify_fourier(15, 1) if r["check"] != "fourier_orthogonality"]
        assert len(moved) == 4 * 3 * 2 * 2 and not any(r["passed"] for r in moved)

    def test_random_grids_are_uniform_in_the_square(self):
        f = cli._random_grid(15, 3, 2024).values
        assert f.shape == (15**3,)
        for part in (f.real, f.imag):
            assert -1 <= part.min() < -0.99 and 0.99 < part.max() < 1
        assert np.array_equal(f, cli._random_grid(15, 3, 2024).values)
        assert not np.array_equal(f, cli._random_grid(15, 3, 2025).values)

    def test_does_not_import_numpy_random(self, tmp_path):
        # the Fourier grids come from the package's own splitmix64 stream
        src = os.path.dirname(os.path.dirname(zqdist.__file__))
        code = (
            "import sys\n"
            "from zqdist.cli import main\n"
            "code = main(['verify-all', '--n-max', '70', '--q-max', '27', '--sets-per-q', '5',"
            f" '--out', {str(tmp_path / 'rows.csv')!r}])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["0", "False"]

    def test_pair_budget_gates_only_the_pair_scan(self, tmp_path):
        # Z_5^3 (15625 pairs) and the other sets past 1000 pairs are counted
        # by the autocorrelation: the rows are those of the default budget
        args = ["verify-all", "--n-max", "5", "--q-max", "9", "--sets-per-q", "2"]
        code, text = run(tmp_path, *args, "--max-pairs", "1000", name="small.csv")
        assert code == 0
        assert text == run(tmp_path, *args, name="default.csv")[1]


class TestUsage:
    def test_unknown_command(self):
        assert main(["no-such-command"]) == 2

    def test_only_read_options_are_accepted(self, tmp_path, capsys):
        commands = {
            "gauss": ["--a", "3", "--n", "5"],
            "sphere": ["--q", "9", "--d", "3"],
            "spectrum": ["--q", "9", "--d", "3"],
            "construct": ["even-weight", "--d", "3"],
        }
        for name, argv in commands.items():
            assert run(tmp_path, name, *argv)[0] == 0, name
            unread = ["--seed"] if name == "construct" else ["--seed", "--max-pairs"]
            for opt in unread:
                assert main([name, *argv, opt, "5"]) == 2, (name, opt)
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_command(self):
        assert main([]) == 2


class TestCellFormat:
    def test_python_values(self):
        cases = [
            ("true", True),
            ("false", False),
            ("7", 7),
            ("-9223372036854775808", -(2**63)),
            ("18446744073709551615", 2**64 - 1),
            ("0.1", 0.1),
            ("-2.62035213646e-13", -2.62035213646e-13),
            ("1e+300", 1e300),
            ("nan", float("nan")),
            ("", None),
            ("all", "all"),
        ]
        for text, v in cases:
            assert cli._fmt(v) == text, (type(v), v)

    def test_every_cell_has_a_formatted_type(self, tmp_path, monkeypatch):
        # each subcommand on small inputs, in CSV and JSON: every cell it
        # emits is exactly one of the types _fmt formats (numpy scalars are not)
        seen = set()
        real = cli._emit

        def emit(columns, rows, args):
            seen.update(type(row.get(c)) for row in rows for c in columns)
            return real(columns, rows, args)

        monkeypatch.setattr(cli, "_emit", emit)
        commands = [
            ("gauss", "--verify", "--n-max", "12"),
            ("gauss", "--a", "7", "--b", "3", "--n", "31"),
            ("verify-all", "--n-max", "8", "--q-max", "9", "--sets-per-q", "1"),
            ("sphere", "--q", "4", "9", "--d", "3", "--all-t"),
            ("spectrum", "--q", "9", "--d", "2", "--all-t"),
            ("nu", "--random", "50", "--q", "2", "--d", "6"),
            ("nu", "--random", "50", "--q", "6", "--d", "3"),
            ("nu", "--random", "50", "--q", "45", "--d", "2"),
            ("nu", "--random", "20", "--q", "5003", "--d", "1"),
            ("certificate", "--random", "200", "--q", "9", "--d", "3"),
            ("construct", "even-weight", "--d", "4", "--check", "--out-set", str(tmp_path / "ew.txt")),
            ("construct", "lattice", "--p", "3", "--ell", "2", "--d", "3", "--check"),
            ("nu", "--set-file", str(tmp_path / "ew.txt")),
        ]
        for argv in commands:
            for fmt in ("csv", "json"):
                code, _ = run(tmp_path, *argv, "--format", fmt)
                assert code == 0, argv
        assert seen and seen <= set(cli._FMT_EXACT), seen


class TestOutDirEnv:
    def test_relative_out_resolves_under_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZQDIST_OUT_DIR", str(tmp_path))
        code = main(["sphere", "--q", "3", "--d", "1", "--all-t", "--out", "sub/rows.csv"])
        assert code == 0
        assert (tmp_path / "sub" / "rows.csv").exists()
