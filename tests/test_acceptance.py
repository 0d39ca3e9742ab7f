"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from zqdist import cli, fourier
from zqdist.arith import as_modulus
from zqdist.cli import _gauss_tol, _grid_defects, _pass_charge, _sphere_rows, _spectrum_rows
from zqdist.cli import main as cli_main
from zqdist.distset import (
    PointSet,
    construct_even_weight,
    construct_zero_distance_lattice,
    distance_set,
    nu_histogram,
    nu_pairs,
    nu_spectral_sweep,
    sample_random_set,
    theorem_threshold,
)
from zqdist.fourier import (
    DEFAULT_GRID_BUDGET,
    GridFunction,
    Spectrum,
    orthogonality_max_defect,
)
from zqdist.gauss import GaussSumValue, gauss_brute, gauss_general, gauss_row
from zqdist.sphere import (
    sphere_counts_all,
    sphere_size_bound_check,
    sphere_spec,
)

SPHERE_QS = (3, 5, 9, 15, 25, 27, 45)
SPHERE_DS = (3, 4)
FOURIER_QS = (3, 5, 9, 15)


def _report(k, name, detail, t0):
    print(f"ACCEPTANCE {k} ({name}): PASS [{detail}] {time.time() - t0:.1f}s")


def test_criterion_1_gauss_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    branches = {"odd": 0, "mod2": 0, "mod4": 0, "gate_zero": 0}
    for n in range(1, 100):
        tol = _gauss_tol(n)
        for a in range(n):
            row = gauss_brute(a, np.arange(n), n)
            for b in range(n):
                val = gauss_general(a, b, n)
                diff = abs(val.complex_render - row[b])
                worst = max(worst, diff)
                assert diff < tol, f"n={n} a={a} b={b}: |closed - brute| = {diff}"
                if val.is_zero and a % n != 0:
                    branches["gate_zero"] += 1
                elif n % 2 == 1:
                    branches["odd"] += 1
                elif n % 4 == 0:
                    branches["mod4"] += 1
                else:
                    branches["mod2"] += 1
    assert all(v > 0 for v in branches.values()), branches
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s, budget is 30s"
    _report(1, "gauss oracle", f"n<=99 all (a,b), max err {worst:.2e}", t0)


def test_criterion_1_fails_a_relative_render_error(monkeypatch):
    # the tolerance is the rounding of both sides: a closed form rendered a
    # relative 1e-9 off fails at n = 1
    real = GaussSumValue.complex_render.fget
    monkeypatch.setattr(GaussSumValue, "complex_render", property(lambda v: real(v) * (1 + 1e-9)))
    with pytest.raises(AssertionError, match="n=1 a=0 b=0"):
        test_criterion_1_gauss_oracle_equivalence()


def test_gauss_row_oracle_equivalence():
    # the row form against the oracle, at criterion 1's tolerance
    for n in range(1, 100):
        for a in range(n):
            diff = float(np.abs(gauss_row(a, n) - gauss_brute(a, np.arange(n), n)).max())
            assert diff < _gauss_tol(n), f"n={n} a={a}: |row - brute| = {diff}"


def test_criterion_2_fourier_identities():
    # the tolerances verify-all derives: (q + 11) eps per length-q pass
    t0 = time.time()
    combos = [(q, d) for q in FOURIER_QS for d in (1, 2, 3)]
    for q, d in combos:
        defect = orthogonality_max_defect(q, d)
        assert defect < _pass_charge(q), f"orthogonality defect {defect} at q={q} d={d}"
    grids = 0
    k = 0
    while grids < 100:
        q, d = combos[k % len(combos)]
        k += 1
        rng = np.random.Generator(np.random.PCG64(1000 + grids))
        f = GridFunction(q, d, rng.standard_normal(q**d) + 1j * rng.standard_normal(q**d))
        g = GridFunction(q, d, rng.standard_normal(q**d) + 1j * rng.standard_normal(q**d))
        rt, rt_tol, pd, pd_tol = _grid_defects(f, g)
        assert rt < rt_tol, f"round trip defect {rt} at q={q} d={d}"
        assert pd < pd_tol, f"Plancherel defect {pd} at q={q} d={d}"
        grids += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s, budget is 30s"
    _report(2, "fourier identities", f"{len(combos)} exhaustive combos + {grids} grids", t0)


def test_criterion_2_fails_a_relative_transform_error(monkeypatch):
    # the derived tolerances are rounding-sized: a forward transform a
    # relative 1e-9 off fails the first round trip
    real = fourier.forward

    def perturbed(f):
        F = real(f)
        return Spectrum(F.modulus, F.d, F.values * (1 + 1e-9))

    for mod in (cli, fourier):
        monkeypatch.setattr(mod, "forward", perturbed)
    with pytest.raises(AssertionError, match="round trip defect .* at q=3 d=1"):
        test_criterion_2_fourier_identities()


@functools.lru_cache(maxsize=None)
def _sphere_table(q, d):
    """The rows that `zqdist sphere --all-t` emits: per t, then t="all"."""
    return _sphere_rows(as_modulus(q), d, range(q), DEFAULT_GRID_BUDGET)


def test_criterion_3_sphere_counts():
    t0 = time.time()
    assert [int(c) for c in sphere_counts_all(3, 3)] == [9, 6, 12]
    checked = 0
    for q in SPHERE_QS:
        for d in SPHERE_DS:
            *per_t, total = _sphere_table(q, d)
            assert total["count_enum"] == q**d and total["passed"], f"partition fails at q={q} d={d}"
            for r in per_t:
                assert r["count_enum"] == r["count_formula"] == r["count_crt"], (q, d, r["t"])
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget is 2 min"
    _report(3, "sphere counts", f"{checked} (q,d,t) instances, enum=formula=crt", t0)


def test_criterion_4_sphere_error_bound():
    t0 = time.time()
    worst = 0.0
    for q in SPHERE_QS:
        for d in SPHERE_DS:
            *per_t, _ = _sphere_table(q, d)
            for r in per_t:
                assert r["bound_ok"], (q, d, r["t"])
                worst = max(worst, r["bound_ratio_max"])
    # frozen instance: q=3 d=3 t=1 has |II| = 3 against 9 / sqrt(3) = 5.196
    rep = sphere_size_bound_check(sphere_spec(3, 3, 1))
    assert rep.factors[0].ii_abs == 3
    assert abs(rep.factors[0].bound - 5.196152422706632) < 1e-9
    _report(4, "error-term bound", f"ratio <= 1 everywhere, max {worst:.4f}", t0)


def test_criterion_5_decay_bound():
    t0 = time.time()
    worst_ratio = 0.0
    for q in FOURIER_QS:
        # the rows that spectrum and verify-all emit
        for t, row in enumerate(_spectrum_rows(as_modulus(q), 3, range(q), DEFAULT_GRID_BUDGET)):
            diff = row["max_route_diff"]
            assert diff < row["route_tol"], f"two-route disagreement {diff} at q={q} t={t}"
            assert row["max_nonzero_coeff"] <= row["decay_bound"], (q, t, row)
            assert row["passed"], (q, t, row)
            worst_ratio = max(worst_ratio, row["ratio_to_bound"])
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s, budget is 2 min"
    _report(5, "spectral decay bound", f"max ratio {worst_ratio:.4f}", t0)


def _criterion6_sets():
    for q in FOURIER_QS:
        d = 3
        grid = q**d
        named = [
            ("full-grid", PointSet(q, d, itertools.product(range(q), repeat=d))),
            ("singleton", PointSet(q, d, [(0,) * d])),
        ]
        from zqdist.sphere import sphere_enumerate

        named.append(("sphere-t1", PointSet(q, d, sphere_enumerate(sphere_spec(q, d, 1)))))
        if q == 9:
            named.append(("lattice", construct_zero_distance_lattice(3, 2, d)))
        for k in range(50):
            size = 1 + (37 * k + 11 * q) % min(200, grid)
            named.append((f"random-{k}", sample_random_set(q, d, size, seed=10_000 * q + k)))
        for label, E in named:
            yield q, label, E


def test_criterion_6_nu_decomposition():
    t0 = time.time()
    instances = 0
    failures = 0
    for q, label, E in _criterion6_sets():
        hist = nu_pairs(E)
        for rep in nu_spectral_sweep(E):
            instances += 1
            if rep.nu != int(hist[rep.t]):
                failures += 1
        assert int(hist.sum()) == E.size**2
    assert failures == 0, f"{failures} of {instances} spectral counts disagree"
    _report(6, "nu decomposition", f"{instances} (set,t) instances, zero failures", t0)


def test_criterion_7_certificate_soundness():
    t0 = time.time()
    fired_total = 0
    for q, label, E in _criterion6_sets():
        hist = nu_pairs(E)
        for rep in nu_spectral_sweep(E):
            if rep.certificate_positive:
                fired_total += 1
                assert int(hist[rep.t]) > 0, f"certificate unsound at q={q} {label} t={rep.t}"
    # q=9, d=6 with |E| at the C=1 threshold: |E|^2 is past the pair budget,
    # and the autocorrelation of nu_histogram is the independent count
    thr = theorem_threshold(9, 6, 1.0)
    size = 177147
    assert size >= thr.threshold
    E = sample_random_set(9, 6, size, seed=2024)
    reports = nu_spectral_sweep(E, int_tol=1e-2)
    hist = nu_histogram(E)
    for rep in reports:
        assert rep.main_term - abs(rep.r_t) > 0, f"cannot certify t={rep.t}"
        assert rep.nu == int(hist[rep.t]) > 0, f"sweep and count disagree at t={rep.t}"
        if rep.certificate_positive:
            fired_total += 1
    # every distance is realized: Delta(E) = Z_9
    assert len(reports) == 9
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s, budget is 5 min"
    _report(7, "certificate soundness", f"fired {fired_total} times, Z_9 realized at d=6", t0)


def test_criterion_8_constructions():
    t0 = time.time()
    for d in range(1, 17):
        E = construct_even_weight(d)
        assert E.size == 2 ** (d - 1), d
        assert distance_set(E, max_pairs=2**31) == {0}, d
    for p, ell, d in ((3, 2, 3), (3, 3, 3), (5, 2, 3)):
        E = construct_zero_distance_lattice(p, ell, d)
        assert distance_set(E) == {0}, (p, ell, d)
        assert E.size == p ** ((ell // 2) * d)
    _report(8, "constructions", "even-weight d<=16 and three lattices, Delta={0}", t0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    args = ["verify-all", "--n-max", "20", "--q-max", "15", "--sets-per-q", "3"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main([*args, "--out", str(out1)]) == 0
    assert cli_main([*args, "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.count(b",false") == 0
    _report(9, "determinism", f"verify-all twice, {len(b1)} identical bytes", t0)
