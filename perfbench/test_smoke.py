"""Tests of the benchmark itself, on the reduced smoke sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from oracle import nu_by_autocorrelation  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(SIZES["smoke"]) == set(SIZES["full"]) == set(WORKLOADS)


@pytest.mark.parametrize("q,d,n", [(3, 2, 5), (5, 3, 40), (2, 4, 9), (9, 2, 30)])
def test_oracle_matches_pair_scan(q, d, n):
    rng = np.random.default_rng(q * 100 + d)
    flat = rng.choice(q**d, size=n, replace=False)
    points = np.array(np.unravel_index(flat, (q,) * d)).T
    want = np.zeros(q, dtype=np.int64)
    for x, y in itertools.product(points.tolist(), repeat=2):
        want[sum((a - b) ** 2 for a, b in zip(x, y)) % q] += 1
    got, residual = nu_by_autocorrelation(q, d, points)
    assert residual < 1e-9
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _smoke(workload: str, tmp_path):
    wl = WORKLOADS[workload](SIZES["smoke"][workload], 7, str(tmp_path))
    return wl, wl.run()


def test_pair_counts_check_catches_a_wrong_count(tmp_path):
    wl, (delta, hist) = _smoke("pair_counts", tmp_path)
    assert wl.check((delta, hist)) == []
    moved = hist.copy()
    moved[0] -= 1
    moved[1] += 1
    assert len(wl.check((delta, moved))) == 2
    assert wl.check(({0, 1}, hist))


def test_verify_all_check_catches_a_missing_row(tmp_path):
    wl, rc = _smoke("verify_all", tmp_path)
    assert wl.check(rc) == []
    with open(wl.out_path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(wl.out_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    assert len(wl.check(rc)) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pair_counts", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
