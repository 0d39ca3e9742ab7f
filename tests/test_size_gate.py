"""Calls whose size comes from a huge argument must be refused at once.

Each call runs in a child process under a 2 GiB address-space cap and a
timeout, so a call that forms q^d, or factors by trial division, before it
checks its bound fails the test instead of hanging the suite.
"""

import json
import os
import subprocess
import sys

import pytest

import zqdist

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(zqdist.__file__)))

_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from zqdist import cli
from zqdist.arith import factorize
from zqdist.distset import sample_random_set
from zqdist.fourier import (
    GridFunction, check_grid_budget, half_weights, orbit_inverse, orbit_power)
from zqdist.sphere import sphere_counts_all
start = time.perf_counter()
try:
    result = repr(eval(sys.argv[1]))
except Exception as exc:
    result = type(exc).__name__
print(json.dumps([result, time.perf_counter() - start]))
"""


def run_capped(call: str) -> tuple[str, float]:
    """(repr of the result or the name of the error, seconds taken) of one
    call evaluated in a capped child process."""
    env = dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHILD, call], capture_output=True,
                          text=True, timeout=30, env=env)
    result, seconds = json.loads(proc.stdout.splitlines()[-1])
    return result, seconds


@pytest.mark.parametrize("call,expected", [
    ("check_grid_budget(2, 2**40)", "BudgetError"),
    ("check_grid_budget(-3, 2**40)", "BudgetError"),
    ("sphere_counts_all(2, 2**40)", "BudgetError"),
    ("orbit_power(np.array([0]), 2, 2**40)", "BudgetError"),
    ("orbit_inverse(np.ones(1), 2, 2**40)", "DomainError"),
    ("GridFunction(2, 2**40, [0j])", "DomainError"),
    ("half_weights(10**12)", "BudgetError"),
    ("half_weights(10**20)", "BudgetError"),
    ('cli.main(["certificate", "--random", "20000", "--q", "2", "--d", str(2**40)])', "2"),
    ('cli.main(["sphere", "--q", "2", "--d", str(2**40), "--t", "0"])', "2"),
    # q = 2^61 - 1 factors at once; then the grid budget refuses its histogram
    ('cli.main(["nu", "--random", "3", "--q", str(2**61 - 1), "--d", "1", "--seed", "1"])', "2"),
])
def test_refused_at_once(call, expected):
    result, seconds = run_capped(call)
    assert result == expected and seconds < 1, (result, seconds)


@pytest.mark.parametrize("call,expected", [
    ("factorize(2**61 - 1)", "Modulus(2305843009213693951 = 2305843009213693951)"),
    ("factorize(2147483629 * 2147483647)", "Modulus(4611685975477714963 = 2147483629 * 2147483647)"),
    ("sample_random_set(2**61 - 1, 1, 3, 1)", "PointSet(q=2305843009213693951, d=1, size=3)"),
])
def test_large_moduli_factor_at_once(call, expected):
    result, seconds = run_capped(call)
    assert result == expected and seconds < 1, (result, seconds)
