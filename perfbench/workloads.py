"""The benchmark workloads: inputs made from a seed, the timed calls, the checks.

Each workload chooses its inputs so that a different zqdist module does most
of the work:

certificate_z9d6
    One cold Z_9^6 grid: the positivity certificate for a random set at the
    C = 1 threshold (|E| = 177147), by both sphere-spectrum routes.  |E|^2
    exceeds the pair budget, so only the spectral sweep runs.  int_tol is
    1e-2: the default 1e-6 fails on this input (nu(7) lands 1.4e-6 from its
    integer), a known defect that stays visible as max_int_residual.
pair_counts
    Exhaustive pair scans only: the distance set of the Z_2^16 even-weight
    set (parity-table path, 2^30 pairs) and nu(t) of a random Z_15^5 set
    (general block scan).  Fourier, sphere and gauss stay idle.
verify_all
    `zqdist verify-all` as users run it: thousands of small calls, mostly the
    Gauss oracle sweep, with warm sphere-spectrum caches and CSV output.

SIZES["smoke"] shrinks every workload for the benchmark's own tests; the
measured sizes are SIZES["full"].  zqdist functions are looked up through the
package at call time, so a traced run sees these calls too.
"""

from __future__ import annotations

import csv
import os

import numpy as np

import zqdist
import zqdist.cli

from oracle import MAX_RINT_RESIDUAL, nu_by_autocorrelation, verify_all_keys

SIZES = {
    "full": {
        "certificate_z9d6": {"q": 9, "d": 6, "size": 177147},
        "pair_counts": {"even_weight_d": 16, "q": 15, "d": 5, "size": 6000},
        "verify_all": {"n_max": 70, "q_max": 27, "sets_per_q": 5},
    },
    "smoke": {
        "certificate_z9d6": {"q": 5, "d": 5, "size": 1500},
        "pair_counts": {"even_weight_d": 8, "q": 15, "d": 3, "size": 400},
        "verify_all": {"n_max": 12, "q_max": 9, "sets_per_q": 1},
    },
}

CERTIFICATE_ROUTES = ("direct", "formula")
CERTIFICATE_INT_TOL = 1e-2


class Certificate:
    """certificate_check on one random set, once per sphere-spectrum route."""

    def __init__(self, p: dict, seed: int, work_dir: str) -> None:
        self.p = p
        self.E = zqdist.sample_random_set(p["q"], p["d"], p["size"], seed)
        # certificate_check keeps its nu(t) inside; record the sweeps it runs
        # so the counts can be compared with the oracle.
        self.sweeps = []
        sweep = zqdist.distset.nu_spectral_sweep

        def recorded(*args, **kwargs):
            reports = sweep(*args, **kwargs)
            self.sweeps.append(reports)
            return reports

        zqdist.distset.nu_spectral_sweep = recorded

    def planned(self) -> int:
        return len(CERTIFICATE_ROUTES) * self.p["q"]

    def run(self):
        return [zqdist.certificate_check(self.E, route, int_tol=CERTIFICATE_INT_TOL)
                for route in CERTIFICATE_ROUTES]

    def items(self, out) -> int:
        return sum(len(rows) for rows in out)

    def check(self, out) -> list[str]:
        q, d, n = self.p["q"], self.p["d"], self.E.size
        nu, residual = nu_by_autocorrelation(q, d, self.E.array())
        if residual > MAX_RINT_RESIDUAL or int(nu.sum()) != n * n:
            return [f"oracle: residual {residual}, sum {int(nu.sum())} != {n * n}"] * self.planned()
        if len(self.sweeps) != len(out):
            return [f"recorded {len(self.sweeps)} sweeps for {len(out)} routes"] * self.planned()
        failures = []
        for route, rows, reports in zip(CERTIFICATE_ROUTES, out, self.sweeps):
            got = {rep.t: rep.nu for rep in reports}
            for t in range(q):
                row = next((r for r in rows if r.t == t), None)
                if row is None or not row.sound or not row.margin > 0 or got.get(t) != nu[t]:
                    failures.append(f"{route} t={t}: row {row}, nu {got.get(t)} != {nu[t]}")
        return failures


class PairCounts:
    """distance_set of the even-weight set, nu_histogram of a random set."""

    def __init__(self, p: dict, seed: int, work_dir: str) -> None:
        self.p = p
        self.even = zqdist.construct_even_weight(p["even_weight_d"])
        self.E = zqdist.sample_random_set(p["q"], p["d"], p["size"], seed)

    def planned(self) -> int:
        return 1 + self.p["q"]

    def run(self):
        return zqdist.distance_set(self.even, max_pairs=2**31), zqdist.nu_histogram(self.E)

    def items(self, out) -> int:
        return self.even.size**2 + self.E.size**2

    def check(self, out) -> list[str]:
        delta, hist = out
        failures = []
        ew_nu, ew_res = nu_by_autocorrelation(2, self.even.d, self.even.array())
        ew_delta = {int(t) for t in np.flatnonzero(ew_nu)}
        if ew_res > MAX_RINT_RESIDUAL or ew_delta != {0} or delta != ew_delta:
            failures.append(f"even-weight distance set {sorted(delta)}, oracle {sorted(ew_delta)}")
        q, n = self.p["q"], self.E.size
        nu, residual = nu_by_autocorrelation(q, self.p["d"], self.E.array())
        if residual > MAX_RINT_RESIDUAL or int(nu.sum()) != n * n or int(hist.sum()) != n * n:
            return failures + [f"nu sums {int(hist.sum())}, oracle {int(nu.sum())}, |E|^2 {n * n}"] * q
        failures += [f"nu({t}) = {hist[t]} != {nu[t]}" for t in range(q) if hist[t] != nu[t]]
        return failures


class VerifyAll:
    """`zqdist verify-all` through cli.main, writing its CSV to a file."""

    def __init__(self, p: dict, seed: int, work_dir: str) -> None:
        self.p = p
        self.out_path = os.path.join(work_dir, "verify_all.csv")
        self.argv = [
            "verify-all", "--n-max", str(p["n_max"]), "--q-max", str(p["q_max"]),
            "--sets-per-q", str(p["sets_per_q"]), "--seed", str(seed), "--out", self.out_path,
        ]
        self.keys = verify_all_keys(p["n_max"], p["q_max"], p["sets_per_q"])

    def planned(self) -> int:
        return len(self.keys)

    def run(self):
        return zqdist.cli.main(self.argv)

    def _rows(self) -> list[dict]:
        with open(self.out_path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def items(self, out) -> int:
        return len(self._rows())

    def check(self, out) -> list[str]:
        rows = self._rows()
        got = {(r["check"], r["instance"]) for r in rows}
        failures = [f"{r['check']} {r['instance']} did not pass" for r in rows if r["passed"] != "true"]
        failures += [f"missing row {k}" for k in sorted(self.keys - got)]
        failures += [f"unexpected row {k}" for k in sorted(got - self.keys)]
        if len(rows) != len(got):
            failures.append(f"{len(rows) - len(got)} duplicate rows")
        if out != 0 and not failures:
            failures.append(f"exit code {out}")
        return failures


WORKLOADS = {
    "certificate_z9d6": Certificate,
    "pair_counts": PairCounts,
    "verify_all": VerifyAll,
}
