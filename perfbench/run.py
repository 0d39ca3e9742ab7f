"""zqdist benchmark: each sample is one fresh process, run one after another.

    python3 perfbench/run.py --workload certificate_z9d6 --seed 2024 --seconds 40 --trace 0

Workloads are defined in workloads.py; `--workload all` runs each of them
for --seconds.  Between its samples, this process times the fixed
computation of reference.py (ref_s), which gauges how fast the machine runs
at the moment.  With --trace 0 the result reports the
end-to-end metrics:
    wall_rel       median wall_s / median ref_s, where wall_s is the
                   workload's compute time
    cpu_rel        median cpu_s / median ref_s, where cpu_s is the user+sys
                   CPU time of that compute (above wall_s when it runs in
                   parallel)
    items_per_ref  median items_per_s * median ref_s
    setup_s        median interpreter start, imports and input construction
    peak_rss_mb    median peak RSS of the sample process
The raw medians of wall_s, cpu_s, items_per_s and ref_s are printed above
the result line.  Failed or raised items count in `failed`; error_rate =
failed / attempted is printed with the metrics.  With --trace 1 the samples
alternate between untraced and traced processes; the result reports the
per-layer metrics of tracer.py, medians over the traced samples, the raw
medians of the untraced samples, and the tracing overhead as traced minus
untraced wall_s.  --smoke runs the reduced sizes used by the benchmark's
own tests.

Children run with BLAS pinned to one thread.  Spans, the verify-all CSV and
a full result record (run metadata, every sample) go to .perfbench_out/.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Pinned before numpy loads, here and in every sample process.
os.environ.update(BLAS_PIN)

from reference import reference_s  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("certificate_z9d6", "pair_counts", "verify_all")
END_TO_END = (("wall_rel", "ref"), ("setup_s", "s"), ("cpu_rel", "ref"),
              ("peak_rss_mb", "MB"), ("items_per_ref", "1/ref"))
RAW = (("wall_s", "s"), ("cpu_s", "s"), ("items_per_s", "1/s"))
# After each sample the reference is timed for at least this share of the
# sample's time: more would leave fewer samples in a run, less a noisier ref_s.
REF_SHARE = 0.15
# An untraced run takes at least this many samples, even past --seconds; a
# traced run takes at least one untraced and one traced sample.
MIN_SAMPLES = {"full": 3, "smoke": 1}
# A workload's run must end within 180 s; no sample starts that could end
# after this many seconds.
HARD_LIMIT_S = 165.0


def _output_of(cmd: list[str], **kwargs):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cache_bytes(level: int):
    value = _output_of(["getconf", f"LEVEL{level}_CACHE_SIZE"])
    return int(value) if value and value.isdigit() else None


def _git_commit():
    # The ceiling keeps git from reading repositories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return _output_of(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env)


def _sample(workload: str, seed: int, size: str, traced: bool, timeout: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), size,
           "1" if traced else "0", repr(t0), OUT_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "attempted": 1, "failed": 1,
                "failures": [f"sample exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"attempted": 1, "failed": 1,
                  "failures": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    record["traced"] = traced
    record["elapsed_s"] = time.monotonic() - t0
    return record


def _collect(workload: str, seed: int, seconds: float, size: str, trace: bool):
    """(samples, reference times), in sequence until the next sample and
    the references after it would end after `seconds`.

    After each sample the reference is timed once, and again until its time
    since that sample reaches REF_SHARE of the sample's, so that a workload
    with few long samples is gauged as closely as one with many short ones.
    """
    samples, refs = [], []
    kinds = itertools.cycle((False, True) if trace else (False,))
    minimum = 2 if trace else MIN_SAMPLES[size]
    start = time.monotonic()
    longest = 0.0
    while True:
        now = time.monotonic()
        if len(samples) >= minimum and now - start + longest > seconds:
            break
        timeout = start + HARD_LIMIT_S - now
        if samples and longest > timeout:
            break
        samples.append(_sample(workload, seed, size, next(kinds), timeout))
        gauged = 0.0
        while gauged == 0.0 or gauged < REF_SHARE * samples[-1].get("elapsed_s", 0.0):
            refs.append(reference_s())
            gauged += refs[-1]
        longest = max(longest, time.monotonic() - now)
        if "wall_s" not in samples[-1]:
            break
    return samples, refs


def _summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(values)}


def _metrics(samples: list[dict], trace: bool, raw: dict) -> dict:
    plain = [s for s in samples if not s["traced"] and "wall_s" in s]
    traced = [s for s in samples if s["traced"] and "layers" in s]
    out = {}
    if not trace:
        if not plain:
            return out
        ref = raw["ref_s"]["median"]
        out["wall_rel"] = {"median": raw["wall_s"]["median"] / ref, "unit": "ref"}
        out["setup_s"] = dict(_summary([s["setup_s"] for s in plain]), unit="s")
        out["cpu_rel"] = {"median": raw["cpu_s"]["median"] / ref, "unit": "ref"}
        out["peak_rss_mb"] = dict(_summary([s["peak_rss_mb"] for s in plain]), unit="MB")
        out["items_per_ref"] = {"median": raw["items_per_s"]["median"] * ref, "unit": "1/ref"}
        for m in out.values():
            m.setdefault("n", len(plain))
        return out
    out.update((f"raw.{name}", m) for name, m in raw.items())
    for name, unit in LAYER_METRICS:
        if traced:
            out[name] = dict(_summary([s["layers"][name] for s in traced]), unit=unit)
    traced_wall = [s["wall_s"] for s in traced if "wall_s" in s]
    if plain and traced_wall:
        out["trace.wall_s"] = dict(_summary(traced_wall), unit="s")
        overhead = statistics.median(traced_wall) - statistics.median(s["wall_s"] for s in plain)
        out["trace.overhead_s"] = {"median": overhead, "n": len(traced_wall), "unit": "s"}
    return out


def _run_one(workload: str, args, size: str) -> dict:
    samples, refs = _collect(workload, args.seed, args.seconds, size, bool(args.trace))
    attempted = sum(s.get("attempted", 0) for s in samples)
    failed = sum(s.get("failed", 0) for s in samples)
    plain = [s for s in samples if not s["traced"] and "wall_s" in s]
    raw = {name: dict(_summary([s[name] for s in plain]), unit=unit)
           for name, unit in RAW if plain}
    raw["ref_s"] = dict(_summary(refs), unit="s")
    metrics = _metrics(samples, bool(args.trace), raw)
    if args.trace:
        metrics["error_rate"] = {"median": failed / attempted, "n": len(samples),
                                 "unit": "ratio"}
    return {"workload": workload, "size": size, "attempted": attempted, "failed": failed,
            "metrics": metrics, "raw": raw, "ref_s": refs, "samples": samples}


def _print_summary(res: dict) -> None:
    wl = res["workload"]
    raw = {f"raw.{name}": m for name, m in res["raw"].items()}
    for name, m in {**raw, **res["metrics"]}.items():
        spread = f" q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"{wl} {name} {m['median']:.6g} {m['unit']} (median of {m['n']}{spread})")
    if "error_rate" not in res["metrics"]:
        rate = res["failed"] / res["attempted"]
        print(f"{wl} error_rate {rate:.6g} ratio ({res['failed']} of {res['attempted']} items failed)")
    for s in res["samples"]:
        for line in s.get("failures", []):
            print(f"{wl} FAILED: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "zqdist", "__init__.py")):
        print(f"error: no zqdist sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    size = "smoke" if args.smoke else "full"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [_run_one(wl, args, size) for wl in workloads]

    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": size,
        "trace": args.trace,
        "samples": {r["workload"]: len(r["samples"]) for r in results},
    }
    meta.update(next((s["meta"] for r in results for s in r["samples"] if "meta" in s), {}))
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "results": results}, fh, indent=1)

    print("meta " + json.dumps(meta))
    for res in results:
        _print_summary(res)
    prefix = args.workload == "all"
    metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["median"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
