"""One benchmark sample in a fresh process: set up, time the workload, check it.

    python3 perfbench/child.py WORKLOAD SEED SIZE TRACE T0 WORK_DIR

T0 is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, imports and input construction; wall_s and
cpu_s cover the workload's timed calls only.  The last line of stdout is one
JSON object with the sample's measurements.  Resource use is read before the
correctness oracle runs, so the oracle does not count.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _meta() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    workload, seed, size, trace, t0, work_dir = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import zqdist
    from workloads import SIZES, WORKLOADS

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(zqdist)
    result = {}
    wl = None
    try:
        wl = WORKLOADS[workload](SIZES[size][workload], int(seed), work_dir)
        result["setup_s"] = time.monotonic() - float(t0)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        out = wl.run()
        wall = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        failures = wl.check(out)
        result.update(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime - before.ru_utime - before.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            items_per_s=wl.items(out) / wall,
            attempted=wl.planned(),
            failed=min(len(failures), wl.planned()),
            failures=failures[:20],
        )
    except Exception:  # a raised exception fails every item of the sample
        traceback.print_exc()
        planned = wl.planned() if wl is not None else 1
        result.update(attempted=planned, failed=planned, failures=[traceback.format_exc(limit=3)])
    result["meta"] = _meta()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(os.path.join(work_dir, f"spans-{workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
