"""One workload run in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --workload scan --seed 1 --seconds 25 [--ops N] [--trace]

`run.py` starts this with `src/` on PYTHONPATH and BLAS pinned to one
thread.  The timed phase is a closed loop with one caller: the next op
starts when the previous one returns.  With `--ops N` it runs exactly N
ops instead of running for `--seconds`.

The clock stops every PROBE_EVERY_S for a calibration probe (see
calibrate.py) and to check the outputs of the ops since the last stop,
so the checks stay outside the timed region and the outputs held in
memory do not grow with the op count.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy
import scipy

import calibrate
import mdiqkd
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# the oracles that relay_sweep checks its tables against
sys.path.append(str(ROOT / "tests"))

MAX_PROBLEMS = 5
PROBE_EVERY_S = 0.1


class Raised:
    """The output of an op that raised: a failed op, and the run goes on."""

    def __init__(self) -> None:
        self.text = traceback.format_exc(limit=3)


class Timings:
    """Op latencies and timed wall, raw and rescaled by the calibration probes."""

    def __init__(self) -> None:
        self.raw = array("d")
        self.scaled = array("d")
        self.wall = 0.0
        self.scaled_wall = 0.0
        self.kernel_ms = array("d")


def run_ops(work, seconds: float, max_ops: int | None):
    """Closed loop over ops; returns the timings, the failed count and some problems."""
    timings = Timings()
    failed, problems = 0, []
    kernel_before = calibrate.probe_ms()
    timings.kernel_ms.append(kernel_before)

    def more() -> bool:
        if max_ops is not None:
            return len(timings.raw) < max_ops
        return timings.wall < seconds

    while more():
        batch = []
        start = time.perf_counter()
        while time.perf_counter() - start < PROBE_EVERY_S and (
                max_ops is None or len(timings.raw) < max_ops):
            op = work.next_op()
            t = time.perf_counter()
            try:
                out = work.run(op)
            except Exception:
                out = Raised()
            timings.raw.append(time.perf_counter() - t)
            batch.append((op, out))
        segment = time.perf_counter() - start
        # the clock is stopped from here to the next segment
        kernel_after = calibrate.probe_ms()
        timings.kernel_ms.append(kernel_after)
        factor = calibrate.scale((kernel_before + kernel_after) / 2.0)
        kernel_before = kernel_after
        timings.wall += segment
        timings.scaled_wall += segment * factor
        timings.scaled.extend(lat * factor for lat in timings.raw[-len(batch):])
        for op, out in batch:
            problem = f"raised {out.text}" if isinstance(out, Raised) else work.check(op, out)
            if problem:
                failed += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append(problem)
    return timings, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed)
    work.prepare()
    tracer = spans.Tracer() if args.trace else None
    caches_before = spans.cache_counters()
    if tracer:
        tracer.install()
    try:
        timings, failed, problems = run_ops(work, args.seconds, args.ops)
    finally:
        if tracer:
            tracer.uninstall()
    caches = spans.cache_delta(caches_before, spans.cache_counters())
    ms = numpy.array(timings.scaled) * 1e3
    tail = float(numpy.percentile(ms, work.tail_percentile))
    kernel_ms = statistics.median(timings.kernel_ms)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ms),
        "failed": failed,
        "problems": problems,
        "wall_s": timings.wall,
        "scaled_wall_s": timings.scaled_wall,
        "kernel_ms_p50": kernel_ms,
        "raw_op_ms_p50": float(numpy.percentile(timings.raw, 50)) * 1e3,
        "op_ms_p50": float(numpy.percentile(ms, 50)),
        "op_ms_tail": tail,
        "tail_percentile": work.tail_percentile,
        "ops_beyond_tail": int((ms > tail).sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "caches": caches,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mdiqkd": mdiqkd.__version__},
    }
    if tracer:
        out["layers"] = spans.layer_metrics(tracer, caches, calibrate.scale(kernel_ms))
        out["spans"] = tracer.table()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
