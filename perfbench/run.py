"""The mdiqkd benchmark: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json): `scan`, `relay_sweep`,
`bound_batch`.  Each run starts fresh interpreters, as a command-line
user's run does; everything runs on one thread with BLAS pinned to one
thread.

--trace 0 measures the end-to-end metrics: `setup_s` (median wall time
of `import mdiqkd` over several fresh interpreters), `ops_per_s`,
`op_ms_p50`, `op_ms_tail` and `peak_rss_mb`.  `failed_frac` is printed
with them and carried by the result's `failed`/`attempted` counts.

--trace 1 measures the per-layer metrics instead: it runs the workload
untraced for half the run, then runs the same ops again with spans
around the program's public functions, and reports calls and self time
per function, cache counters, ratios, the numpy/scipy import split, and
the tracing overhead.

Stdout: one `name value unit` line per metric, one `{"record": ...}`
line with the run record (versions, commit, op counts, spans), and last
the result object `{"correct", "attempted", "failed", "metrics"}`.
`compare.py` reads the record lines of two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mdiqkd; "
                "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark could not run: no program to measure, or a child failed."""


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def import_probe(*flags: str) -> tuple[subprocess.CompletedProcess, float]:
    """`import mdiqkd` in a fresh interpreter, with the calibration factor around it."""
    before = calibrate.probe_ms()
    proc = run_child([*flags, "-c", IMPORT_PROBE])
    return proc, calibrate.scale((before + calibrate.probe_ms()) / 2.0)


def setup_seconds() -> tuple[float, float]:
    """Median time of `import mdiqkd` over fresh interpreters: rescaled, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc, factor = import_probe()
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


def import_split(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy and scipy, from `python -X importtime` output.

    An entry counts once, at its outermost appearance: a numpy module
    imported by scipy is part of scipy's time, not numpy's.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, label = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = label.rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0}
    ancestors: list[str] = []
    # children precede their parent in the output; walk it backwards so each
    # entry's ancestors are already on the stack
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth - 1:]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] in totals for a in ancestors):
            totals[top] += cumulative
        ancestors.append(name)
    return totals


def worker(workload: str, seed: int, seconds: float, ops: int | None = None,
           trace: bool = False) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]
    if ops is not None:
        args += ["--ops", str(ops)]
    if trace:
        args.append("--trace")
    return json.loads(run_child(args).stdout.splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup, raw_setup = setup_seconds()
    run = worker(workload, seed, seconds)
    run["raw_setup_s"] = raw_setup
    run["raw_ops_per_s"] = run["ops"] / run["wall_s"]
    run["attempted"] = run["ops"]
    metrics = {
        "setup_s": setup,
        "ops_per_s": run["ops"] / run["scaled_wall_s"],
        "op_ms_p50": run["op_ms_p50"],
        "op_ms_tail": run["op_ms_tail"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, run


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    probe, setup_scale = import_probe("-X", "importtime")
    split = import_split(probe.stderr)
    base = worker(workload, seed, seconds / 2.0)
    run = worker(workload, seed, seconds, ops=base["ops"], trace=True)
    layers = run["layers"]
    layers["setup.numpy_s"] = split["numpy"] * setup_scale
    layers["setup.scipy_s"] = split["scipy"] * setup_scale
    covered = sum(s["self_s"] for s in run["spans"])
    # the same factor as the self times, so they and the remainder add up to it
    layers["trace.wall_s"] = run["wall_s"] * calibrate.scale(run["kernel_ms_p50"])
    layers["trace.unaccounted_frac"] = (run["wall_s"] - covered) / run["wall_s"]
    layers["trace.overhead_frac"] = (
        run["scaled_wall_s"] - base["scaled_wall_s"]) / base["scaled_wall_s"]
    run["untraced_wall_s"] = base["wall_s"]
    run["attempted"] = run["ops"] + base["ops"]
    run["failed"] += base["failed"]
    run["problems"] += base["problems"]
    return layers, run


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "relay_sweep", "bound_batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "mdiqkd" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {SRC / 'mdiqkd'} is missing")
        measure = per_layer if args.trace else end_to_end
        metrics, run = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = run["attempted"]
    failed = run["failed"]
    unit_of = units()
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {unit_of[name]}")
    print(f"{args.workload} failed_frac {failed / attempted} ratio")
    for problem in run["problems"]:
        print(f"{args.workload} problem: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "versions": run["versions"], "ops": run["ops"], "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "tail_percentile": run["tail_percentile"],
        "ops_beyond_tail": run["ops_beyond_tail"], "caches": run["caches"],
        "metrics": metrics,
    }
    for key in ("wall_s", "scaled_wall_s", "kernel_ms_p50", "raw_op_ms_p50", "raw_ops_per_s",
                "raw_setup_s", "untraced_wall_s", "spans"):
        if key in run:
            record[key] = run[key]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
