"""`python3 tools/bench.py PR` writes BENCH_<PR>.json at the repo root: perfbench/run.py 3 x 10 s per
workload (median and IQR of each end-to-end metric), median-of-5 wall times of `import mdiqkd` and
the default `mdiqkd scan`, the core count, versions and the git commit."""
import json, os, platform, statistics, subprocess, sys, timeit
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run(*args: str) -> str:
    return subprocess.run(args, cwd=ROOT, env=ENV, check=True, capture_output=True, text=True).stdout


out = {"commit": run("git", "rev-parse", "HEAD").strip(), "nproc": os.cpu_count(),
       "python": platform.python_version(), "numpy": version("numpy")}
for key, args in (("import_s", ("-c", "import mdiqkd")), ("scan_s", ("-m", "mdiqkd", "scan"))):
    out[key] = statistics.median(timeit.repeat(lambda: run(sys.executable, *args), number=1, repeat=5))
for name in (w["name"] for w in SPEC["workloads"]):
    runs = [json.loads(run(sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                           "--seconds", "10").splitlines()[-1]) for seed in (1, 2, 3)]
    out[name] = {"failed": sum(r["failed"] for r in runs)}
    for metric in (m["name"] for m in SPEC["end_to_end"]):
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name][metric] = {"median": median, "iqr": q3 - q1, "runs": values}
(ROOT / f"BENCH_{sys.argv[1]}.json").write_text(json.dumps(out, indent=1) + "\n")
