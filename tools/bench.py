"""`python3 tools/bench.py PR [REV]` writes BENCH_<PR>.json at the repo root: perfbench/run.py 3 x 10 s
per workload (median, IQR and runs of each end-to-end metric, and of the unscaled `raw_ops_per_s`
and the calibration probe's `kernel_ms_p50` from each run's record line, which tell a change of
the program from a change of the probe), 12 wall times each of `import mdiqkd`,
`mdiqkd scan` and `mdiqkd optimize --scenario H1 --distance 100`, the core count, versions and the
git commit.  It prints each metric's change against the highest-numbered earlier BENCH_*.json,
with that file's IQR beside it.  The wall times are paired against REV (default HEAD~1, the
change's parent): REV is extracted with `git archive` into a temporary directory, deleted
afterwards, and each run on the working tree alternates with one on REV's, whose summary is
stored in the entry as `parent` with `pairs_won`, the number of pairs the working tree ran
faster."""
import json, math, os, platform, re, statistics, subprocess, sys, tempfile, timeit
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WALL = {
    "import_s": ("-c", "import mdiqkd"),
    "scan_s": ("-m", "mdiqkd", "scan"),
    "optimize_s": ("-m", "mdiqkd", "optimize", "--scenario", "H1", "--distance", "100"),
}

# unscaled throughput and the calibration probe of each run, from its record line
RECORD_KEYS = ("raw_ops_per_s", "kernel_ms_p50")
# alternating (REV, working tree) wall-time pairs per command
PAIRS = 12


def run(*args: str, tree: Path = ROOT) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(args, cwd=tree, env=env, check=True, capture_output=True, text=True).stdout


def wall(args: tuple, tree: Path) -> float:
    return timeit.timeit(lambda: run(sys.executable, *args, tree=tree), number=1)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "runs": values}


def medians(bench: dict) -> dict:
    """(median, IQR) by metric name; older files hold wall times as bare medians."""
    out = {}
    for key, entry in bench.items():
        if isinstance(entry, float):
            out[key] = (entry, None)
        elif isinstance(entry, dict) and "median" in entry:
            out[key] = (entry["median"], entry["iqr"])
        elif isinstance(entry, dict):
            out.update({f"{key}.{m}": (v["median"], v["iqr"]) for m, v in entry.items() if m != "failed"})
    return out


pr = int(sys.argv[1])
rev = sys.argv[2] if len(sys.argv) > 2 else "HEAD~1"
prev = max((int(m[1]) for p in ROOT.glob("BENCH_*.json")
            if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and int(m[1]) < pr), default=None)
prev_bench = json.loads((ROOT / f"BENCH_{prev}.json").read_text()) if prev is not None else {}
out = {"commit": run("git", "rev-parse", "HEAD").strip(), "nproc": os.cpu_count(),
       "python": platform.python_version(), "numpy": version("numpy")}
with tempfile.TemporaryDirectory() as tmp:
    parent = run("git", "rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    for key, args in WALL.items():
        pairs = [(wall(args, Path(tmp)), wall(args, ROOT)) for _ in range(PAIRS)]
        out[key] = summary([head for _, head in pairs])
        out[key]["parent"] = dict(summary([base for base, _ in pairs]), commit=parent)
        out[key]["pairs_won"] = sum(head < base for base, head in pairs)
for name in (w["name"] for w in SPEC["workloads"]):
    outputs = [run(sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", "10").splitlines() for seed in (1, 2, 3)]
    runs = [json.loads(lines[-1]) for lines in outputs]
    records = [json.loads(line)["record"] for lines in outputs for line in lines
               if line.startswith('{"record"')]
    out[name] = {"failed": sum(r["failed"] for r in runs)}
    for metric in (m["name"] for m in SPEC["end_to_end"]):
        out[name][metric] = summary([r["metrics"][metric]["value"] for r in runs])
    for key in RECORD_KEYS:
        out[name][key] = summary([r[key] for r in records])
(ROOT / f"BENCH_{pr}.json").write_text(json.dumps(out, indent=1) + "\n")

for key in WALL:
    base, head = out[key]["parent"]["median"], out[key]["median"]
    print(f"{key}: {rev} {base:.4g} s, HEAD {head:.4g} s ({(head - base) / base:+.1%}), "
          f"HEAD faster in {out[key]['pairs_won']} of {PAIRS} pairs")
if prev is not None:
    base = medians(prev_bench)
    print(f"{'metric':<26}{f'BENCH_{prev}':>12}{'IQR':>10}{f'BENCH_{pr}':>12}{'change':>9}")
    for key, (new, _) in medians(out).items():
        old, iqr = base.get(key, (math.nan, None))  # nan: a metric the earlier file lacks
        iqr_text = "-" if iqr is None else f"{iqr:.3g}"
        change = "new" if math.isnan(old) else f"{(new - old) / old:+.1%}"
        print(f"{key:<26}{old:>12.4g}{iqr_text:>10}{new:>12.4g}{change:>9}")
