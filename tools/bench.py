"""`python3 tools/bench.py PR [REV]` compares the working tree's speed with REV's (default
HEAD~1, the change's parent) and writes BENCH_<PR>.json at the repo root.  Both sides run from
fresh temporary directories: REV's files from `git archive`, and a copy of the working tree's
tracked and untracked files that git does not ignore.  Each measurement runs in alternating
pairs: pair i runs both trees with seed PR*100 + i, REV first when i is even.  Per
BENCHMARK.json workload it runs `perfbench/run.py --seconds <run_seconds>` in 12 pairs for
scan (whose `op_ms_p50` is bimodal between runs) and 10 for the others, and it times `import
mdiqkd`, `mdiqkd scan` and `mdiqkd optimize --scenario H1 --distance 100` in 12 pairs each.
Per metric the file holds each side's median, IQR and runs and perfbench/compare.py's verdict
on the pairs under BENCHMARK.json's `better` and `bound`; the wall times and each run
record's unscaled `raw_ops_per_s` and calibration probe `kernel_ms_p50` have no bound.  It
also holds each side's failed ops, the core count, versions, numpy's OpenBLAS kernel and both
commits, and prints one table of every metric.  The defaults take about 45 minutes."""
import ctypes, json, os, platform, shutil, subprocess, sys, tempfile, timeit
from importlib.metadata import version
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import compare  # noqa: E402  the benchmark's pairing rule

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WALL = {
    "import_s": ("-c", "import mdiqkd"),
    "scan_s": ("-m", "mdiqkd", "scan"),
    "optimize_s": ("-m", "mdiqkd", "optimize", "--scenario", "H1", "--distance", "100"),
}
WALL_PAIRS = 12
PERFBENCH_PAIRS = {"scan": 12, "relay_sweep": 10, "bound_batch": 10}
# the unscaled throughput and the calibration probe of each run, from its record line
RECORD_KEYS = {"raw_ops_per_s": "higher", "kernel_ms_p50": "lower"}


def run(*args: str, tree: Path = ROOT) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(args, cwd=tree, env=env, check=True, capture_output=True, text=True).stdout


def wall(args: tuple, tree: Path) -> float:
    return timeit.timeit(lambda: run(sys.executable, *args, tree=tree), number=1)


def perfbench(workload: str, tree: Path, seed: int) -> dict:
    """The record line of one end-to-end perfbench run of the tree."""
    lines = run(sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), tree=tree).splitlines()
    return next(json.loads(line)["record"] for line in lines if line.startswith('{"record"'))


def paired(n: int, first_seed: int, measure, parent: Path, change: Path) -> list[tuple]:
    """n pairs of (seed, measure(parent, seed), measure(change, seed)), the parent first in
    even pairs and the change first in odd ones."""
    out = []
    for i, seed in enumerate(range(first_seed, first_seed + n)):
        got = {tree: measure(tree, seed) for tree in ((parent, change), (change, parent))[i % 2]}
        out.append((seed, got[parent], got[change]))
    return out


def trees(rev_commit: str, tmp: str) -> tuple[Path, Path]:
    """(REV's tree, the working tree's copy) under tmp: the same kind of fresh directory for
    each side, so that neither runs from the repo itself."""
    parent, change = Path(tmp) / "parent", Path(tmp) / "change"
    parent.mkdir()
    subprocess.run(["tar", "-x", "-C", str(parent)], check=True, input=subprocess.run(
        ["git", "archive", rev_commit], cwd=ROOT, check=True, capture_output=True).stdout)
    files = run("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (change / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, change / name)
    return parent, change


def judged(pairs: list[tuple], value, better: str, bound: float | None = None) -> dict:
    """Each side's median, IQR and runs of value(result), and compare.verdict on the pairs."""
    base = [(seed, value(result)) for seed, result, _ in pairs]
    new = [(seed, value(result)) for seed, _, result in pairs]
    entry = {}
    for side, runs in (("parent", base), ("change", new)):
        q1, median, q3 = compare.quartiles([v for _, v in runs])
        entry[side] = {"median": median, "iqr": q3 - q1, "runs": [v for _, v in runs]}
    return dict(entry, verdict=compare.verdict(base, new, better, bound))


def openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked on this CPU; None without one."""
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        get.argtypes, get.restype = [], ctypes.c_char_p
        return get().decode()
    return None


def main(pr: int, rev: str) -> None:
    parent_commit = run("git", "rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    out = {"commit": run("git", "rev-parse", "HEAD").strip(), "parent": parent_commit,
           "first_seed": pr * 100, "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": version("numpy"), "openblas_core": openblas_core()}
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = trees(parent_commit, tmp)
        for key, args in WALL.items():
            pairs = paired(WALL_PAIRS, pr * 100, lambda tree, _: wall(args, tree), parent, change)
            out[key] = judged(pairs, float, "lower")
        for name in (w["name"] for w in SPEC["workloads"]):
            pairs = paired(PERFBENCH_PAIRS[name], pr * 100,
                           lambda tree, seed: perfbench(name, tree, seed), parent, change)
            entry = out[name] = {"failed": {"parent": sum(base["failed"] for _, base, _ in pairs),
                                            "change": sum(new["failed"] for _, _, new in pairs)}}
            for m in SPEC["end_to_end"]:
                entry[m["name"]] = judged(pairs, lambda r: r["metrics"][m["name"]],
                                          m["better"], m["bound"])
            for key, better in RECORD_KEYS.items():
                entry[key] = judged(pairs, lambda r: r[key], better)
    (ROOT / f"BENCH_{pr}.json").write_text(json.dumps(out, indent=1) + "\n")

    print(f"{'metric':<28}{rev:>12}{'IQR':>10}{'change':>12}{'%':>8}  verdict")
    rows = {key: entry for key, entry in out.items() if key in WALL}
    rows.update({f"{name}.{m}": e for name in PERFBENCH_PAIRS for m, e in out[name].items()
                 if m != "failed"})
    for key, entry in rows.items():
        base, new = entry["parent"]["median"], entry["change"]["median"]
        print(f"{key:<28}{base:>12.4g}{entry['parent']['iqr']:>10.3g}{new:>12.4g}"
              f"{(new - base) / base:>+8.1%}  {entry['verdict']}")


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2] if len(sys.argv) > 2 else "HEAD~1")
