"""Compare two sets of benchmark runs, for example a parent commit and a change.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 >> base.jsonl   # on the parent
    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 >> new.jsonl    # on the change
    python3 perfbench/compare.py base.jsonl new.jsonl

Reads the `{"record": ...}` lines that run.py prints, and prints, per
workload and metric, each side's median and quartiles and a verdict.
Runs are paired by (workload, trace, seed), in the order they appear.

Verdicts, after the pairing rule of the benchmark's method:
  improved     the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the
               parent's own spread (its interquartile distance);
  regressed    the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json;
  unresolved   the parent's spread is wider than the bound, unless every
               run of the change reads better than every run of the parent;
  within bound otherwise.
Per-layer metrics have no bound: they read improved or no claim.  A
metric missing on one side reads absent.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    """(workload, trace) -> metric -> [(seed, value)] in file order."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"record"'):
                continue
            rec = json.loads(line)["record"]
            for name, value in rec["metrics"].items():
                runs[(rec["workload"], rec["trace"])][name].append((rec["seed"], value))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(base: list, new: list) -> list[tuple[float, float]]:
    pending = defaultdict(list)
    for seed, value in base:
        pending[seed].append(value)
    out = []
    for seed, value in new:
        if pending[seed]:
            out.append((pending[seed].pop(0), value))
    return out


def verdict(base: list, new: list, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_vals = [v for _, v in base]
    n_vals = [v for _, v in new]
    b_q1, b_med, b_q3 = quartiles(b_vals)
    _, n_med, _ = quartiles(n_vals)
    matched = pairs(base, new)
    wins = sum(1 for b, n in matched if sign * (n - b) > 0)
    if (len(matched) >= MIN_PAIRS and wins >= WIN_SHARE * len(matched)
            and sign * (n_med - b_med) > b_q3 - b_q1):
        return f"improved ({wins}/{len(matched)} pairs won)"
    if bound is None:
        return f"no claim ({wins}/{len(matched)} pairs won)"
    worse_by = sign * (b_med - n_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return f"regressed ({worse_by:+.1%} worse, bound {bound:.0%})"
    if b_med and (b_q3 - b_q1) / abs(b_med) > bound:
        if min(sign * v for v in n_vals) > max(sign * v for v in b_vals):
            return "improved (every run better)"
        return f"unresolved (parent spread above bound {bound:.0%})"
    return f"within bound ({worse_by:+.1%} worse, bound {bound:.0%})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_runs(argv[0]), load_runs(argv[1])
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        print(f"{'metric':40} {'parent q1/median/q3':>34} {'change q1/median/q3':>34}  verdict")
        for name in sorted(set(base[key]) | set(new[key])):
            b, n = base[key].get(name, []), new[key].get(name, [])
            b = [(s, v) for s, v in b if v is not None]
            n = [(s, v) for s, v in n if v is not None]
            if not b or not n:
                print(f"{name:40} {'absent' if not b else '':>34} {'absent' if not n else '':>34}")
                continue
            kind = kinds.get(name, {"better": "lower"})
            bq, nq = ("/".join(f"{q:.5g}" for q in quartiles([v for _, v in side]))
                      for side in (b, n))
            print(f"{name:40} {bq:>34} {nq:>34}  {verdict(b, n, kind['better'], kind.get('bound'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
