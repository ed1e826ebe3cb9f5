"""Spans around the program's public functions, installed from outside `src/`.

Each traced function is wrapped at every module attribute of the package
that holds it, so calls the pipeline makes through `runner`, `keyrate`
or `decoy` globals are all seen.  Spans stay in memory, aggregated by
(name, parent name): photon_weight alone runs millions of times per
scan.  A function that no longer exists is reported absent (None), never
as zero.

Calls that go through `keyrate._side_weights` reach the original
`side_weights` via the cache, bypassing the wrapper; they are counted
from the cache's own counters instead (see `cache_counters`).
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

# span name -> (module, function) of the original definition
TRACED = {
    "runner.optimize_mu_prime": ("mdiqkd.runner", "optimize_mu_prime"),
    "runner.parse_gain_csv": ("mdiqkd.runner", "parse_gain_csv"),
    "keyrate.basis_tables": ("mdiqkd.keyrate", "basis_tables"),
    "keyrate.rate_for_scenario": ("mdiqkd.keyrate", "rate_for_scenario"),
    "decoy.gain_from_yields": ("mdiqkd.decoy", "gain_from_yields"),
    "decoy.side_weights": ("mdiqkd.decoy", "side_weights"),
    "decoy.y11_lower_bound": ("mdiqkd.decoy", "y11_lower_bound"),
    "decoy.e11_upper_bound": ("mdiqkd.decoy", "e11_upper_bound"),
    "source.photon_weight": ("mdiqkd.source", "photon_weight"),
    "optics.yield_table": ("mdiqkd.optics", "yield_table"),
}

# cache name -> (module, attribute) of an lru_cache the pipeline relies on
CACHES = {
    "decoy.side_weights": ("mdiqkd.keyrate", "_side_weights"),
    "optics.pair_tables": ("mdiqkd.optics", "_pair_tables"),
}


def cache_counters() -> dict:
    """hits/misses/size of each cache, or None for a cache that is gone."""
    out = {}
    for name, (module, attr) in CACHES.items():
        info = getattr(getattr(sys.modules.get(module), attr, None), "cache_info", None)
        if info is None:
            out[name] = None
        else:
            ci = info()
            out[name] = {"hits": ci.hits, "misses": ci.misses, "size": ci.currsize}
    return out


def cache_delta(before: dict, after: dict) -> dict:
    """Counters accumulated between two snapshots; size is the final one."""
    out = {}
    for name, end in after.items():
        start = before.get(name)
        if end is None or start is None:
            out[name] = None
        else:
            out[name] = {"hits": end["hits"] - start["hits"],
                         "misses": end["misses"] - start["misses"], "size": end["size"]}
    return out


class Tracer:
    """Aggregated spans with self time: span time minus its children's time."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.spans: dict[tuple, list] = {}  # (name, parent) -> [calls, total_s, child_s]
        self.valid = 0  # rate_for_scenario results that are valid RatePoints
        self.licensed = 0  # y11_lower_bound results whose sign conditions hold
        self.yield_ms: dict[str, list[float]] = {"cold": [], "warm": []}
        self.installed: dict[str, bool] = {}
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            before = observe.before() if observe else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
            if observe:
                observe.after(before, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every reference to each traced function in the loaded package."""
        observers = {
            "keyrate.rate_for_scenario": _Count(self, "valid", lambda r: r.valid),
            "decoy.y11_lower_bound": _Count(self, "licensed", lambda r: r.conditions_ok),
            "optics.yield_table": _YieldTimer(self),
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "mdiqkd" or n.startswith("mdiqkd.")]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules.get(module), attr, None)
            self.installed[name] = original is not None
            if original is None:
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()

    def totals(self, name: str) -> tuple[int, float]:
        calls = self_s = 0
        for (span, _parent), (n, total, child) in self.spans.items():
            if span == name:
                calls += n
                self_s += total - child
        return calls, self_s

    def table(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": t - ch}
            for (n, p), (c, t, ch) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]


class _Count:
    def __init__(self, tracer: Tracer, field: str, test) -> None:
        self.tracer, self.field, self.test = tracer, field, test

    def before(self):
        return None

    def after(self, _token, result, _dt) -> None:
        if self.test(result):
            setattr(self.tracer, self.field, getattr(self.tracer, self.field) + 1)


class _YieldTimer:
    """Splits yield_table calls into cold (pair tables computed) and warm ones."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def _misses(self):
        counters = cache_counters()["optics.pair_tables"]
        return None if counters is None else counters["misses"]

    def before(self):
        return self._misses()

    def after(self, misses_before, _result, dt) -> None:
        misses_after = self._misses()
        if misses_before is None or misses_after is None:
            return
        kind = "cold" if misses_after > misses_before else "warm"
        self.tracer.yield_ms[kind].append(dt * 1e3)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, caches: dict, time_scale: float = 1.0) -> dict:
    """Per-layer metrics by name; None marks a metric whose function or cache is gone.

    Times are multiplied by time_scale, the run's calibration factor.

    A ratio whose base is zero (for example evaluations per row on a
    workload that optimizes nothing) reads 0; the run record keeps the
    bases.
    """
    out = {}
    for name in TRACED:
        if tracer.installed.get(name):
            calls, self_s = tracer.totals(name)
            self_s *= time_scale
        else:
            calls = self_s = None
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    side = caches["decoy.side_weights"]
    if out["decoy.side_weights.calls"] is not None and side is not None:
        out["decoy.side_weights.calls"] += side["hits"] + side["misses"]
    evals = out["keyrate.rate_for_scenario.calls"]
    rows = out["runner.optimize_mu_prime.calls"]
    out["runner.evals_per_row"] = _ratio(evals, rows)
    out["keyrate.valid_frac"] = _ratio(tracer.valid if evals is not None else None, evals)
    bounds = out["decoy.y11_lower_bound.calls"]
    out["decoy.licensed_frac"] = _ratio(tracer.licensed if bounds is not None else None, bounds)
    for cache, counters in caches.items():
        for key in ("hits", "misses", "size"):
            out[f"{cache}.cache_{key}"] = None if counters is None else counters[key]
        out[f"{cache}.hit_ratio"] = None if counters is None else _ratio(
            counters["hits"], counters["hits"] + counters["misses"])
    have_yield = tracer.installed.get("optics.yield_table")
    cold, warm = (_p50(tracer.yield_ms[k]) * time_scale for k in ("cold", "warm"))
    out["optics.yield_table.cold_ms_p50"] = cold if have_yield else None
    out["optics.yield_table.warm_us_p50"] = warm * 1e3 if have_yield else None
    return out
