"""Scenario orchestration, intensity optimization, config and CSV I/O.

This is the command-line surface of the package: `scan` sweeps
rate-versus-distance curves, `yields` dumps ground-truth yield tables,
`bound` runs the estimator on an external gain-table CSV, `optimize`
reports the best signal intensity for one scenario and distance.

Everything here is deterministic: a fixed log-spaced intensity grid,
golden-section refinement with a fixed tolerance, and repr-based float
serialization that round-trips exactly.  The grid and its logarithms
are built once per (mu_prime_min, mu_prime_max, grid_points).  The
optimizer ranks the grid in one batched pass exact to rate_for_scenario
(keyrate.rank_grid), which also gives the grid winner's point; the
refinement uses rate_for_scenario, whose row context (see keyrate)
assembles what no point changes once per row, and per point only the
photon rows and sides at that point's own intensities.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Sequence, TextIO

import numpy as np

from .decoy import (
    BoundUnavailableError,
    GainRecord,
    GainTable,
    e11_upper_bound,
    single_pair_gain,
    y11_lower_bound,
)
from .keyrate import (
    DEFAULT_ERROR_CORRECTION,
    SCENARIO_NAMES,
    RatePoint,
    ScenarioKind,
    basis_tables,
    rank_grid,
    rate_for_scenario,
)
from .optics import SAFETY_CAP, Basis, LinkSpec, YieldTable, yield_table
from .source import SourceSpec, TriggerClass

__all__ = [
    "ConfigError",
    "ScanConfig",
    "parse_config",
    "parse_distances",
    "optimize_mu_prime",
    "scan",
    "emit_csv",
    "parse_rate_csv",
    "emit_gain_csv",
    "parse_gain_csv",
    "emit_yield_csv",
    "main",
]

RATE_HEADER = "distance_km,scenario,mu,mu_prime,y11_bound,e11_bound,rate,valid"
GAIN_HEADER = "basis,x,y,class,gain,qber"
YIELD_HEADER = "basis,m,n,Y,e"

# a distance range is expanded into a tuple, and the optimizer's intensity
# grid into an array, so ScanConfig caps both lengths and parse_distances
# checks a range before it expands it
MAX_DISTANCES = 10_000
MAX_GRID_POINTS = 10_000

# scenarios whose curves are quoted at a better heralding detector; the
# remaining heralded scenarios stay at the global default
DEFAULT_SCENARIO_HERALDING = {"H0": 0.9, "H1": 0.9}

# ScanConfig fields that must lie in [0, 1], and those that must be > 0
_UNIT_FIELDS = ("e_d", "d_c", "eta_c", "eta_heralding", "d_heralding")
_POSITIVE_FIELDS = ("mu_fixed", "mu_prime_min", "mu_prime_max", "refine_tol")


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input; `field` names the
    ScanConfig field a range check rejected, and starts the message."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def _default_distances() -> tuple[float, ...]:
    return tuple(float(d) for d in range(0, 301, 5))


@dataclass(frozen=True)
class ScanConfig:
    """Fully resolved inputs of one scan run."""

    distances: tuple[float, ...] = field(default_factory=_default_distances)
    scenarios: tuple[str, ...] = SCENARIO_NAMES
    alpha: float = 0.2
    e_d: float = 0.015
    d_c: float = 3e-6
    eta_c: float = 0.145
    eta_heralding: float = 0.75
    d_heralding: float = 1e-6
    f_ec: float = DEFAULT_ERROR_CORRECTION
    cutoff: int = 8
    mu_fixed: float = 0.1
    scenario_heralding: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SCENARIO_HERALDING)
    )
    grid_points: int = 60
    mu_prime_min: float = 1e-4
    mu_prime_max: float = 1.5
    refine_tol: float = 1e-4

    def __post_init__(self) -> None:
        """Reject, naming the field, any value no scan can use."""
        unit = {name: getattr(self, name) for name in _UNIT_FIELDS}
        unit |= {f"scenario_heralding[{k!r}]": v for k, v in self.scenario_heralding.items()}
        positive = {name: getattr(self, name) for name in _POSITIVE_FIELDS}
        floats = {"alpha": self.alpha, "f_ec": self.f_ec, **unit, **positive}
        cap = SAFETY_CAP // 2  # the relay tables need up to 2 * cutoff photons
        checks = [
            *((name, num, math.isfinite(num), "must be finite") for name, num in floats.items()),
            ("alpha", self.alpha, self.alpha >= 0.0, "must be >= 0"),
            ("f_ec", self.f_ec, self.f_ec >= 1.0, "must be >= 1"),
            *((name, num, 0.0 <= num <= 1.0, "must lie in [0, 1]") for name, num in unit.items()),
            *((name, num, num > 0.0, "must be > 0") for name, num in positive.items()),
            ("cutoff", self.cutoff, 2 <= self.cutoff <= cap, f"must lie in [2, {cap}]"),
            ("grid_points", self.grid_points, 4 <= self.grid_points <= MAX_GRID_POINTS,
             f"must lie in [4, {MAX_GRID_POINTS}]"),
            *((f"scenario_heralding[{k!r}]", k, k in SCENARIO_NAMES, "must name a scenario")
              for k in self.scenario_heralding),
            *(("scenarios", name, name in SCENARIO_NAMES, f"must be among {SCENARIO_NAMES}")
              for name in self.scenarios),
            ("distances", len(self.distances), len(self.distances) <= MAX_DISTANCES,
             f"must number at most {MAX_DISTANCES}"),
            *(("distances", d, 0.0 <= d < math.inf, "must be finite and >= 0")
              for d in self.distances),
        ]
        for name, value, ok, rule in checks:
            if not ok:
                raise ConfigError(f"{name} {rule}, got {value!r}", name)
        lo, hi = self.mu_prime_min, self.mu_prime_max
        if not lo < hi:
            raise ConfigError(f"mu_prime_min must be below mu_prime_max, got {lo!r} and {hi!r}")

    def link_for(self, distance_km: float) -> LinkSpec:
        return LinkSpec(
            total_distance_km=distance_km,
            attenuation_db_per_km=self.alpha,
            relay_efficiency=self.eta_c,
            relay_dark_rate=self.d_c,
            misalignment=self.e_d,
            cutoff=self.cutoff,
        )

    def scenario_kind(self, name: str) -> ScenarioKind:
        efficiency = self.scenario_heralding.get(name, self.eta_heralding)
        return ScenarioKind(name, efficiency, self.d_heralding)


def parse_distances(text: str) -> tuple[float, ...]:
    """Parse a START:STOP:STEP range of finite parts, inclusive of STOP, into
    at most MAX_DISTANCES distances."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"distances must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"distances must be numeric, got {text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"distances must be finite, got {text!r}")
    if step <= 0 or stop < start or start < 0:
        raise ConfigError(f"bad distance range {text!r}")
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_DISTANCES:
        raise ConfigError(f"distance range {text!r} lists more than {MAX_DISTANCES} distances")
    count = int(math.floor(steps)) + 1
    # the last distance may pass STOP by rounding, and so overflow
    if not math.isfinite(start + (count - 1) * step):
        raise ConfigError(f"distances must be finite, got {text!r}")
    return tuple(start + i * step for i in range(count))


def _parse_scenarios(text: str) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not names:
        raise ConfigError("empty scenario list")
    return names


# config keys of float values, and the ScanConfig field each one sets
_FLOAT_KEYS = {key: key for key in ("alpha", *_UNIT_FIELDS, *_POSITIVE_FIELDS)}
_FLOAT_KEYS.update(f="f_ec", mu="mu_fixed")


def parse_config(text: str) -> ScanConfig:
    """Parse `key = value` lines into a ScanConfig.

    Blank lines and `#` comments are ignored.  Unknown keys and values
    that do not parse are rejected with the offending line number, and
    so is a value ScanConfig rejects, under the key as written there.
    Per-scenario heralding overrides use keys like `eta_heralding_H1`.
    """
    values: dict = {}
    overrides = dict(DEFAULT_SCENARIO_HERALDING)
    written: dict[str, str] = {}  # ScanConfig field -> the line and key that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (tok.strip() for tok in line.partition("="))
        if not (eq and key and val):
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        target = _FLOAT_KEYS.get(key, key)
        try:
            if key == "distances":
                values[target] = parse_distances(val)
            elif key == "scenarios":
                values[target] = _parse_scenarios(val)
            elif key.startswith("eta_heralding_"):
                name = key[len("eta_heralding_"):].upper()
                target = f"scenario_heralding[{name!r}]"
                overrides[name] = float(val)
            elif key in _FLOAT_KEYS:
                values[target] = float(val)
            elif key in ("cutoff", "grid_points"):
                values[target] = int(val)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}") from None
        written[target] = f"line {lineno}: {key}"
    values["scenario_heralding"] = overrides
    try:
        return ScanConfig(**values)
    except ConfigError as exc:
        if exc.field not in written:
            raise
        raise ConfigError(written[exc.field] + str(exc)[len(exc.field):]) from None


def _evaluate(
    scenario: ScenarioKind,
    link: LinkSpec,
    config: ScanConfig,
    mu_prime: float,
    tables: tuple[YieldTable, YieldTable],
) -> RatePoint | None:
    mu = scenario.weak_intensity(mu_prime, config.mu_fixed)
    try:
        return rate_for_scenario(scenario, link, mu, mu_prime, tables, config.f_ec)
    except ValueError:
        # degenerate intensities (for example coupled mu collapsing to 0)
        return None


class _BracketError(ValueError):
    """The three starting points of a golden-section search do not bracket a minimum."""


# golden ratio conjugate, 2 / (1 + sqrt(5)), rounded as scipy rounds it
_GOLDEN = 0.61803399


def _golden_section(cost, bracket: tuple[float, float, float], xtol: float, maxiter: int) -> float:
    """Minimize cost from a three-point bracket by golden-section search.

    A port of scipy.optimize.minimize_scalar(method="golden") with a
    three-point bracket: the same bracket checks, interior points,
    stopping rule and result, so it evaluates the same points in the
    same order and returns the same x.  Raises _BracketError when the
    middle point is not strictly below both ends.
    """
    xa, xb, xc = bracket
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb and xb < xc):
        raise _BracketError(f"bracket {bracket} is not ordered")
    fa, fb, fc = cost(xa), cost(xb), cost(xc)
    if not (fb < fa and fb < fc):
        raise _BracketError(f"bracket {bracket} does not enclose a minimum")
    g_c = 1.0 - _GOLDEN
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + g_c * (xc - xb)
    else:
        x1, x2 = xb - g_c * (xb - xa), xb
    f1, f2 = cost(x1), cost(x2)
    for _ in range(maxiter):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = _GOLDEN * x1 + g_c * x3
            f1, f2 = f2, cost(x2)
        else:
            x3, x2 = x2, x1
            x1 = _GOLDEN * x2 + g_c * x0
            f2, f1 = f1, cost(x1)
    return x1 if f1 < f2 else x2


# every row of a scan searches the same grid
@lru_cache(maxsize=8)
def _grid(lo: float, hi: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """The optimizer's log-spaced intensity grid and its logarithms, read-only."""
    grid = np.geomspace(lo, hi, points)
    logs = np.log(grid)
    grid.flags.writeable = False
    logs.flags.writeable = False
    return grid, logs


def optimize_mu_prime(
    scenario: ScenarioKind,
    link: LinkSpec,
    config: ScanConfig,
    tables: tuple[YieldTable, YieldTable] | None = None,
) -> RatePoint:
    """Best signal intensity for one scenario and distance.

    A fixed log-spaced grid locates the basin, golden-section search on
    the log axis refines it.  The batched rank_grid, exact to
    rate_for_scenario, ranks the grid and returns the winning grid point;
    every refinement step and the fallback below use rate_for_scenario,
    and each distinct mu_prime is evaluated once per call.  If no grid
    point yields a positive rate the best point is returned flagged
    invalid with rate 0.
    """
    if tables is None:
        tables = basis_tables(link)
    # golden search revisits the grid winner and its neighbours, and the
    # final refined point is its last cost evaluation
    memo: dict[float, RatePoint | None] = {}

    def evaluate(mu_prime: float) -> RatePoint | None:
        if mu_prime not in memo:
            memo[mu_prime] = _evaluate(scenario, link, config, mu_prime, tables)
        return memo[mu_prime]

    grid, logs = _grid(config.mu_prime_min, config.mu_prime_max, config.grid_points)
    rates, best = rank_grid(scenario, link, config.mu_fixed, grid, tables, config.f_ec)
    if best is None:
        # every point is invalid or raises: report the first that does not raise
        points = (evaluate(mp) for mp in grid.tolist())
        return next((p for p in points if p is not None), None) or RatePoint(
            distance_km=link.total_distance_km, scenario=scenario.name, mu=0.0,
            mu_prime=float(grid[len(grid) // 2]), y11_bound=0.0, e11_bound=0.0, rate=0.0,
            valid=False, reason="no_valid_point")

    best_i = int(np.argmax(rates))
    memo[float(grid[best_i])] = best
    if 0 < best_i < len(grid) - 1:
        def cost(lg: float) -> float:
            pt = evaluate(float(math.exp(lg)))
            if pt is None or not pt.valid:
                return math.inf
            return -pt.rate

        bracket = (float(logs[best_i - 1]), float(logs[best_i]), float(logs[best_i + 1]))
        try:
            x = _golden_section(cost, bracket, config.refine_tol, maxiter=200)
            refined = evaluate(float(math.exp(x)))
        except _BracketError:
            refined = None  # flat or non-bracketing neighbourhood: the grid best is kept
        if refined is not None and refined.valid and refined.rate > best.rate:
            best = refined

    if best.rate <= 0.0:
        return replace(best, rate=0.0, valid=False, reason="no_positive_rate")
    return best


def scan(config: ScanConfig) -> list[RatePoint]:
    """Optimized rate curve for every configured scenario and distance.

    Rows are ordered by (scenario name, distance).
    """
    points: list[RatePoint] = []
    for name in sorted(set(config.scenarios)):
        scenario = config.scenario_kind(name)
        for distance in config.distances:
            link = config.link_for(distance)
            tables = basis_tables(link)
            points.append(optimize_mu_prime(scenario, link, config, tables))
    return points


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_csv(points: Iterable[RatePoint], sink: TextIO | None = None, gnuplot: bool = False) -> str:
    """Serialize rate points; full precision, byte-stable ordering.

    The gnuplot variant is whitespace separated with one block (two
    blank lines apart) per scenario.
    """
    points = list(points)
    if gnuplot:
        lines = ["# " + RATE_HEADER.replace(",", " ")]
        by_scenario: dict[str, list[RatePoint]] = {}
        for p in points:
            by_scenario.setdefault(p.scenario, []).append(p)
        for idx, name in enumerate(sorted(by_scenario)):
            if idx:
                lines.append("")
                lines.append("")
            lines.append(f"# scenario: {name}")
            for p in sorted(by_scenario[name], key=lambda q: q.distance_km):
                lines.append(
                    f"{_fmt(p.distance_km)} {p.scenario} {_fmt(p.mu)} {_fmt(p.mu_prime)} "
                    f"{_fmt(p.y11_bound)} {_fmt(p.e11_bound)} {_fmt(p.rate)} {int(p.valid)}"
                )
    else:
        lines = [RATE_HEADER]
        for p in points:
            lines.append(
                f"{_fmt(p.distance_km)},{p.scenario},{_fmt(p.mu)},{_fmt(p.mu_prime)},"
                f"{_fmt(p.y11_bound)},{_fmt(p.e11_bound)},{_fmt(p.rate)},{int(p.valid)}"
            )
    text = "\n".join(lines) + "\n"
    if sink is not None:
        sink.write(text)
    return text


def parse_rate_csv(text: str) -> list[RatePoint]:
    """Inverse of emit_csv for the comma variant.

    Rows emit_csv never writes (an unknown scenario, a valid flag other
    than 0 or 1, a numeric value that is not a finite float) raise
    ConfigError naming the line.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != RATE_HEADER:
        raise ConfigError(f"bad rate CSV header, expected {RATE_HEADER!r}")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != 8:
            raise ConfigError(f"line {lineno}: expected 8 columns, got {len(cols)}")
        if cols[1] not in SCENARIO_NAMES:
            raise ConfigError(f"line {lineno}: unknown scenario {cols[1]!r}")
        if cols[7] not in ("0", "1"):
            raise ConfigError(f"line {lineno}: valid must be 0 or 1, got {cols[7]!r}")
        try:
            nums = [float(cols[i]) for i in (0, 2, 3, 4, 5, 6)]
        except ValueError:
            raise ConfigError(f"line {lineno}: bad numeric value") from None
        if not all(math.isfinite(x) for x in nums):
            raise ConfigError(f"line {lineno}: numeric values must be finite, got {line!r}")
        distance, mu, mu_prime, y11, e11, rate = nums
        points.append(RatePoint(distance, cols[1], mu, mu_prime, y11, e11, rate, cols[7] == "1"))
    return points


def emit_gain_csv(gains: GainTable, sink: TextIO | None = None) -> str:
    """Serialize a gain table; tail certificates are not part of the format."""
    lines = [GAIN_HEADER]
    for rec in gains:
        lines.append(
            f"{rec.basis.value},{_fmt(rec.alice_intensity)},{_fmt(rec.bob_intensity)},"
            f"{rec.trigger_class.value},{_fmt(rec.gain)},{_fmt(rec.qber)}"
        )
    text = "\n".join(lines) + "\n"
    if sink is not None:
        sink.write(text)
    return text


# the codes emit_gain_csv writes, and the member each one names
_BASIS_CODES = {basis.value: basis for basis in Basis}
_CLASS_CODES = {cls.value: cls for cls in TriggerClass}


def parse_gain_csv(text: str) -> GainTable:
    """Inverse of emit_gain_csv, rejecting records no experiment produces.

    Intensities must be finite and >= 0, gain and qber must lie in
    [0, 1], and each (basis, class, x, y) may appear once; a violation
    raises ConfigError naming the line.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != GAIN_HEADER:
        raise ConfigError(f"bad gain CSV header, expected {GAIN_HEADER!r}")
    table = GainTable()
    records = table._records
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != 6:
            raise ConfigError(f"line {lineno}: expected 6 columns, got {len(cols)}")
        try:
            basis, cls = _BASIS_CODES[cols[0]], _CLASS_CODES[cols[3]]
            x, y, gain, qber = float(cols[1]), float(cols[2]), float(cols[4]), float(cols[5])
        except (KeyError, ValueError):
            raise ConfigError(f"line {lineno}: bad value") from None
        if not (0.0 <= x < math.inf and 0.0 <= y < math.inf
                and 0.0 <= gain <= 1.0 and 0.0 <= qber <= 1.0):
            raise ConfigError(
                f"line {lineno}: intensities must be finite and >= 0 and gain and qber "
                f"must lie in [0, 1], got {','.join(cols[1:3] + cols[4:])}"
            )
        # the codes are the members' values, so this is the key GainTable files it under
        key = (cols[0], cols[3], x, y)
        if key in records:
            raise ConfigError(f"line {lineno}: duplicate record for basis, class, x and y")
        records[key] = GainRecord(basis, x, y, cls, gain, qber)
    return table


def emit_yield_csv(table: YieldTable, sink: TextIO | None = None, header: bool = True) -> str:
    lines = [YIELD_HEADER] if header else []
    for m in range(table.cutoff + 1):
        for n in range(table.cutoff + 1):
            lines.append(
                f"{table.basis.value},{m},{n},{_fmt(table.yields[m, n])},{_fmt(table.errors[m, n])}"
            )
    text = "\n".join(lines) + "\n"
    if sink is not None:
        sink.write(text)
    return text


def _scheme_pairs(
    scheme: str, mu: float, mu_prime: float, config: ScanConfig
) -> tuple[tuple[SourceSpec, SourceSpec], tuple[SourceSpec, SourceSpec]]:
    """Weak and strong source pairs of the named estimation scheme at given intensities."""
    scheme = scheme.upper()
    if scheme not in ("H1", "H2", "W1", "T1"):
        raise ConfigError(f"unknown scheme {scheme!r}, expected H1, H2, W1 or T1")
    scenario = config.scenario_kind(scheme)
    _, weak_cls, strong_cls = scenario.classes
    weak = SourceSpec(scenario.distribution, mu, scenario.heralding, weak_cls)
    strong = SourceSpec(scenario.distribution, mu_prime, scenario.heralding, strong_cls)
    return (weak, weak), (strong, strong)


def _read_text(path: str) -> str:
    """A config or gain file's text; one that is not UTF-8 is a ConfigError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_config(path: str | None) -> ScanConfig:
    return ScanConfig() if path is None else parse_config(_read_text(path))


def _apply_flag_overrides(config: ScanConfig, args: argparse.Namespace) -> ScanConfig:
    updates: dict = {}
    if getattr(args, "scenario", None):
        updates["scenarios"] = _parse_scenarios(args.scenario)
    if getattr(args, "distances", None):
        updates["distances"] = parse_distances(args.distances)
    if getattr(args, "cutoff", None) is not None:
        updates["cutoff"] = args.cutoff
    return replace(config, **updates) if updates else config


def _open_sink(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _apply_flag_overrides(_load_config(args.config), args)
    points = scan(config)
    sink = _open_sink(args.out)
    try:
        emit_csv(points, sink, gnuplot=args.gnuplot)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def _cmd_yields(args: argparse.Namespace) -> int:
    config = _apply_flag_overrides(_load_config(args.config), args)
    link = config.link_for(args.distance)
    bases = {"Z": [Basis.Z], "X": [Basis.X], "both": [Basis.Z, Basis.X]}[args.basis]
    sink = _open_sink(args.out)
    try:
        for idx, basis in enumerate(bases):
            emit_yield_csv(yield_table(link, basis), sink, header=(idx == 0))
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    config = _apply_flag_overrides(_load_config(args.config), args)
    gains = parse_gain_csv(_read_text(args.gains))
    weak, strong = _scheme_pairs(args.scheme, args.mu, args.mu_prime, config)
    basis = Basis(args.basis)
    bound = y11_lower_bound(gains, weak, strong, basis, config.cutoff)
    out = sys.stdout
    out.write(f"y11_lower = {_fmt(bound.value)}\n")
    out.write(f"k_factor = {_fmt(bound.k_factor)}\n")
    out.write(f"denominator = {_fmt(bound.denominator)}\n")
    out.write(f"conditions_ok = {int(bound.conditions_ok)}\n")
    out.write(f"coefficient_margin = {_fmt(bound.coefficient_margin)}\n")
    out.write(f"clamped = {int(bound.clamped)}\n")
    # a file without X-basis records gets a yield-only report; a missing
    # or ambiguous X record among others is an error like any other
    if bound.conditions_ok and gains.has_basis(Basis.X):
        bound_x = (
            bound if basis is Basis.X
            else y11_lower_bound(gains, weak, strong, Basis.X, config.cutoff)
        )
        if bound_x.conditions_ok:
            try:
                e11 = e11_upper_bound(
                    gains,
                    weak,
                    strong,
                    single_pair_gain(weak, bound_x.value),
                    single_pair_gain(strong, bound_x.value),
                )
            except BoundUnavailableError:
                pass  # neither setting has a positive single-pair gain
            else:
                out.write(f"e11_upper = {_fmt(e11)}\n")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = _apply_flag_overrides(_load_config(args.config), args)
    try:
        scenario = config.scenario_kind(args.scenario)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    link = config.link_for(args.distance)
    point = optimize_mu_prime(scenario, link, config)
    out = sys.stdout
    out.write(f"scenario = {point.scenario}\n")
    out.write(f"distance_km = {_fmt(point.distance_km)}\n")
    out.write(f"mu = {_fmt(point.mu)}\n")
    out.write(f"mu_prime = {_fmt(point.mu_prime)}\n")
    out.write(f"y11_bound = {_fmt(point.y11_bound)}\n")
    out.write(f"e11_bound = {_fmt(point.e11_bound)}\n")
    out.write(f"rate = {_fmt(point.rate)}\n")
    out.write(f"valid = {int(point.valid)}\n")
    out.write(f"reason = {point.reason}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdiqkd",
        description="MDI-QKD rate curves with heralded single-photon sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--cutoff", type=int, help="photon-number series cutoff")

    p_scan = sub.add_parser("scan", help="rate-vs-distance curves for the configured scenarios")
    common(p_scan)
    p_scan.add_argument("--scenario", help="comma-separated scenario names")
    p_scan.add_argument("--distances", help="inclusive range START:STOP:STEP in km")
    p_scan.add_argument("--out", help="output path (default stdout)")
    p_scan.add_argument("--gnuplot", action="store_true", help="whitespace blocks per scenario")
    p_scan.set_defaults(func=_cmd_scan)

    p_yields = sub.add_parser("yields", help="ground-truth yield table for one link")
    common(p_yields)
    p_yields.add_argument("--distance", type=float, required=True, help="total distance in km")
    p_yields.add_argument("--basis", choices=["Z", "X", "both"], default="both")
    p_yields.add_argument("--out", help="output path (default stdout)")
    p_yields.set_defaults(func=_cmd_yields)

    p_bound = sub.add_parser("bound", help="estimate Y11/e11 bounds from a gain CSV")
    common(p_bound)
    p_bound.add_argument("--gains", required=True, help="gain table CSV path")
    p_bound.add_argument("--scheme", default="H1", help="H1, H2, W1 or T1")
    p_bound.add_argument("--mu", type=float, required=True, help="weak intensity")
    p_bound.add_argument("--mu-prime", type=float, required=True, help="strong intensity")
    p_bound.add_argument("--basis", choices=["Z", "X"], default="Z")
    p_bound.set_defaults(func=_cmd_bound)

    p_opt = sub.add_parser("optimize", help="best signal intensity at one distance")
    common(p_opt)
    p_opt.add_argument("--scenario", required=True, help="scenario name")
    p_opt.add_argument("--distance", type=float, required=True, help="total distance in km")
    p_opt.set_defaults(func=_cmd_optimize)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # yields and optimize build a link at --distance and bound sources at --mu and
    # --mu-prime; none of them takes a negative or infinite value
    for flag in ("distance", "mu", "mu_prime"):
        if not 0.0 <= getattr(args, flag, 0.0) < math.inf:
            name = flag.replace("_", "-")
            parser.error(f"argument --{name}: must be finite and >= 0, got {getattr(args, flag)!r}")
    try:
        return args.func(args)
    except (ConfigError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
