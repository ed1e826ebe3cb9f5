"""Scenario orchestration, intensity optimization, config and CSV I/O.

This is the command-line surface of the package: `scan` sweeps
rate-versus-distance curves, `yields` dumps ground-truth yield tables,
`bound` runs the estimator on an external gain-table CSV, `optimize`
reports the best signal intensity for one scenario and distance.

Everything here is deterministic: a fixed log-spaced intensity grid,
golden-section refinement with a fixed tolerance, and repr-based float
serialization that round-trips exactly.  The grid and its logarithms
are built once per (mu_prime_min, mu_prime_max, grid_points).  The
optimizer builds a row's context (keyrate._RowContext) once per row,
holds it for that call and works on it directly: it ranks the grid in
one batched pass exact to rate_for_scenario (the context's rates, as
keyrate.rank_grid), which also gives the grid winner's point; a golden
bracket point whose mu_prime is exactly a grid value reads its cost from
those rates.  Every other refinement point is the context's rate, which
returns plain numbers; a RatePoint is built only for a refined point
that beats the grid winner, or on the fallback path.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import keyrate
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
    alpha: float = LinkSpec.attenuation_db_per_km
    e_d: float = LinkSpec.misalignment
    d_c: float = LinkSpec.relay_dark_rate
    eta_c: float = LinkSpec.relay_efficiency
    eta_heralding: float = ScenarioKind.heralding_efficiency
    d_heralding: float = ScenarioKind.heralding_dark_rate
    f_ec: float = DEFAULT_ERROR_CORRECTION
    cutoff: int = LinkSpec.cutoff
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
            # what operator.index takes: numpy integers too, but no float
            *((name, num, hasattr(type(num), "__index__"), "must be an integer")
              for name, num in (("cutoff", self.cutoff), ("grid_points", self.grid_points))),
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
    the log axis refines it, both on one row context of (scenario, link,
    tables, f_ec) that this call builds and holds; rate_for_scenario builds
    its own per point.  Its batched rates, exact to rate_for_scenario, rank
    the grid and return the winning grid point.
    A bracket point whose exp(log) round-trips to its grid value costs
    what the grid rated it (-rate, or inf where the grid reads -inf), as
    rate_for_scenario would give bit for bit; every other refinement step
    and the fallback below take the context's rate, whose numbers make
    rate_for_scenario's point, and each distinct mu_prime is evaluated at
    most once per call.  If no grid point yields a positive rate the best
    point is returned flagged invalid with rate 0.
    """
    if tables is None:
        tables = basis_tables(link)
    # read off the module per call, so that a stand-in for keyrate._RowContext serves here too
    row = keyrate._RowContext(scenario, link, tables, config.f_ec)
    # golden search revisits the grid winner's neighbours, and the final refined
    # point is its last cost evaluation: (mu, row.rate's numbers), or None where it raises
    memo: dict[float, tuple[float, tuple] | None] = {}

    def evaluate(mu_prime: float) -> tuple[float, tuple] | None:
        if mu_prime not in memo:
            mu = scenario.weak_intensity(mu_prime, config.mu_fixed)
            try:
                memo[mu_prime] = mu, row.rate(mu, mu_prime)
            except ValueError:
                # degenerate intensities (for example coupled mu collapsing to 0)
                memo[mu_prime] = None
        return memo[mu_prime]

    grid, logs = _grid(config.mu_prime_min, config.mu_prime_max, config.grid_points)
    rates, best = row.rates(config.mu_fixed, tuple(grid.tolist()))
    if best is None:
        # every point is invalid or raises: report the first that does not raise
        for mu_prime in grid.tolist():
            if (found := evaluate(mu_prime)) is not None:
                return row.point(found[0], mu_prime, *found[1])
        return row.point(0.0, float(grid[len(grid) // 2]), 0.0, 0.0, 0.0, "no_valid_point")

    best_i = int(rates.argmax())
    if 0 < best_i < len(grid) - 1:
        # a bracket point whose exp round-trips to its grid value costs what the
        # grid rated it: -rate, or inf where the grid reads -inf
        near = slice(best_i - 1, best_i + 2)
        known = dict(zip(grid[near].tolist(), (-rates[near]).tolist()))

        def cost(lg: float) -> float:
            mu_prime = math.exp(lg)
            if mu_prime in known:
                return known[mu_prime]
            found = evaluate(mu_prime)
            if found is None or found[1][3]:
                return math.inf  # it raised, or it is invalid: its reason is not ""
            return -found[1][2]

        try:
            x = _golden_section(cost, tuple(logs[near].tolist()), config.refine_tol, maxiter=200)
        except _BracketError:
            pass  # flat or non-bracketing neighbourhood: the grid best is kept
        else:
            # a refined point that is the grid winner cannot beat it
            mu_prime = math.exp(x)
            if mu_prime != best.mu_prime and (found := evaluate(mu_prime)) is not None:
                mu, (y11, e11, rate, reason) = found
                if not reason and rate > best.rate:
                    best = row.point(mu, mu_prime, y11, e11, rate)

    if best.rate <= 0.0:
        return replace(best, rate=0.0, valid=False, reason="no_positive_rate")
    return best


def scan(config: ScanConfig) -> list[RatePoint]:
    """Optimized rate curve for every configured scenario and distance, run
    distance-major so that each distance's tables are built once.  Rows are
    ordered by scenario name, then in the config's distance order."""
    scenarios = [config.scenario_kind(name) for name in sorted(set(config.scenarios))]
    curves: list[list[RatePoint]] = [[] for _ in scenarios]
    for distance in config.distances:
        link = config.link_for(distance)
        tables = basis_tables(link)
        for curve, scenario in zip(curves, scenarios):
            curve.append(optimize_mu_prime(scenario, link, config, tables))
    return [point for curve in curves for point in curve]


def _fmt(value: float) -> str:
    return repr(float(value))


def _numbered_rows(text: str, header: str, what: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line after a CSV's header, in one pass and numbered
    as the file numbers them.  The header is the first line that is not blank, and
    a blank line after it (one column, all whitespace) is the caller's to skip."""
    rows = enumerate(text.splitlines(), start=1)
    if next((line for _, line in rows if line.strip()), None) != header:
        raise ConfigError(f"bad {what} CSV header, expected {header!r}")
    return rows


def emit_csv(points: Iterable[RatePoint], gnuplot: bool = False) -> str:
    """Serialize rate points; full precision, byte-stable ordering.

    The gnuplot variant is whitespace separated with one block (two
    blank lines apart) per scenario.
    """
    sep = " " if gnuplot else ","

    def row(p: RatePoint) -> str:
        return sep.join((_fmt(p.distance_km), p.scenario, _fmt(p.mu), _fmt(p.mu_prime),
                         _fmt(p.y11_bound), _fmt(p.e11_bound), _fmt(p.rate), str(int(p.valid))))

    if not gnuplot:
        return "\n".join([RATE_HEADER, *map(row, points)]) + "\n"
    lines = ["# " + RATE_HEADER.replace(",", sep)]
    by_scenario: dict[str, list[RatePoint]] = {}
    for p in points:
        by_scenario.setdefault(p.scenario, []).append(p)
    for idx, name in enumerate(sorted(by_scenario)):
        if idx:
            lines += ["", ""]
        lines.append(f"# scenario: {name}")
        lines += (row(p) for p in sorted(by_scenario[name], key=lambda q: q.distance_km))
    return "\n".join(lines) + "\n"


def parse_rate_csv(text: str) -> list[RatePoint]:
    """Inverse of emit_csv for the comma variant.

    Rows emit_csv never writes (an unknown scenario, a valid flag other
    than 0 or 1, a numeric value that is not a finite float) raise
    ConfigError naming the line, numbered as the file numbers it.
    """
    points = []
    for lineno, line in _numbered_rows(text, RATE_HEADER, "rate"):
        cols = line.split(",")
        if len(cols) != 8:
            if not line.strip():
                continue
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


def emit_gain_csv(gains: GainTable) -> str:
    """Serialize a gain table; tail certificates are not part of the format."""
    lines = [GAIN_HEADER]
    for rec in gains:
        lines.append(
            f"{rec.basis.value},{_fmt(rec.alice_intensity)},{_fmt(rec.bob_intensity)},"
            f"{rec.trigger_class.value},{_fmt(rec.gain)},{_fmt(rec.qber)}"
        )
    return "\n".join(lines) + "\n"


# the codes emit_gain_csv writes, and the member each one names
_BASIS_CODES = {basis.value: basis for basis in Basis}
_CLASS_CODES = {cls.value: cls for cls in TriggerClass}
# one tuple of all seven fields, past GainRecord's generated __new__: 3% of a bound op
_new_record = tuple.__new__


def parse_gain_csv(text: str) -> GainTable:
    """Inverse of emit_gain_csv, rejecting records no experiment produces.

    Intensities must be finite and >= 0, gain and qber must lie in
    [0, 1], and each (basis, class, x, y) may appear once; a violation
    raises ConfigError naming the line, numbered as the file numbers it.
    """
    table = GainTable()
    records = table._records
    for lineno, line in _numbered_rows(text, GAIN_HEADER, "gain"):
        cols = line.split(",")
        if len(cols) != 6:
            if not line.strip():
                continue
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
        records[key] = _new_record(GainRecord, (basis, x, y, cls, gain, qber, 0.0))
    return table


def emit_yield_csv(table: YieldTable, header: bool = True) -> str:
    lines = [YIELD_HEADER] if header else []
    for m in range(table.cutoff + 1):
        for n in range(table.cutoff + 1):
            lines.append(
                f"{table.basis.value},{m},{n},{_fmt(table.yields[m, n])},{_fmt(table.errors[m, n])}"
            )
    return "\n".join(lines) + "\n"


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


def _resolve_config(args: argparse.Namespace) -> ScanConfig:
    """The command's one config: --config's file, or the defaults, under its flags."""
    config = ScanConfig() if args.config is None else parse_config(_read_text(args.config))
    updates: dict = {}
    if getattr(args, "scenario", None):
        updates["scenarios"] = _parse_scenarios(args.scenario)
    if getattr(args, "distances", None):
        updates["distances"] = parse_distances(args.distances)
    if getattr(args, "cutoff", None) is not None:
        updates["cutoff"] = args.cutoff
    return replace(config, **updates) if updates else config


def _write_out(path: str | None, text: str) -> None:
    """Write a command's output to --out, or to stdout when it is absent or `-`."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _report(**fields: float | bool | str) -> None:
    """Print `key = value` lines in order: a float by repr, a flag as 0 or 1, text as it is."""
    for key, value in fields.items():
        if not isinstance(value, str):
            value = int(value) if isinstance(value, bool) else _fmt(value)
        sys.stdout.write(f"{key} = {value}\n")


def _cmd_scan(args: argparse.Namespace, config: ScanConfig) -> int:
    _write_out(args.out, emit_csv(scan(config), gnuplot=args.gnuplot))
    return 0


def _cmd_yields(args: argparse.Namespace, config: ScanConfig) -> int:
    link = config.link_for(args.distance)
    bases = {"Z": [Basis.Z], "X": [Basis.X], "both": [Basis.Z, Basis.X]}[args.basis]
    _write_out(args.out, "".join(emit_yield_csv(yield_table(link, basis), header=(idx == 0))
                                 for idx, basis in enumerate(bases)))
    return 0


def _cmd_bound(args: argparse.Namespace, config: ScanConfig) -> int:
    gains = parse_gain_csv(_read_text(args.gains))
    weak, strong = _scheme_pairs(args.scheme, args.mu, args.mu_prime, config)
    basis = Basis(args.basis)
    bound = y11_lower_bound(gains, weak, strong, basis, config.cutoff)
    # the Y11 report comes first, so a missing or ambiguous X record read after it exits 2
    # with the report written; a file without any X record gets that report alone
    _report(y11_lower=bound.value, k_factor=bound.k_factor, denominator=bound.denominator,
            conditions_ok=bound.conditions_ok, coefficient_margin=bound.coefficient_margin,
            clamped=bound.clamped)
    if bound.conditions_ok and gains.has_basis(Basis.X):
        bound_x = (
            bound if basis is Basis.X
            else y11_lower_bound(gains, weak, strong, Basis.X, config.cutoff)
        )
        # one setting-pair plan licenses both bases, so bound_x is licensed too
        try:
            e11 = e11_upper_bound(gains, weak, strong, single_pair_gain(weak, bound_x.value),
                                  single_pair_gain(strong, bound_x.value))
        except BoundUnavailableError:
            pass  # neither setting has a positive single-pair gain
        else:
            _report(e11_upper=e11)
    return 0


def _cmd_optimize(args: argparse.Namespace, config: ScanConfig) -> int:
    try:
        scenario = config.scenario_kind(args.scenario)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    link = config.link_for(args.distance)
    point = optimize_mu_prime(scenario, link, config)
    names = ("scenario", "distance_km", "mu", "mu_prime", "y11_bound", "e11_bound", "rate",
             "valid", "reason")
    _report(**{name: getattr(point, name) for name in names})
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
        return args.func(args, _resolve_config(args))
    except (ConfigError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
