"""The benchmark's workloads: inputs drawn from a seed, one op, and its check.

Each workload hands the timing loop two calls.  `next_op()` produces the
next op's input; it runs inside the timed phase but outside the op's own
latency (scan builds the relay tables of a new distance there, as the
`scan` command does once per distance).  `run(op)` is the op itself.
`check(op, out)` runs after the timed phase and returns an empty string
when the output is correct, or the reason it is not.

The program sees only the generated inputs; every draw comes from one
`random.Random(seed)`, so a seed fixes the op sequence exactly.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

from mdiqkd import decoy, keyrate, optics, runner
from mdiqkd.source import DistributionKind, HeraldingDetector, SourceSpec, TriggerClass

HERE = Path(__file__).resolve().parent

# the seed whose first scan pass runs the exact default grid and is compared
# row by row with reference rows recorded at the commit that defined the benchmark
REFERENCE_SEED = 0
REFERENCE_ROWS = HERE / "reference" / "scan_seed0.csv"
REFERENCE_HEADER = ["distance_km", "scenario", "mu", "mu_prime", "y11_bound",
                    "e11_bound", "rate", "valid", "reason"]
RATE_REL_TOL = 1e-12

# scan thins the default 0:300:5 grid to every other distance so one pass
# (31 distances x 7 scenarios = 217 rows) takes about half a run; each pass
# visits the distances in a seeded order, so the part of a pass a run ends
# in still samples the whole 0-300 km range
SCAN_STEP_KM = 10.0
SCAN_STOP_KM = 300.0
CELL_KM = 5.0

# yield cells compared with the independent oracle on every relay_sweep op
ORACLE_CELLS = ((1, 1), (1, 2), (2, 2), (0, 1))
ORACLE_REL_TOL = 1e-12

BOUND_SCHEMES = ("H1", "H2", "W1", "T1")
BOUND_DISTANCES = (0.0, 50.0, 100.0, 150.0, 200.0, 250.0)
BOUND_FILES = 512


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def row_problem(point: keyrate.RatePoint, tables, estimated: bool) -> str:
    """Soundness and bookkeeping of one optimized row against its own tables."""
    table_z, table_x = tables
    if not point.valid:
        if point.rate != 0.0 or not point.reason:
            return f"invalid row with rate {point.rate!r} and reason {point.reason!r}"
        return ""
    if not point.rate > 0.0:
        return f"valid row with rate {point.rate!r}"
    true_y11 = float(table_z.yields[1, 1])
    true_e11 = float(table_x.errors[1, 1])
    if estimated:
        if not point.y11_bound <= true_y11:
            return f"y11 bound {point.y11_bound!r} above true {true_y11!r}"
        if not point.e11_bound >= true_e11:
            return f"e11 bound {point.e11_bound!r} below true {true_e11!r}"
    elif point.y11_bound != true_y11 or point.e11_bound != true_e11:
        return "asymptotic row does not read the true Y11/e11"
    return ""


# ---------------------------------------------------------------- scan


@dataclass(frozen=True)
class ScanOp:
    pass_index: int
    distance_km: float
    scenario: str
    tables: tuple


class ScanWorkload:
    """The default `scan`: all seven scenarios over jittered distances.

    Ops run distance-major: the relay tables of each distance are built
    once in `next_op` (the first distance pays the cold Fock expansion),
    then every scenario is optimized on them.  When a pass over the
    thinned grid ends, the next pass draws fresh jitter and order.
    """

    tail_percentile = 97.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.config = runner.ScanConfig()
        self.scenarios = sorted(self.config.scenarios)
        self.pass_index = -1
        self.queue: list[float] = []
        self.pending: list[ScanOp] = []
        self.reference = None

    def prepare(self) -> None:
        if self.seed == REFERENCE_SEED:
            self.reference = load_reference()

    def distances(self, pass_index: int) -> list[float]:
        grid = [i * SCAN_STEP_KM for i in range(int(SCAN_STOP_KM / SCAN_STEP_KM) + 1)]
        if pass_index > 0 or self.seed != REFERENCE_SEED:
            half = CELL_KM / 2.0
            grid = [min(max(d + self.rng.uniform(-half, half), 0.0), SCAN_STOP_KM) for d in grid]
        self.rng.shuffle(grid)
        return grid

    def next_op(self) -> ScanOp:
        if not self.pending:
            if not self.queue:
                self.pass_index += 1
                self.queue = self.distances(self.pass_index)
            distance = self.queue.pop(0)
            tables = keyrate.basis_tables(self.config.link_for(distance))
            self.pending = [ScanOp(self.pass_index, distance, s, tables) for s in self.scenarios]
        return self.pending.pop(0)

    def run(self, op: ScanOp) -> keyrate.RatePoint:
        link = self.config.link_for(op.distance_km)
        return runner.optimize_mu_prime(self.config.scenario_kind(op.scenario), link,
                                        self.config, op.tables)

    def check(self, op: ScanOp, out: keyrate.RatePoint) -> str:
        estimated = not self.config.scenario_kind(op.scenario).asymptotic
        problem = row_problem(out, op.tables, estimated)
        if problem or self.reference is None or op.pass_index != 0:
            return problem
        ref = self.reference.get((op.distance_km, op.scenario))
        if ref is None:
            return f"no reference row for {op.distance_km} km {op.scenario}"
        if (out.valid, out.reason) != (ref["valid"], ref["reason"]):
            return f"valid/reason {out.valid}/{out.reason!r} differ from the reference"
        if _rel_diff(out.rate, ref["rate"]) > RATE_REL_TOL:
            return f"rate {out.rate!r} differs from reference {ref['rate']!r}"
        return ""


def load_reference(path: Path = REFERENCE_ROWS) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {
        (float(r["distance_km"]), r["scenario"]): {
            "rate": float(r["rate"]), "valid": r["valid"] == "1", "reason": r["reason"],
        }
        for r in rows
    }


def reference_rows(seed: int = REFERENCE_SEED) -> list[list[str]]:
    """Every row of the reference seed's first scan pass, in op order."""
    work = ScanWorkload(seed)
    rows = []
    while True:
        op = work.next_op()
        if op.pass_index > 0:
            break
        p = work.run(op)
        nums = [repr(float(v)) for v in (p.mu, p.mu_prime, p.y11_bound, p.e11_bound, p.rate)]
        rows.append([repr(float(p.distance_km)), p.scenario, *nums, str(int(p.valid)), p.reason])
    return rows


# ---------------------------------------------------------------- relay_sweep


@dataclass(frozen=True)
class RelayOp:
    config: runner.ScanConfig
    distance_km: float


class RelaySweepWorkload:
    """A relay sensitivity study: every op is a relay setting never seen before.

    Each op builds both bases' tables for a fresh misalignment and dark
    rate (the cold Fock expansion) and optimizes H1 on them.
    """

    tail_percentile = 60.0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        pass

    def next_op(self) -> RelayOp:
        e_d = self.rng.uniform(0.005, 0.03)
        d_c = _log_uniform(self.rng, 1e-7, 1e-5)
        distance = self.rng.uniform(0.0, 200.0)
        return RelayOp(runner.ScanConfig(e_d=e_d, d_c=d_c), distance)

    def run(self, op: RelayOp):
        link = op.config.link_for(op.distance_km)
        tables = keyrate.basis_tables(link)
        point = runner.optimize_mu_prime(op.config.scenario_kind("H1"), link, op.config, tables)
        return tables, point

    def check(self, op: RelayOp, out) -> str:
        from _oracles import yield_cell_oracle

        tables, point = out
        link = op.config.link_for(op.distance_km)
        for table in tables:
            for arr in (table.yields, table.errors):
                if not ((arr >= 0.0) & (arr <= 1.0)).all():
                    return f"{table.basis.value} table entry outside [0, 1]"
            for m, n in ORACLE_CELLS:
                y, e = yield_cell_oracle(m, n, table.basis, link.survival,
                                         link.misalignment, link.relay_dark_rate)
                if (_rel_diff(float(table.yields[m, n]), y) > ORACLE_REL_TOL
                        or _rel_diff(float(table.errors[m, n]), e) > ORACLE_REL_TOL):
                    return f"{table.basis.value} cell ({m},{n}) disagrees with the oracle"
        return row_problem(point, tables, estimated=True)


# ---------------------------------------------------------------- bound_batch


@dataclass(frozen=True)
class BoundFile:
    scheme: str
    weak: tuple
    strong: tuple
    true_y11_z: float
    true_y11_x: float
    true_e11: float
    text: str


def scheme_pairs(scheme: str, mu_prime: float, config: runner.ScanConfig):
    """Weak and strong source pairs of an estimation scheme, as `bound` builds them."""
    kind = DistributionKind.THERMAL if scheme == "T1" else DistributionKind.POISSON
    if scheme == "W1":
        heralding = None
        weak_cls = strong_cls = TriggerClass.ALL
    else:
        heralding = HeraldingDetector(config.eta_heralding, config.d_heralding)
        if scheme == "H2":
            weak_cls = strong_cls = TriggerClass.TRIGGERED
        else:
            weak_cls, strong_cls = TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED
    if scheme in ("H1", "T1"):
        mu = (1.0 - config.eta_heralding) * mu_prime
    else:
        mu = config.mu_fixed
    weak = (SourceSpec(kind, mu, heralding, weak_cls),) * 2
    strong = (SourceSpec(kind, mu_prime, heralding, strong_cls),) * 2
    return weak, strong


def gain_text(tables, weak, strong, cutoff: int) -> str:
    """The simulator's records for both pairs and their vacuum rows, as CSV text."""
    gains = decoy.GainTable()
    for a, b in (weak, strong):
        for x, y in ((a.intensity, b.intensity), (a.intensity, 0.0),
                     (0.0, b.intensity), (0.0, 0.0)):
            wa = decoy.side_weights(SourceSpec(a.kind, x, a.heralding, a.trigger_class), cutoff)
            wb = decoy.side_weights(SourceSpec(b.kind, y, b.heralding, b.trigger_class), cutoff)
            for table in tables:
                gains.add(decoy.gain_from_yields(wa, wb, table))
    return runner.emit_gain_csv(gains)


class BoundBatchWorkload:
    """The estimator run on gain files, one `mdiqkd bound` per op.

    A pool of files is written before timing; ops cycle through it in a
    seeded order.  The bound path caches nothing, so revisiting a file
    costs the same as the first visit.
    """

    tail_percentile = 99.0

    def __init__(self, seed: int, files: int = BOUND_FILES) -> None:
        self.rng = random.Random(seed)
        self.config = runner.ScanConfig()
        self.count = files
        self.files: list[BoundFile] = []
        self.order: list[int] = []
        self.position = 0

    def prepare(self) -> None:
        cutoff = self.config.cutoff
        tables = {d: keyrate.basis_tables(self.config.link_for(d)) for d in BOUND_DISTANCES}
        for _ in range(self.count):
            scheme = self.rng.choice(BOUND_SCHEMES)
            mu_prime = _log_uniform(self.rng, 0.02, 1.2)
            table_z, table_x = tables[self.rng.choice(BOUND_DISTANCES)]
            weak, strong = scheme_pairs(scheme, mu_prime, self.config)
            self.files.append(BoundFile(
                scheme, weak, strong,
                float(table_z.yields[1, 1]), float(table_x.yields[1, 1]),
                float(table_x.errors[1, 1]),
                gain_text((table_z, table_x), weak, strong, cutoff),
            ))
        self.order = list(range(self.count))
        self.rng.shuffle(self.order)

    def next_op(self) -> BoundFile:
        op = self.files[self.order[self.position % self.count]]
        self.position += 1
        return op

    def run(self, op: BoundFile):
        cutoff = self.config.cutoff
        gains = runner.parse_gain_csv(op.text)
        bound_z = decoy.y11_lower_bound(gains, op.weak, op.strong, optics.Basis.Z, cutoff)
        bound_x = decoy.y11_lower_bound(gains, op.weak, op.strong, optics.Basis.X, cutoff)
        e11 = None
        if bound_z.conditions_ok and bound_x.conditions_ok:
            try:
                e11 = decoy.e11_upper_bound(
                    gains, op.weak, op.strong,
                    decoy.single_pair_gain(op.weak, bound_x.value),
                    decoy.single_pair_gain(op.strong, bound_x.value),
                )
            except decoy.BoundUnavailableError:
                pass  # no usable denominator: an unlicensed outcome, not a failure
        return bound_z, bound_x, e11

    def check(self, op: BoundFile, out) -> str:
        bound_z, bound_x, e11 = out
        if bound_z.conditions_ok and not bound_z.value <= op.true_y11_z:
            return f"{op.scheme} Z bound {bound_z.value!r} above true {op.true_y11_z!r}"
        if bound_x.conditions_ok and not bound_x.value <= op.true_y11_x:
            return f"{op.scheme} X bound {bound_x.value!r} above true {op.true_y11_x!r}"
        if e11 is not None and not e11 >= op.true_e11:
            return f"{op.scheme} e11 bound {e11!r} below true {op.true_e11!r}"
        return ""


WORKLOADS = {
    "scan": ScanWorkload,
    "relay_sweep": RelaySweepWorkload,
    "bound_batch": BoundBatchWorkload,
}
