"""Secret key rate assembly for the studied source scenarios.

The rate has the usual shape: the single-photon-pair fraction earns key
at its privacy-amplified yield, the whole signal gain pays for error
correction.  Everything the estimator produced enters through two
numbers, the Y[1][1] lower bound and the e[1][1] upper bound, so the
finite-decoy scenarios and the asymptotic references share one formula.

Scenario names:

* W0 / W1: weak coherent (Poisson) sources without heralding,
  asymptotic yields versus estimated bounds.
* H0 / H1 / H2: heralded sources with Poisson signal arms.  H1 pairs
  triggered weak records with non-triggered strong ones; H2 uses
  triggered records at both intensities.
* T0 / T1: heralded sources with thermal signal arms, T1 paired like H1.

Scenarios ending in 0 are asymptotic references that read the true
single-photon-pair yield and error straight from the simulator.

The estimated scenarios take the record path: rate_for_scenario
assembles the gains of the weak and strong settings and their vacuum
rows in the series form gain_from_yields uses (decoy.series_sums), and
hands the numbers to the estimator core shared with the `bound` command
(decoy.y11_from_series and decoy.e11_from_moments); no GainTable is
built.  The work is planned in three tiers: what every row of a scenario
and cutoff shares (each event class's side factors, q1, the vacuum row,
the zero-intensity sides' weights) is cached by _plan; what no
point of a row changes (the stacked tables and the zero-intensity
sides' records) is kept in a row context (see _RowContext), which its
caller builds and holds for one call; so a point costs one photon row
per intensity, one stacked multiply, four matmuls over all its sides and
its records as Python floats, and it comes back as plain numbers
(_RowContext.rate); rate_for_scenario wraps them in a RatePoint.
rank_grid evaluates a whole intensity grid in one batched pass of the
same algebra (_RowContext.rates), exact to the point: its rates equal
rate_for_scenario's bit for bit, and it returns the best point's
RatePoint.  rate_for_scenario and rank_grid each build a row context per
call.  The optimizer (runner.optimize_mu_prime) builds one per row and
calls its rates and rate itself, so it evaluates the grid winner only
once and builds a RatePoint only for the points it returns.  The pass
builds only the (side, table) sums a point reads: the signal's on
Y_z and Y_z e_z, the strong and weak settings' on Y_z, Y_x and Y_x e_x;
a weak side fixed at mu_fixed (W1, H2) is summed once per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decoy import (
    COEFF_REL_TOL,
    BoundUnavailableError,
    e11_from_moments,
    error_moment,
    interior_gain,
    record_qber,
    series_sums,
    side_factors,
    side_weights,
    table_views,
    y11_coefficients,
    y11_from_series,
)
from .optics import Basis, LinkSpec, YieldTable, yield_table
from .source import (
    DistributionKind,
    HeraldingDetector,
    TriggerClass,
    photon_row,
    trigger_prob,
)

__all__ = [
    "DEFAULT_ERROR_CORRECTION",
    "SCENARIO_NAMES",
    "ScenarioKind",
    "RateInputs",
    "RatePoint",
    "binary_entropy",
    "key_rate",
    "basis_tables",
    "rate_for_scenario",
    "rank_grid",
]

DEFAULT_ERROR_CORRECTION = 1.16

SCENARIO_NAMES = ("W0", "W1", "H0", "H1", "H2", "T0", "T1")

_LOG2 = math.log(2.0)
# bound once: a rate point takes two entropies, a grid two per valid point
_log = math.log


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p, in bits.

    >>> binary_entropy(0.5)
    1.0
    """
    if 0.0 < p < 1.0:
        q = 1.0 - p
        return -(p * _log(p) + q * _log(q)) / _LOG2
    if p == 0.0 or p == 1.0:
        return 0.0
    raise ValueError(f"entropy argument must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class ScenarioKind:
    """One named curve of the study, and the one reading of its name into
    sources: distribution, heralding detector and event classes."""

    name: str
    heralding_efficiency: float = 0.75
    heralding_dark_rate: float = 1e-6

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}, expected one of {SCENARIO_NAMES}")
        HeraldingDetector(self.heralding_efficiency, self.heralding_dark_rate)  # range checks

    @property
    def distribution(self) -> DistributionKind:
        return DistributionKind.THERMAL if self.name.startswith("T") else DistributionKind.POISSON

    @property
    def heralded(self) -> bool:
        return self.name[0] in ("H", "T")

    @property
    def asymptotic(self) -> bool:
        return self.name.endswith("0")

    @property
    def coupled_mu(self) -> bool:
        """Whether the weak intensity tracks mu = (1 - eta) mu_prime."""
        return self.name in ("H1", "T1")

    @property
    def heralding(self) -> HeraldingDetector | None:
        """The idler detector of a heralded scenario; None for weak coherent sources."""
        if not self.heralded:
            return None
        return HeraldingDetector(self.heralding_efficiency, self.heralding_dark_rate)

    @property
    def classes(self) -> tuple[TriggerClass, TriggerClass, TriggerClass]:
        """Event classes of the signal, weak and strong records."""
        signal_cls = TriggerClass.TRIGGERED if self.heralded else TriggerClass.ALL
        if self.coupled_mu:
            return signal_cls, TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED
        return signal_cls, signal_cls, signal_cls

    def weak_intensity(self, mu_prime, mu_fixed: float):
        """The weak intensity paired with mu_prime (a float or an array)."""
        if self.coupled_mu:
            return (1.0 - self.heralding_efficiency) * mu_prime
        return mu_fixed


@dataclass(frozen=True)
class RateInputs:
    """Everything the rate formula consumes."""

    y11: float
    e11x: float
    gain_z: float
    qber_z: float
    p1_sq: float
    q1_sq: float
    f_ec: float = DEFAULT_ERROR_CORRECTION

    def __post_init__(self) -> None:
        if not 0.0 <= self.y11 <= 1.0:
            raise ValueError(f"y11 must lie in [0, 1], got {self.y11}")
        if not 0.0 <= self.e11x <= 1.0:
            raise ValueError(f"e11x must lie in [0, 1], got {self.e11x}")
        if not self.gain_z >= 0.0:
            raise ValueError(f"gain must be >= 0, got {self.gain_z}")
        if not 0.0 <= self.qber_z <= 1.0:
            raise ValueError(f"qber must lie in [0, 1], got {self.qber_z}")
        if not 0.0 <= self.p1_sq <= 1.0:
            raise ValueError(f"p1_sq must lie in [0, 1], got {self.p1_sq}")
        if not 0.0 <= self.q1_sq <= 1.0:
            raise ValueError(f"q1_sq must lie in [0, 1], got {self.q1_sq}")
        if not self.f_ec >= 1.0:
            raise ValueError(f"error correction factor must be >= 1, got {self.f_ec}")


def key_rate(inputs: RateInputs) -> float:
    """Secret bits per signal pulse pair; negative means no key."""
    return _key_rate(inputs.y11, inputs.e11x, inputs.gain_z, inputs.qber_z, inputs.p1_sq,
                     inputs.q1_sq, inputs.f_ec)


def _key_rate(y11, e11x, gain_z, qber_z, p1_sq, q1_sq, f_ec) -> float:
    """key_rate on RateInputs' fields, which the caller has range-checked."""
    privacy = 1.0 - binary_entropy(e11x)
    gained = q1_sq * p1_sq * y11 * privacy
    spent = gain_z * f_ec * binary_entropy(qber_z)
    return gained - spent


@dataclass(frozen=True)
class RatePoint:
    """One point of a rate-versus-distance curve.

    valid=False means the estimator could not license a bound here (or
    the optimizer found no positive rate); such points carry rate 0 and
    a reason code.
    """

    distance_km: float
    scenario: str
    mu: float
    mu_prime: float
    y11_bound: float
    e11_bound: float
    rate: float
    valid: bool
    reason: str = ""


def basis_tables(link: LinkSpec) -> tuple[YieldTable, YieldTable]:
    """Ground-truth yield tables of both bases for one link."""
    return yield_table(link, Basis.Z), yield_table(link, Basis.X)


# a side_weights cache with no caller in src/: it stays only because the benchmark's
# spans (perfbench/spans.py) read its counters; without it perfbench's traced smoke test
# reads decoy.side_weights.hit_ratio None and fails.  ROADMAP item 2 removes both together
_side_weights = lru_cache(maxsize=2048)(side_weights)


def _stacked_tables(tables: tuple[YieldTable, YieldTable]) -> np.ndarray:
    """The tables a row's records are summed on, (Y_z e_z, Y_z, Y_x, Y_x e_x): the
    signal reads the first two, Z's, and a setting the last three."""
    table_z, table_x = tables
    return np.stack((table_z.yields * table_z.errors, table_z.yields, table_x.yields,
                     table_x.yields * table_x.errors))


@lru_cache(maxsize=64)
def _plan(scenario: ScenarioKind, cutoff: int):
    """What every row of one (scenario, cutoff) shares, whatever its link:
    (q1, factors, vac0, signal, zero, zero_vac0).

    factors stacks decoy.side_factors as (a or vac, side, photon number) over
    a point's sides: strong (for the asymptotic scenarios, the signal), the
    signal when it is not strong, and weak last; vac0 has one entry per
    side, and signal indexes the signal's.  zero stacks the zero-intensity sides
    of weak and strong the same way, weak's first, one if shared, and zero_vac0
    holds their vac0 as a column; the asymptotic scenarios have none (None, None).
    """
    heralding = scenario.heralding
    signal_cls, weak_cls, strong_cls = scenario.classes
    factors = {cls: side_factors(heralding, cls, cutoff) for cls in dict.fromkeys(scenario.classes)}
    classes, zero, zero_vac0 = (signal_cls,), None, None
    if not scenario.asymptotic:
        classes = tuple(dict.fromkeys((strong_cls, signal_cls))) + (weak_cls,)
        zero_cls = tuple(dict.fromkeys((weak_cls, strong_cls)))
        vacuum = np.array(photon_row(scenario.distribution, 0.0, cutoff))
        zero = np.array([[factors[cls][i] for cls in zero_cls] for i in (0, 1)]) * vacuum
        zero_vac0 = np.array([[factors[cls][2]] for cls in zero_cls])
    a, vac, vac0 = zip(*(factors[cls] for cls in classes))
    q1 = trigger_prob(heralding, 1) if heralding is not None else 1.0
    return q1, np.array((a, vac)), vac0, classes.index(signal_cls), zero, zero_vac0


# keyed by the intensities and heralding only, so every link of a scan or relay sweep
# shares one entry per scenario; it keeps margins, licensed per call by COEFF_REL_TOL
@lru_cache(maxsize=32)
def _grid_weights(scenario: ScenarioKind, mu_primes: tuple[float, ...], mu_fixed: float,
                  cutoff: int):
    """The weight-only half of _RowContext.rates over a grid: (mus, usable, w, settings,
    pq, coeffs, a11).  mus are the weak intensities; usable marks the points
    rate_for_scenario does not reject outright, the others get placeholder
    weights; w is _plan's factors times the photon rows, as (a or vac, point,
    side, photon number); pq is q1^2 p1^2.  The estimated scenarios add the
    setting rows, as (a or vac, row, photon number): the strong side at each
    point, then the weak side at each point, or once when the weak intensity is
    fixed at mu_fixed; and each point's y11_coefficients and the weak and strong
    (1, 1) coefficients a11."""
    kind, estimated = scenario.distribution, not scenario.asymptotic
    q1, factors, vac0 = _plan(scenario, cutoff)[:3]
    mus = [scenario.weak_intensity(mu_prime, mu_fixed) for mu_prime in mu_primes]
    usable = [mp > 0.0 and (mu > 0.0 or not estimated) for mp, mu in zip(mu_primes, mus)]
    # every side but the weak one is at mu', as in .rate
    rows = [[photon_row(kind, mp if ok else 1.0, cutoff)] * (len(vac0) - estimated)
            + [photon_row(kind, mu if ok else 1.0, cutoff)] * estimated
            for mp, mu, ok in zip(mu_primes, mus, usable)]
    w = factors[:, None] * np.array(rows)
    pq = np.array([q1 * q1 * (r[0][1] * r[0][1]) for r in rows])
    settings = coeffs = a11 = None
    if estimated:
        a_weak, a_strong = w[0, :, -1], w[0, :, 0]
        coeffs = zip(*(y11_coefficients(a, a, b, b) for a, b in zip(a_weak, a_strong)))
        coeffs = [np.array(c)[:, None] for c in coeffs]
        a11 = np.stack((a_weak[:, 1] * a_weak[:, 1], a_strong[:, 1] * a_strong[:, 1]), axis=1)
        weak = w[:, :, -1]
        if not scenario.coupled_mu and True in usable:
            # every usable point's weak side is the one at mu_fixed
            first = usable.index(True)
            weak = weak[:, first:first + 1]
        settings = np.concatenate((w[:, :, 0], weak), axis=1)
    return mus, np.array(usable), w, settings, pq, coeffs, a11


def _side_sums(w: np.ndarray, vac0, views: tuple):
    """(col, row, full) of each side vector of w, as (a or vac, ..., photon number), on
    the tables of views, each as (..., table): decoy.series_sums' column and row sums
    and the (x, x) record it sums to, with the sides' vac0."""
    col, row, inner = series_sums(w, w, views)
    return col, row, inner + (vac0 * col + vac0 * row - vac0 * vac0 * views[3])


# the columns of _RowContext.setting_consts: vac0, z0, zero col, zero row, zero records, corner_x
_CONST_SPANS = ((0, 1), (1, 2), (2, 5), (5, 8), (8, 11), (11, 12))


class _RowContext:
    """What every evaluation of one (scenario, link, tables, f_ec) row shares.

    Built by its caller and held for one call: rank_grid and
    rate_for_scenario build one per call, the optimizer one per row, whose
    grid and points all read it.  It holds _plan's part, the point's
    constants (distance, name, q1^2, the factors of each side count), the
    stacked tables with the views and (0, 0) corners decoy.series_sums
    reads (decoy.table_views), and each zero-intensity side's vac0, column
    and row sums and (0, 0) record on the tables a setting reads.  The last
    weak setting's results are kept, so a weak intensity that does not
    follow mu' (W1, H2) is assembled once per row.  A point costs one photon
    row per intensity, one multiply by its sides' stacked factors and one
    series_sums over all its sides; the records and the estimator's inputs are then Python floats
    in the order gain_from_yields sums them.  .rate returns the point's
    numbers, and .point makes them the RatePoint rate_for_scenario returns.
    """

    def __init__(self, scenario: ScenarioKind, link: LinkSpec, tables, f_ec: float) -> None:
        table_z, table_x = tables
        if (table_z.basis, table_x.basis) != (Basis.Z, Basis.X) or not (
            table_z.cutoff == table_x.cutoff == link.cutoff
        ):
            raise ValueError(
                f"tables must be the Z and X tables at the link's cutoff {link.cutoff}, got "
                f"{table_z.basis.value} at cutoff {table_z.cutoff} and "
                f"{table_x.basis.value} at cutoff {table_x.cutoff}"
            )
        self.scenario, self.f_ec = scenario, f_ec
        self.distance, self.name, self.cutoff = link.total_distance_km, scenario.name, link.cutoff
        self.kind, self.asymptotic = scenario.distribution, scenario.asymptotic
        q1, factors, self.vac0, self.signal, zero, zero_vac0 = _plan(scenario, link.cutoff)
        self.q1_sq = q1 * q1
        # a point's factors by its number of sides: all, or all but a kept weak side
        self.side_factors = [factors[:, :n] for n in range(len(self.vac0) + 1)]
        stacked = _stacked_tables(tables)
        # the signal's tables, and a setting's: the asymptotic scenarios read no setting
        signal, setting = stacked[:2], stacked[1:]
        self.signal_views = table_views(signal)
        self.views = self.signal_views if self.asymptotic else table_views(stacked)
        self.corner = self.views[3].tolist()
        # what the asymptotic scenarios read for Y11 and e11
        self.true11 = float(table_z.yields[1, 1]), float(table_x.errors[1, 1])
        self.weak: tuple[float, np.ndarray, tuple[float, float, float], float] | None = None
        if not self.asymptotic:
            self.setting_corner = self.corner[1:]
            self.setting_views = table_views(setting)
            # each zero-intensity side's vac0, column and row sums and (0, 0) record on a
            # setting's tables; a zero side's interior is the +0.0 its a[1:] == 0 gives
            col, row, inner = series_sums(zero, zero, self.setting_views)
            v = zero_vac0
            full = inner + (v * col + v * row - v * v * self.setting_views[3])
            self.zero = list(zip(v[:, 0].tolist(), col.tolist(), row.tolist(), full.tolist()))
            # per setting, strong then weak: vac0, its zero side's vac0, column sums, row
            # sums and (0, 0) records, and that record's X gain times its qber
            self.setting_consts = np.array([
                (v, z0, *zc, *zr, *zz, zz[1] * (zz[2] / zz[1] if zz[1] > 0.0 else 0.0))
                for v, (z0, zc, zr, zz) in ((self.vac0[0], self.zero[-1]),
                                            (self.vac0[-1], self.zero[0]))
            ])

    def setting(self, vac0: float, col, row, inner, zero) -> tuple[float, float, float]:
        """A symmetric setting's interior gains in Z and X (decoy.interior_gain) and X
        error moment (decoy.error_moment), from its side's vac0 and per-table column
        sums, row sums and (x, x) interiors, and its zero side's on a setting's tables."""
        z0, zero_col, zero_row, zero_gain = zero
        # the (x, x), (x, 0), (0, x) and (0, 0) records on each table a setting reads,
        # (Y_z, Y_x, Y_x e_x), where a record with a zero side takes the +0.0 interior
        # series_sums gives it
        z_gains, x_gains, x_wrongs = [
            (i + (vac0 * c + vac0 * r - vac0 * vac0 * m),
             0.0 + (z0 * c + vac0 * zr - vac0 * z0 * m),
             0.0 + (vac0 * zc + z0 * r - z0 * vac0 * m), zz)
            for i, c, r, m, zc, zr, zz in zip(inner[1:], col[1:], row[1:], self.setting_corner,
                                               zero_col, zero_row, zero_gain)
        ]
        # each X record's gain times its qber, as record_qber takes it
        x = [g * (w / g if g > 0.0 else 0.0) for g, w in zip(x_gains, x_wrongs)]
        return interior_gain(*z_gains), interior_gain(*x_gains), error_moment(*x)

    def rate(self, mu: float, mu_prime: float) -> tuple[float, float, float, str]:
        """(y11, e11, rate, reason) of rate_for_scenario's point at these intensities,
        as .point takes them; mu_prime is > 0."""
        kind, cutoff = self.kind, self.cutoff
        photons = photon_row(kind, mu_prime, cutoff)
        kept = self.weak
        # every side but the weak one is at mu'
        rows = [photons] * (len(self.vac0) - (not self.asymptotic))
        if not self.asymptotic:
            if not mu > 0.0:
                raise ValueError(f"weak intensity must be > 0, got {mu}")
            if kept is None or kept[0] != mu:
                rows.append(photon_row(kind, mu, cutoff))
                kept = None
        # each side's a and vac weights, as (a or vac, side, photon number)
        w = self.side_factors[len(rows)] * np.array(rows)
        col, row, inner = (x.tolist() for x in series_sums(w, w, self.views))
        if self.asymptotic:
            y11, e11 = self.true11
        else:
            # each side's (1,1) interior weight, as single_pair_gain takes it
            a1 = w[0, :, 1].tolist()
            if kept is None:
                weak = self.setting(self.vac0[-1], col[-1], row[-1], inner[-1], self.zero[0])
                kept = self.weak = (mu, w[0, -1], weak, a1[-1] * a1[-1])
            _, wa, weak, weak11 = kept
            sa = w[0, 0]
            strong = self.setting(self.vac0[0], col[0], row[0], inner[0], self.zero[-1])
            coeffs = y11_coefficients(wa, wa, sa, sa)
            y11, _, licensed = y11_from_series(coeffs, weak[0], strong[0])
            if not licensed:
                return y11, 0.0, 0.0, "bound_conditions"
            y11_x, _, _ = y11_from_series(coeffs, weak[1], strong[1])
            s11 = (weak11 * y11_x, (a1[0] * a1[0]) * y11_x)
            try:
                e11 = e11_from_moments((weak[2], strong[2]), s11)
            except BoundUnavailableError:
                return y11, 0.0, 0.0, "e11_unavailable"
        # the signal's (x, x) error-weighted gain and gain in Z
        s, m = self.signal, self.corner
        v, c, r, i = self.vac0[s], col[s], row[s], inner[s]
        wrong_z = i[0] + (v * c[0] + v * r[0] - v * v * m[0])
        gain_z = i[1] + (v * c[1] + v * r[1] - v * v * m[1])
        qber_z, p1_sq = record_qber(gain_z, wrong_z), photons[1] * photons[1]
        q1_sq, f_ec = self.q1_sq, self.f_ec
        # RateInputs' range checks; it is built only to raise its error
        if not (0.0 <= y11 <= 1.0 and 0.0 <= e11 <= 1.0 and gain_z >= 0.0 and 0.0 <= qber_z <= 1.0
                and 0.0 <= p1_sq <= 1.0 and 0.0 <= q1_sq <= 1.0 and f_ec >= 1.0):
            RateInputs(y11, e11, gain_z, qber_z, p1_sq, q1_sq, f_ec)
        return y11, e11, _key_rate(y11, e11, gain_z, qber_z, p1_sq, q1_sq, f_ec), ""

    def point(self, mu, mu_prime, y11, e11, rate, reason="") -> RatePoint:
        mu_out = 0.0 if self.asymptotic else mu
        return RatePoint(self.distance, self.name, mu_out, mu_prime, y11, e11, rate,
                         valid=not reason, reason=reason)

    def rates(self, mu_fixed: float, mu_primes: tuple[float, ...]):
        """(rates, best): .rate's rate at each mu_prime, with the weak intensity
        scenario.weak_intensity(mu_prime, mu_fixed), -inf where .rate returns an
        invalid point or raises, and the first best RatePoint, or None.  Bit for
        bit .rate's: its matmul forms with (point, side) as leading axes, its
        algebra elementwise in its order, binary_entropy per valid point.  Only
        the sums a point reads are built: the signal's on (Y_z e_z, Y_z), the
        strong and weak settings' on (Y_z, Y_x, Y_x e_x), and a weak side fixed
        at mu_fixed once, not once per point."""
        out = np.full(len(mu_primes), -math.inf)
        mus, usable, w, settings, pq, coeffs, a11 = _grid_weights(
            self.scenario, mu_primes, mu_fixed, self.cutoff)
        points = len(mus)
        s = self.signal
        full = _side_sums(w[:, :, s], self.vac0[s], self.signal_views)[2]
        wrong_z, gain_z = full[:, 0], full[:, 1]

        def qber(gain, wrong):
            return np.where(gain > 0.0, wrong / gain, 0.0)

        def clamp(x, hi):  # min(max(x, 0.0), hi), nan and -0.0 included
            x = np.where(0.0 > x, 0.0, x)
            return np.where(hi < x, hi, x)

        with np.errstate(divide="ignore", invalid="ignore"):
            valid = usable
            if self.asymptotic:
                y11, e11 = self.true11
            else:
                # .setting's records, as (setting row, table): strong's rows, one per
                # point, then weak's, one per point or one for all
                weak_rows = settings.shape[1] - points
                consts = np.repeat(self.setting_consts, (points, weak_rows), axis=0)
                v, z0, zc, zr, zz, corner_x = (consts[:, a:b] for a, b in _CONST_SPANS)
                col, row, full = _side_sums(settings, v, self.setting_views)
                m = self.setting_views[3]
                row_x = 0.0 + (z0 * col + v * zr - v * z0 * m)
                row_y = 0.0 + (v * zc + z0 * row - z0 * v * m)
                # interior gains in Z and X, and X error moments
                gains = interior_gain(full, row_x, row_y, zz)[:, :2]
                x = [rec[:, 1] * qber(rec[:, 1], rec[:, 2]) for rec in (full, row_x, row_y)]
                moments = error_moment(*x, corner_x[:, 0])
                strong, weak = gains[:points], gains[points:]
                k, denom, swapped, margin = coeffs
                # y11_from_series' value in Z and X; its licence reads the tolerance now
                lead, other = np.where(swapped, strong, weak), np.where(swapped, weak, strong)
                y11 = clamp((k * lead - other) / denom, 1.0)
                y11, s11 = y11[:, 0], a11 * y11[:, 1:]
                # e11_from_moments' min over the candidates of positive s11, in list order
                c_weak, c_strong = moments[points:] / s11[:, 0], moments[:points] / s11[:, 1]
                s_weak, s_strong = (s11 > 0.0).T
                pick = s_strong & (~s_weak | (c_strong < c_weak))
                e11 = clamp(np.where(pick, c_strong, c_weak), 0.5)
                valid = valid & (margin[:, 0] <= COEFF_REL_TOL) & (s_weak | s_strong)
            qber_z = qber(gain_z, wrong_z)
            # what RateInputs checks; p1^2 and q1^2 are squared probabilities
            for value in (y11, e11, qber_z):
                valid = valid & (0.0 <= value) & (value <= 1.0)
            valid = valid & (gain_z >= 0.0) & (self.f_ec >= 1.0)
        kept = np.flatnonzero(valid)
        if not len(kept):
            return out, None
        if self.asymptotic:
            gained = pq[kept] * y11 * (1.0 - binary_entropy(e11))
        else:
            privacy = 1.0 - np.array(list(map(binary_entropy, e11[kept].tolist())))
            gained = pq[kept] * y11[kept] * privacy
        spent = np.array(list(map(binary_entropy, qber_z[kept].tolist())))
        out[kept] = gained - gain_z[kept] * self.f_ec * spent
        best = int(np.argmax(out))
        if not self.asymptotic:
            y11, e11 = float(y11[best]), float(e11[best])
        return out, self.point(mus[best], mu_primes[best], y11, e11, float(out[best]))


def rate_for_scenario(
    scenario: ScenarioKind,
    link: LinkSpec,
    mu: float,
    mu_prime: float,
    tables: tuple[YieldTable, YieldTable] | None = None,
    f_ec: float = DEFAULT_ERROR_CORRECTION,
) -> RatePoint:
    """Evaluate one scenario at fixed intensities on one link.

    mu is ignored by the asymptotic scenarios.  The returned rate may be
    negative for a valid point; validity only says the bounds existed.

    The estimated scenarios take the record path of the module
    docstring, through a row context of (scenario, link, tables, f_ec)
    built for this call.  Every returned point equals what
    y11_lower_bound and e11_upper_bound give on a GainTable of the same
    records.
    """
    if not mu_prime > 0.0:
        raise ValueError(f"signal intensity must be > 0, got {mu_prime}")
    if tables is None:
        tables = basis_tables(link)
    row = _RowContext(scenario, link, tables, f_ec)
    return row.point(mu, mu_prime, *row.rate(mu, mu_prime))


def rank_grid(scenario: ScenarioKind, link: LinkSpec, mu_fixed: float, mu_primes: np.ndarray,
              tables: tuple[YieldTable, YieldTable], f_ec: float = DEFAULT_ERROR_CORRECTION
              ) -> tuple[np.ndarray, RatePoint | None]:
    """(rates, best) of _RowContext.rates over a grid of signal intensities, in a row
    context built for this call: rates equal to rate_for_scenario's, -inf where it
    returns an invalid point or raises, and the first best RatePoint or None.
    tables are basis_tables(link)."""
    grid = tuple(np.asarray(mu_primes, dtype=float).tolist())
    return _RowContext(scenario, link, tables, f_ec).rates(mu_fixed, grid)
