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
rows in the series form gain_from_yields uses (decoy.weight_parts and
decoy.series_gain), and hands the numbers to the estimator core shared
with the `bound` command (decoy.y11_from_series and
decoy.e11_from_moments); no GainTable is built.  The work is planned in
three tiers: what every row of a scenario and cutoff shares (each event
class's side factors, q1, the vacuum row) is cached by _plan; what no
point of a row changes (the stacked tables and the zero-intensity
sides' records) is kept in a row context (see _RowContext); so a point
costs one photon row per intensity, one stacked multiply, four matmuls
over all its sides and its records as Python floats.  grid_rates
evaluates a whole intensity grid in one array pass, for ranking only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .decoy import (
    COEFF_REL_TOL,
    BoundUnavailableError,
    SideWeights,
    e11_from_moments,
    interior_gain,
    record_qber,
    series_gain,
    side_factors,
    side_weights,
    weight_parts,
    y11_coefficients,
    y11_from_series,
)
from .optics import Basis, LinkSpec, YieldTable, yield_table
from .source import (
    DistributionKind,
    HeraldingDetector,
    SourceSpec,
    TriggerClass,
    photon_row,
    photon_weight,
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
    "grid_rates",
]

DEFAULT_ERROR_CORRECTION = 1.16

SCENARIO_NAMES = ("W0", "W1", "H0", "H1", "H2", "T0", "T1")

_LOG2 = math.log(2.0)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p, in bits.

    >>> binary_entropy(0.5)
    1.0
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log(p) + q * math.log(q)) / _LOG2


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
    privacy = 1.0 - binary_entropy(inputs.e11x)
    gained = inputs.q1_sq * inputs.p1_sq * inputs.y11 * privacy
    spent = inputs.gain_z * inputs.f_ec * binary_entropy(inputs.qber_z)
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


# weights are pure functions of (source, cutoff); the optimizer hits the
# same handful of sources hundreds of times per curve.  Golden refinement
# adds fresh float keys at every point, so the cache is bounded; the grid's
# sources stay recently used, and a scan misses no more often than with an
# unbounded cache
_side_weights = lru_cache(maxsize=2048)(side_weights)


def _stacked_tables(tables: tuple[YieldTable, YieldTable]) -> np.ndarray:
    """Per basis, the yields and the error-weighted yields: (Y_z, Y_z e_z, Y_x, Y_x e_x)."""
    return np.stack([m for t in tables for m in (t.yields, t.yields * t.errors)])


@lru_cache(maxsize=64)
def _plan(scenario: ScenarioKind, cutoff: int):
    """What every row of one (scenario, cutoff) shares, whatever its link:
    (q1, factors, vac0, signal, zero_vac, zero_vac0).

    factors stacks decoy.side_factors as (a or vac, side, photon number) over
    a point's sides: strong (for the asymptotic scenarios, the signal), the
    signal when it is not strong, and weak last; vac0 has one entry per
    side, and signal indexes the signal's.  zero_vac and zero_vac0 are the
    zero-intensity sides of weak and strong, weak's first, one if shared.
    """
    heralding = scenario.heralding
    signal_cls, weak_cls, strong_cls = scenario.classes
    factors = {cls: side_factors(heralding, cls, cutoff) for cls in dict.fromkeys(scenario.classes)}
    classes, zero = (signal_cls,), ()
    if not scenario.asymptotic:
        classes = tuple(dict.fromkeys((strong_cls, signal_cls))) + (weak_cls,)
        zero = tuple(dict.fromkeys((weak_cls, strong_cls)))
    a, vac, vac0 = zip(*(factors[cls] for cls in classes))
    vacuum = np.array(photon_row(scenario.distribution, 0.0, cutoff))
    zero_vac = np.array([factors[cls][1] * vacuum for cls in zero])
    q1 = trigger_prob(heralding, 1) if heralding is not None else 1.0
    return (q1, np.array((a, vac)), vac0, classes.index(signal_cls), zero_vac,
            tuple(factors[cls][2] for cls in zero))


class _RowContext:
    """What every evaluation of one (scenario, link, tables, f_ec) row shares.

    Built on a row's first grid_rates or rate_for_scenario call and reused
    by every later one: _plan's part, the stacked tables with the views
    and (0, 0) corners decoy.weight_parts and series_gain read, and each
    zero-intensity side's vac0, column and row sums and (0, 0) record.  The
    last weak setting's results are kept, so a weak intensity that does not
    follow mu' (W1, H2) is assembled once per row.  A point costs one
    photon row per intensity, one multiply by its sides' stacked factors,
    weight_parts' three matmul forms over all its sides and one more for
    their (x, x) interiors; the records and the estimator's inputs are then
    Python floats in series_gain's order.
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
        # the context holds the tables, so their ids cannot be reused while it lives
        self.key = (scenario, link, f_ec, id(tables[0]), id(tables[1]))
        self.scenario, self.link, self.tables, self.f_ec = scenario, link, tables, f_ec
        self.kind, self.asymptotic = scenario.distribution, scenario.asymptotic
        self.q1, self.factors, self.vac0, self.signal, zero_vac, zero_vac0 = _plan(
            scenario, link.cutoff)
        self.mats = _stacked_tables(tables)
        # the asymptotic signal's own record only enters the Z basis
        mats = self.mats[:2] if self.asymptotic else self.mats
        self.views = (mats[None, :, :, :1], mats[None, :, :1, :], mats[None, :, 1:, 1:])
        self.corner = mats[:, 0, 0].tolist()
        zeros = weight_parts(None, zero_vac, zero_vac0, mats) if zero_vac0 else []
        self.zero = [(z.vac0, z.col, z.row, series_gain(z, z, mats)) for z in zeros]
        self.weak: tuple[float, np.ndarray, tuple[float, float, float]] | None = None

    def setting(self, vac0: float, col, row, inner, zero) -> tuple[float, float, float]:
        """A symmetric setting's interior gains in Z and X (decoy.interior_gain) and X
        error moment (decoy.error_moment), from its side's vac0 and per-table column
        sums, row sums and (x, x) interiors, and its zero side's."""
        z0, zero_col, zero_row, zero_gain = zero
        # series_gain's (x, x), (x, 0), (0, x) and (0, 0) records on each table, where a
        # record with a zero side takes the +0.0 its skipped interior gave
        z_gains, _, x_gains, x_wrongs = [
            (i + (vac0 * c + vac0 * r - vac0 * vac0 * m),
             0.0 + (z0 * c + vac0 * zr - vac0 * z0 * m),
             0.0 + (vac0 * zc + z0 * r - z0 * vac0 * m), zz)
            for i, c, r, zc, zr, m, zz in zip(
                inner, col, row, zero_col, zero_row, self.corner, zero_gain)
        ]
        # each X record's gain times its qber, as record_qber takes it
        x = [g * (w / g if g > 0.0 else 0.0) for g, w in zip(x_gains, x_wrongs)]
        return interior_gain(*z_gains), interior_gain(*x_gains), x[0] - x[1] - x[2] + x[3]

    def rate(self, mu: float, mu_prime: float) -> RatePoint:
        """rate_for_scenario's point at these intensities; mu_prime is > 0."""
        kind, cutoff = self.kind, self.link.cutoff
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
        sides = len(rows)
        # each side's a and vac weights, as (a or vac, side, photon number)
        w = self.factors[:, :sides] * np.array(rows)
        col_mats, row_mats, inner_mats = self.views
        col = (w[1, :, None, None, :] @ col_mats).reshape(sides, -1).tolist()
        row = (row_mats @ w[1, :, None, :, None]).reshape(sides, -1).tolist()
        inner = (w[0, :, None, None, 1:] @ inner_mats) @ w[0, :, None, 1:, None]
        inner = inner.reshape(sides, -1).tolist()
        if self.asymptotic:
            y11 = float(self.tables[0].yields[1, 1])
            e11 = float(self.tables[1].errors[1, 1])
        else:
            if kept is None:
                weak = self.setting(self.vac0[-1], col[-1], row[-1], inner[-1], self.zero[0])
                kept = self.weak = (mu, w[0, -1], weak)
            _, wa, weak = kept
            sa = w[0, 0]
            strong = self.setting(self.vac0[0], col[0], row[0], inner[0], self.zero[-1])
            coeffs = y11_coefficients(wa, wa, sa, sa)
            y11, _, licensed = y11_from_series(coeffs, weak[0], strong[0])
            if not licensed:
                return self.point(mu, mu_prime, y11, 0.0, 0.0, "bound_conditions")
            y11_x, _, _ = y11_from_series(coeffs, weak[1], strong[1])
            # each setting's (1,1) interior coefficient, as single_pair_gain takes it
            s11 = (float(wa[1] * wa[1]) * y11_x, float(sa[1] * sa[1]) * y11_x)
            try:
                e11 = e11_from_moments((weak[2], strong[2]), s11)
            except BoundUnavailableError:
                return self.point(mu, mu_prime, y11, 0.0, 0.0, "e11_unavailable")
        # the signal's (x, x) gain and error-weighted gain in Z
        s = self.signal
        v, c, r, i = self.vac0[s], col[s], row[s], inner[s]
        gain_z, wrong_z = (i[t] + (v * c[t] + v * r[t] - v * v * self.corner[t]) for t in (0, 1))
        p1 = photons[1]
        rate = key_rate(
            RateInputs(
                y11=y11,
                e11x=e11,
                gain_z=gain_z,
                qber_z=record_qber(gain_z, wrong_z),
                p1_sq=p1 * p1,
                q1_sq=self.q1 * self.q1,
                f_ec=self.f_ec,
            )
        )
        return self.point(mu, mu_prime, y11, e11, rate)

    def point(self, mu, mu_prime, y11, e11, rate, reason="") -> RatePoint:
        mu_out = 0.0 if self.asymptotic else mu
        return RatePoint(self.link.total_distance_km, self.scenario.name, mu_out, mu_prime,
                         y11, e11, rate, valid=not reason, reason=reason)


# the row of the last rate_for_scenario or grid_rates call: the optimizer
# ranks one row's grid and evaluates its points back to back, so one slot
# serves every call after the first
_last_row: _RowContext | None = None


def _row(scenario: ScenarioKind, link: LinkSpec, tables, f_ec: float) -> _RowContext:
    """The row context of (scenario, link, tables, f_ec), found by the identity of the tables."""
    global _last_row
    row = _last_row
    if row is None or row.key != (scenario, link, f_ec, id(tables[0]), id(tables[1])):
        row = _last_row = _RowContext(scenario, link, tables, f_ec)
    return row


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
    docstring, through the row context of (scenario, link, tables,
    f_ec), found by the identity of the table objects.  Every returned
    point equals what y11_lower_bound and e11_upper_bound give on a
    GainTable of the same records.
    """
    if not mu_prime > 0.0:
        raise ValueError(f"signal intensity must be > 0, got {mu_prime}")
    if tables is None:
        tables = basis_tables(link)
    return _row(scenario, link, tables, f_ec).rate(mu, mu_prime)


class _Sides(NamedTuple):
    """Side weights of one record side stacked over grid points.

    a and vac have one row per point (or a single row shared by every
    point) and cutoff + 1 columns; vac0 has one entry per row.  a is None
    for a side at intensity zero, whose interior weights are all zero.
    """

    a: np.ndarray | None
    vac: np.ndarray
    vac0: np.ndarray


def _stack(weights: list[SideWeights]) -> _Sides:
    return _Sides(
        None if all(w.source.intensity == 0.0 for w in weights)
        else np.array([w.a for w in weights]),
        np.array([w.vac for w in weights]),
        np.array([w.vac_at_zero for w in weights]),
    )


class _GridConstants(NamedTuple):
    """The link-independent part of grid_rates for one intensity grid.

    usable marks the points rate_for_scenario does not reject outright
    (positive intensities); the others carry placeholder weights.  The
    estimated scenarios also need the weak and strong sides with their
    zero-intensity counterparts and the Y11 coefficients of
    decoy.y11_coefficients.
    """

    usable: np.ndarray
    signal: _Sides
    pq: np.ndarray
    weak: _Sides | None = None
    weak_zero: _Sides | None = None
    strong: _Sides | None = None
    strong_zero: _Sides | None = None
    k: np.ndarray | None = None
    denom: np.ndarray | None = None
    swapped: np.ndarray | None = None
    licensed: np.ndarray | None = None


# keyed by the intensities and heralding only, so every link of a scan
# or relay sweep shares one entry per scenario
@lru_cache(maxsize=32)
def _grid_constants(
    scenario: ScenarioKind, mu_primes: tuple[float, ...], mu_fixed: float, cutoff: int
) -> _GridConstants:
    kind = scenario.distribution
    heralding = scenario.heralding
    signal_cls, weak_cls, strong_cls = scenario.classes
    mp = np.array(mu_primes)
    mu = np.broadcast_to(scenario.weak_intensity(mp, mu_fixed), mp.shape)
    usable = mp > 0.0
    if not scenario.asymptotic:
        usable &= mu > 0.0
    mp = np.where(usable, mp, 1.0).tolist()
    mu = np.where(usable, mu, 1.0).tolist()

    def weights(intensities: list[float], cls: TriggerClass) -> list[SideWeights]:
        return [_side_weights(SourceSpec(kind, x, heralding, cls), cutoff) for x in intensities]

    signal = _stack(weights(mp, signal_cls))
    q1 = trigger_prob(heralding, 1) if heralding is not None else 1.0
    p1 = np.array([photon_weight(kind, x, 1) for x in mp])
    pq = (q1 * q1) * (p1 * p1)
    if scenario.asymptotic:
        return _GridConstants(usable, signal, pq)

    weak = weights(mu, weak_cls)
    strong = weights(mp, strong_cls)
    coeffs = [y11_coefficients(w.a, w.a, st.a, st.a) for w, st in zip(weak, strong)]
    k, denom, swapped, margin = (np.array(col) for col in zip(*coeffs))
    return _GridConstants(
        usable,
        signal,
        pq,
        weak=_stack(weak),
        weak_zero=_stack(weights([0.0], weak_cls)),
        strong=_stack(strong),
        strong_zero=_stack(weights([0.0], strong_cls)),
        k=k,
        denom=denom,
        swapped=swapped,
        licensed=margin <= COEFF_REL_TOL,
    )


def _stacked_gains(alice: _Sides, bob: _Sides, mats: np.ndarray) -> np.ndarray:
    """gain_from_yields' double series for every grid point at once.

    mats stacks (cutoff + 1)-square tables; the result has one row per
    table and one column per grid point.  A side at intensity zero has
    no interior weights, so a record with one is its vacuum rows alone.
    """
    interior = 0.0
    if alice.a is not None and bob.a is not None:
        interior = ((alice.a[:, 1:] @ mats[:, 1:, 1:]) * bob.a[:, 1:]).sum(axis=-1)
    rows = bob.vac0 * (mats[:, :, 0] @ alice.vac.T)
    rows = rows + alice.vac0 * (mats[:, 0, :] @ bob.vac.T)
    rows = rows - alice.vac0 * bob.vac0 * mats[:, 0, 0, None]
    return interior + rows


def _pair_records(side: _Sides, zero: _Sides, mats: np.ndarray) -> list[np.ndarray]:
    """The (x, x), (x, 0), (0, x) and (0, 0) records of a symmetric pair."""
    return [
        _stacked_gains(side, side, mats),
        _stacked_gains(side, zero, mats),
        _stacked_gains(zero, side, mats),
        _stacked_gains(zero, zero, mats),
    ]


def _qber(gain: np.ndarray, wrong: np.ndarray) -> np.ndarray:
    return np.where(gain > 0.0, wrong / gain, 0.0)


def _entropy(p: np.ndarray) -> np.ndarray:
    """binary_entropy elementwise; entries outside [0, 1] come out nan."""
    q = 1.0 - p
    h = -(p * np.log(p) + q * np.log(q)) / _LOG2
    return np.where((p == 0.0) | (p == 1.0), 0.0, h)


def grid_rates(
    scenario: ScenarioKind,
    link: LinkSpec,
    mu_fixed: float,
    mu_primes: np.ndarray,
    tables: tuple[YieldTable, YieldTable],
    f_ec: float = DEFAULT_ERROR_CORRECTION,
) -> np.ndarray:
    """rate_for_scenario's rate at every signal intensity of a grid, in one array pass.

    tables are basis_tables(link).  Each point pairs mu_prime with
    scenario.weak_intensity(mu_prime, mu_fixed).  Points where
    rate_for_scenario returns an invalid point or raises read -inf.
    The series are summed in a different order than the scalar path,
    so rates agree with it to float rounding only: they rank grid
    points, and reported values come from rate_for_scenario.
    Everything that depends only on the intensities and heralding is
    cached per (scenario, grid, mu_fixed, cutoff); per link only the
    gains and the bound algebra are computed, over the stacked tables of
    the row context that rate_for_scenario reuses for the same row.
    """
    table_z, table_x = tables
    grid = np.asarray(mu_primes, dtype=float)
    if not f_ec >= 1.0:
        return np.full(grid.shape, -math.inf)
    const = _grid_constants(scenario, tuple(grid.tolist()), mu_fixed, link.cutoff)
    mats = _row(scenario, link, tables, f_ec).mats
    with np.errstate(divide="ignore", invalid="ignore"):
        gain_z, wrong_z = _stacked_gains(const.signal, const.signal, mats[:2])
        qber_z = _qber(gain_z, wrong_z)
        valid = const.usable & (gain_z >= 0.0) & (qber_z >= 0.0) & (qber_z <= 1.0)
        if scenario.asymptotic:
            y11 = float(table_z.yields[1, 1])
            e11 = float(table_x.errors[1, 1])
        else:
            weak = _pair_records(const.weak, const.weak_zero, mats)
            strong = _pair_records(const.strong, const.strong_zero, mats)

            def y11_bound(row: int) -> np.ndarray:
                s_weak, s_strong = (
                    full[row] - (row_x[row] + row_y[row] - corner[row])
                    for full, row_x, row_y, corner in (weak, strong)
                )
                lead = np.where(const.swapped, s_strong, s_weak)
                other = np.where(const.swapped, s_weak, s_strong)
                raw = (const.k * lead - other) / const.denom
                return np.minimum(np.maximum(raw, 0.0), 1.0)

            def error_moment(records: list[np.ndarray]) -> np.ndarray:
                full, row_x, row_y, corner = (rec[2] * _qber(rec[2], rec[3]) for rec in records)
                return full - row_x - row_y + corner

            y11 = y11_bound(0)
            y11_x = y11_bound(2)
            # each pair's (1,1) interior coefficient times the X bound
            s11_weak = const.weak.a[:, 1] * const.weak.a[:, 1] * y11_x
            s11_strong = const.strong.a[:, 1] * const.strong.a[:, 1] * y11_x
            candidates = np.minimum(
                np.where(s11_weak > 0.0, error_moment(weak) / s11_weak, math.inf),
                np.where(s11_strong > 0.0, error_moment(strong) / s11_strong, math.inf),
            )
            e11 = np.minimum(np.maximum(candidates, 0.0), 0.5)
            valid &= const.licensed & ((s11_weak > 0.0) | (s11_strong > 0.0))
        valid &= (y11 >= 0.0) & (y11 <= 1.0) & (e11 >= 0.0) & (e11 <= 1.0)
        rate = const.pq * y11 * (1.0 - _entropy(e11)) - gain_z * f_ec * _entropy(qber_z)
    return np.where(valid, rate, -math.inf)
