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
over all its sides and its records as Python floats.  rank_grid
evaluates a whole intensity grid in one batched pass of the same
algebra (_RowContext.rates), exact to the point: its rates (grid_rates)
equal rate_for_scenario's bit for bit, and it returns the best point's
RatePoint, so the optimizer evaluates the grid winner only once.
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


# a side_weights cache with no caller in src/: it stays only because the
# benchmark's spans (perfbench/spans.py) read its counters, and ROADMAP item 1
# removes both together
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


# keyed by the intensities and heralding only, so every link of a scan or relay sweep
# shares one entry per scenario; it keeps margins, licensed per call by COEFF_REL_TOL
@lru_cache(maxsize=32)
def _grid_weights(scenario: ScenarioKind, mu_primes: tuple[float, ...], mu_fixed: float,
                  cutoff: int):
    """The weight-only half of _RowContext.rates over a grid: (mus, usable, w, pq,
    coeffs, a11).  mus are the weak intensities; usable marks the points
    rate_for_scenario does not reject outright, the others get placeholder
    weights; w is _plan's factors times the photon rows, as (a or vac, point,
    side, photon number); pq is q1^2 p1^2.  The estimated scenarios add each
    point's y11_coefficients and the weak and strong (1, 1) coefficients a11."""
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
    coeffs = a11 = None
    if estimated:
        weak, strong = w[0, :, -1], w[0, :, 0]
        coeffs = zip(*map(y11_coefficients, weak, weak, strong, strong))
        coeffs = [np.array(c)[:, None] for c in coeffs]
        a11 = np.stack((weak[:, 1] * weak[:, 1], strong[:, 1] * strong[:, 1]), axis=1)
    return mus, np.array(usable), w, pq, coeffs, a11


class _RowContext:
    """What every evaluation of one (scenario, link, tables, f_ec) row shares.

    Built on a row's first rank_grid or rate_for_scenario call and reused
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
        # what the asymptotic scenarios read for Y11 and e11
        self.true11 = float(table_z.yields[1, 1]), float(table_x.errors[1, 1])
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
            y11, e11 = self.true11
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

    def rates(self, mu_fixed: float, mu_primes: tuple[float, ...]):
        """(rates, best): .rate's rate at each mu_prime, with the weak intensity
        scenario.weak_intensity(mu_prime, mu_fixed), -inf where .rate returns an
        invalid point or raises, and the first best RatePoint, or None.  Bit for
        bit .rate's: its matmul forms with (point, side) as leading axes, its
        algebra elementwise in its order, binary_entropy per valid point."""
        out = np.full(len(mu_primes), -math.inf)
        mus, usable, w, pq, coeffs, a11 = _grid_weights(
            self.scenario, mu_primes, mu_fixed, self.link.cutoff)
        points, sides = w.shape[1:3]
        col_mats, row_mats, inner_mats = self.views
        # each as (point, side, table)
        col = (w[1, :, :, None, None, :] @ col_mats).reshape(points, sides, -1)
        row = (row_mats @ w[1, :, :, None, :, None]).reshape(points, sides, -1)
        inner = (w[0, :, :, None, None, 1:] @ inner_mats) @ w[0, :, :, None, 1:, None]
        v, m = np.array(self.vac0)[:, None], np.array(self.corner)
        # every side's (x, x) record, as series_gain sums it
        full = inner.reshape(points, sides, -1) + (v * col + v * row - v * v * m)
        gain_z, wrong_z = full[:, self.signal, 0], full[:, self.signal, 1]

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
                # .setting's (x, 0), (0, x) and (0, 0) records of strong (side 0) and weak
                # (last), in its order; a signal side between them takes weak's zero side
                # and goes unused
                zero = [self.zero[-1]] + [self.zero[0]] * (sides - 1)
                z0, zc, zr, zz = (np.reshape(part, (sides, -1)) for part in zip(*zero))
                row_x = 0.0 + (z0 * col + v * zr - v * z0 * m)
                row_y = 0.0 + (v * zc + z0 * row - z0 * v * m)
                # interior gains in Z and X, and X error moments, weak then strong
                gains = (full - (row_x + row_y - zz))[:, :, ::2]
                weak, strong = gains[:, -1], gains[:, 0]
                x_records = np.stack((full, row_x, row_y))[..., 2:]
                x = x_records[..., 0] * qber(x_records[..., 0], x_records[..., 1])
                corner_x = zz[:, 2] * qber(zz[:, 2], zz[:, 3])
                moments = (x[0] - x[1] - x[2] + corner_x)[:, [-1, 0]]
                k, denom, swapped, margin = coeffs
                # y11_from_series' value in Z and X; its licence reads the tolerance now
                lead, other = np.where(swapped, strong, weak), np.where(swapped, weak, strong)
                y11 = clamp((k * lead - other) / denom, 1.0)
                y11, s11 = y11[:, 0], a11 * y11[:, 1:]
                # e11_from_moments' min over the candidates of positive s11, in list order
                (c_weak, c_strong), (s_weak, s_strong) = (moments / s11).T, (s11 > 0.0).T
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


# the row of the last rate_for_scenario or rank_grid call: the optimizer
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


def rank_grid(scenario: ScenarioKind, link: LinkSpec, mu_fixed: float, mu_primes: np.ndarray,
              tables: tuple[YieldTable, YieldTable], f_ec: float = DEFAULT_ERROR_CORRECTION
              ) -> tuple[np.ndarray, RatePoint | None]:
    """(rates, best) of _RowContext.rates over a grid of signal intensities, in the
    row context rate_for_scenario reuses: rates equal to its own, -inf where it
    returns an invalid point or raises, and the first best RatePoint or None.
    tables are basis_tables(link)."""
    grid = tuple(np.asarray(mu_primes, dtype=float).tolist())
    return _row(scenario, link, tables, f_ec).rates(mu_fixed, grid)


def grid_rates(scenario, link, mu_fixed, mu_primes, tables, f_ec=DEFAULT_ERROR_CORRECTION):
    """rank_grid's rates alone."""
    return rank_grid(scenario, link, mu_fixed, mu_primes, tables, f_ec)[0]
