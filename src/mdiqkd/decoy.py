"""Decoy-state gain assembly and single-photon-pair estimation.

The simulator builds observable gains as truncated double series over a
ground-truth yield table, weighting each (m, n) term by per-side photon
number weights of the active event class.  The estimator is then handed
nothing but those gain records and inverts them into a lower bound on
the single-photon-pair yield Y[1][1] and an upper bound on its error
rate e[1][1].

Conventions baked into the series, shared by simulator and estimator:

* Interior terms (m, n >= 1) carry loss-only class weights, which are
  free of heralding dark counts.
* Vacuum rows carry the full trigger-weighted distribution including
  dark counts, and a record at literal intensity zero contributes its
  side's vacuum-class weight (dark rate for triggered, one minus dark
  rate for non-triggered, one for unheralded).
* Nothing is renormalised, so triggered and non-triggered records of the
  same intensities sum exactly to the plain record.

Every gain record also carries a certified truncation tail: an upper
bound on the weight the series discards beyond the cutoff, computed from
closed-form totals of the weight distributions.

A side's weights are its photon row times the factors of its event
class (side_factors).  Those factors are cached per (heralding detector,
class, cutoff) and shared read-only by every caller, as photon rows are.
A side at intensity zero has no interior weights, so a record with one
is its vacuum rows alone (see SeriesParts).

The estimator's algebra works on plain numbers (y11_from_series,
e11_from_moments).  y11_lower_bound and e11_upper_bound feed it records
(immutable GainRecord named tuples) looked up in a GainTable; the rate
path in keyrate feeds it the same numbers assembled straight from side
weights.  y11_lower_bound keeps a one-entry setting-pair plan (weights,
coefficients, interior tails), so a bound call's X bound reuses its Z's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .optics import Basis, YieldTable
from .source import (
    DistributionKind,
    HeraldingDetector,
    SourceSpec,
    TriggerClass,
    damped_total,
    photon_row,
)

__all__ = [
    "COEFF_REL_TOL",
    "BoundUnavailableError",
    "SideWeights",
    "GainRecord",
    "GainTable",
    "Y11Bound",
    "side_factors",
    "side_weights",
    "SeriesParts",
    "weight_parts",
    "series_parts",
    "series_gain",
    "record_qber",
    "gain_from_yields",
    "series_terms",
    "y11_coefficients",
    "interior_gain",
    "error_moment",
    "y11_from_series",
    "e11_from_moments",
    "y11_lower_bound",
    "symmetric_condition",
    "single_pair_gain",
    "e11_upper_bound",
]

# relative slack when checking the sign of combined series coefficients;
# schemes that satisfy the constraint with equality land on the boundary
# up to float rounding and must not be rejected for it
COEFF_REL_TOL = 1e-9


class BoundUnavailableError(ValueError):
    """Raised when an estimator quantity has no usable denominator."""


@dataclass(frozen=True)
class SideWeights:
    """Per-photon-number series weights of one side for one record.

    a[m] are the interior coefficients (only m >= 1 enters the series),
    vac[m] is the full trigger-weighted distribution used in the vacuum
    rows, and vac_at_zero is the weight this side contributes to records
    taken at literal intensity zero.  a_total and vac_total are exact
    infinite-series sums of a[1:] and vac[:] used for tail certificates.
    """

    source: SourceSpec
    a: np.ndarray
    vac: np.ndarray
    vac_at_zero: float
    a_total: float
    vac_total: float


# the triggered and non-triggered sides of one intensity share a row, and
# a scan's golden refinement adds a fresh intensity at every step, so the
# cache is bounded
@lru_cache(maxsize=1024)
def _photon_row(kind: DistributionKind, intensity: float, cutoff: int) -> np.ndarray:
    """Read-only photon_row(kind, intensity, cutoff) as an array."""
    row = np.array(photon_row(kind, intensity, cutoff))
    row.flags.writeable = False
    return row


# one bound call builds its sides from at most two classes of one detector, and a
# scan reaches this once per (scenario, cutoff) through keyrate's plan
@lru_cache(maxsize=64)
def side_factors(heralding: HeraldingDetector | None, cls: TriggerClass, cutoff: int):
    """(a_factor, vac_factor, vac_at_zero) of an event class: a side's weights are
    a_factor * row and vac_factor * row for its photon row, at any intensity.
    The arrays are shared by every caller, so they are read-only."""
    if cls is TriggerClass.ALL:
        a_factor = vac_factor = np.ones(cutoff + 1)
        vac0 = 1.0
    else:
        damp = (1.0 - heralding.efficiency) ** np.arange(cutoff + 1)
        kept = (1.0 - heralding.dark_rate) * damp
        if cls is TriggerClass.TRIGGERED:
            a_factor, vac_factor, vac0 = 1.0 - damp, 1.0 - kept, heralding.dark_rate
        else:
            a_factor, vac_factor, vac0 = damp, kept, 1.0 - heralding.dark_rate
    a_factor.flags.writeable = vac_factor.flags.writeable = False
    return a_factor, vac_factor, vac0


def side_weights(source: SourceSpec, cutoff: int) -> SideWeights:
    """Series weights of one source up to the cutoff photon number."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    p = _photon_row(source.kind, source.intensity, cutoff)
    a_factor, vac_factor, vac0 = side_factors(source.heralding, source.trigger_class, cutoff)
    a, vac = a_factor * p, vac_factor * p
    a.flags.writeable = vac.flags.writeable = False
    a_total, vac_total = 1.0 - p[0], 1.0
    if source.trigger_class is not TriggerClass.ALL:
        heralding = source.heralding
        survive = damped_total(source.kind, source.intensity, 1.0 - heralding.efficiency)
        kept = (1.0 - heralding.dark_rate) * survive
        if source.trigger_class is TriggerClass.TRIGGERED:
            a_total, vac_total = 1.0 - survive, 1.0 - kept
        else:
            a_total, vac_total = survive - p[0], kept
    return SideWeights(source, a, vac, vac0, a_total, vac_total)


class GainRecord(NamedTuple):
    """One observable the estimator may use, an immutable named tuple.

    gain is the acceptance probability per pulse of the record's event
    class (un-normalised by the class weight), qber the error fraction
    among accepted pulses, tail the certified truncation remainder of
    the series that produced the gain.  tail is a simulation-side
    certificate; records parsed from CSV carry tail 0.
    """

    basis: Basis
    alice_intensity: float
    bob_intensity: float
    trigger_class: TriggerClass
    gain: float
    qber: float
    tail: float = 0.0


# _value_ is the member's value without the property lookup that .value costs
def _record_key(basis: Basis, x: float, y: float, cls: TriggerClass) -> tuple:
    return (basis._value_, cls._value_, float(x), float(y))


class GainTable:
    """Keyed collection of gain records, the estimator's only input."""

    def __init__(self, records: Iterable[GainRecord] = ()) -> None:
        self._records: dict[tuple, GainRecord] = {}
        for rec in records:
            self.add(rec)

    def add(self, record: GainRecord) -> None:
        key = _record_key(
            record.basis, record.alice_intensity, record.bob_intensity, record.trigger_class
        )
        self._records[key] = record

    def get(self, basis: Basis, x: float, y: float, cls: TriggerClass) -> GainRecord:
        key = _record_key(basis, x, y, cls)
        rec = self._records.get(key)
        if rec is not None:
            return rec
        # tolerate float noise in intensities coming from round-tripped files,
        # as long as it points at a single record
        matches = [
            cand
            for (b, c, rx, ry), cand in self._records.items()
            if b == basis.value
            and c == cls.value
            and math.isclose(rx, x, rel_tol=1e-9, abs_tol=1e-15)
            and math.isclose(ry, y, rel_tol=1e-9, abs_tol=1e-15)
        ]
        where = f"basis={basis.value} class={cls.value} x={x} y={y}"
        if len(matches) > 1:
            first, second = (f"x={r.alice_intensity!r} y={r.bob_intensity!r}" for r in matches[:2])
            raise KeyError(f"ambiguous gain record for {where}: {first} and {second} both match")
        if not matches:
            raise KeyError(f"no gain record for {where}")
        return matches[0]

    def __len__(self) -> int:
        return len(self._records)

    def has_basis(self, basis: Basis) -> bool:
        """Whether any record is in basis, read off the keys with no sort."""
        return any(key[0] == basis._value_ for key in self._records)

    def __iter__(self) -> Iterator[GainRecord]:
        return iter(sorted(self._records.values(), key=lambda r: (
            r.basis.value, r.trigger_class.value, r.alice_intensity, r.bob_intensity
        )))


class SeriesParts(NamedTuple):
    """One side's factors of the double series over stacked (cutoff + 1)-square tables:
    vac against each column 0 (col, as Alice) and row 0 (row, as Bob), and a[1:]
    against each interior (inner, a 1 x cutoff row per table, as Alice).  At intensity
    zero a[1:] == 0 exactly, so a and inner are None and its records take no interior."""

    a: np.ndarray | None
    vac0: float
    col: list[float]
    row: list[float]
    inner: np.ndarray | None


# These stride-preserving matmul forms reproduce, side by side, the 1-D products
# a @ M[:, 0], M[0, :] @ b and a @ M @ b bit for bit.  A contiguous copy of the columns,
# gemv over stacked rows or einsum round differently on a quarter or more of random 9x9 cases.
def weight_parts(a: np.ndarray | None, vac: np.ndarray, vac0: Sequence[float], mats: np.ndarray):
    """The SeriesParts of each of S sides over every stacked table: a and vac are
    (S, cutoff + 1), vac0 has S entries, a is None when every side is at intensity zero."""
    sides = len(vac)
    col = (vac[:, None, None, :] @ mats[None, :, :, :1]).reshape(sides, -1).tolist()
    row = (mats[None, :, :1, :] @ vac[:, None, :, None]).reshape(sides, -1).tolist()
    if a is None:
        return [SeriesParts(None, vac0[s], col[s], row[s], None) for s in range(sides)]
    inner = a[:, None, None, 1:] @ mats[None, :, 1:, 1:]
    return [SeriesParts(a[s], vac0[s], col[s], row[s], inner[s]) for s in range(sides)]


def series_parts(side: SideWeights, mats: np.ndarray) -> SeriesParts:
    """weight_parts of one side's SideWeights."""
    a = side.a[None] if side.source.intensity > 0.0 else None
    return weight_parts(a, side.vac[None], (side.vac_at_zero,), mats)[0]


def series_gain(alice: SeriesParts, bob: SeriesParts, mats: np.ndarray) -> list[float]:
    """One record's truncated double series over each table of mats, one entry each.

    alice and bob are series_parts over the same mats.  Interior terms and
    vacuum rows follow the conventions of the module docstring.
    """
    a0 = alice.vac0
    b0 = bob.vac0
    corner = mats[:, 0, 0].tolist()
    if alice.inner is None or bob.a is None:
        interior = [0.0] * len(corner)
    else:
        interior = (alice.inner @ bob.a[1:, None]).ravel().tolist()
    # float arithmetic in the per-table order, so every gain rounds as it always has;
    # a skipped interior enters as the +0.0 its product gave, so 0.0 + -0.0 stays 0.0
    return [
        i + (b0 * c + a0 * r - a0 * b0 * m)
        for i, c, r, m in zip(interior, alice.col, bob.row, corner)
    ]


def record_qber(gain: float, wrong: float) -> float:
    """A record's qber from its gain and error-weighted gain."""
    return wrong / gain if gain > 0.0 else 0.0


def gain_from_yields(alice: SideWeights, bob: SideWeights, table: YieldTable) -> GainRecord:
    """Assemble one gain record from ground-truth yields.

    The double series runs over m, n up to the table cutoff.  Vacuum
    rows use the convention documented in the module docstring, which
    makes the record set an exactly closed linear system for the
    estimator.  The returned tail bounds everything the truncation
    dropped, using yields <= 1.
    """
    if len(alice.a) != table.cutoff + 1 or len(bob.a) != table.cutoff + 1:
        raise ValueError("side weights and yield table use different cutoffs")
    if alice.source.trigger_class is not bob.source.trigger_class:
        raise ValueError("both sides of a record must share one event class")
    mats = np.stack((table.yields, table.yields * table.errors))
    gain, wrong = series_gain(series_parts(alice, mats), series_parts(bob, mats), mats)
    tail = _interior_tail(alice, bob)
    tail += bob.vac_at_zero * (alice.vac_total - float(alice.vac.sum()))
    tail += alice.vac_at_zero * (bob.vac_total - float(bob.vac.sum()))
    return GainRecord(
        basis=table.basis,
        alice_intensity=alice.source.intensity,
        bob_intensity=bob.source.intensity,
        trigger_class=alice.source.trigger_class,
        gain=gain,
        qber=record_qber(gain, wrong),
        tail=tail,
    )


def _pair_weights(
    pair: tuple[SourceSpec, SourceSpec], cutoff: int
) -> tuple[SideWeights, SideWeights]:
    """Both sides' weights of a setting; a symmetric setting computes them once."""
    alice = side_weights(pair[0], cutoff)
    if pair[1] == pair[0]:
        return alice, alice
    return alice, side_weights(pair[1], cutoff)


def _interior_tail(alice: SideWeights, bob: SideWeights) -> float:
    """Weight of interior terms beyond the cutoff, assuming yields <= 1."""
    part = float(alice.a[1:].sum()) * float(bob.a[1:].sum())
    return float(alice.a_total * bob.a_total - part)


# the last y11_lower_bound call's setting pair, with its margin (the licence reads
# COEFF_REL_TOL per call): one slot lets a bound call's X bound reuse its Z bound's
_last_pair: tuple | None = None


def _pair_plan(weak: tuple, strong: tuple, cutoff: int) -> tuple:
    """The basis-free work of a setting pair: (y11_coefficients over its interior
    weights, the weak and strong settings' interior tails in canonical order)."""
    global _last_pair
    key, plan = (weak, strong, cutoff), _last_pair
    if plan is None or plan[0] != key:
        wa, wb = _pair_weights(weak, cutoff)
        sa, sb = _pair_weights(strong, cutoff)
        coeffs = y11_coefficients(wa.a, wb.a, sa.a, sb.a)
        if coeffs[2]:
            wa, wb, sa, sb = sa, sb, wa, wb
        plan = _last_pair = key, coeffs, _interior_tail(wa, wb), _interior_tail(sa, sb)
    return plan[1:]


def _setting_records(
    gains: GainTable, pair: tuple[SourceSpec, SourceSpec], basis: Basis
) -> tuple[GainRecord, GainRecord, GainRecord, GainRecord]:
    """The (x, y), (x, 0), (0, y) and (0, 0) records of one setting."""
    x = pair[0].intensity
    y = pair[1].intensity
    cls = pair[0].trigger_class
    return (
        gains.get(basis, x, y, cls),
        gains.get(basis, x, 0.0, cls),
        gains.get(basis, 0.0, y, cls),
        gains.get(basis, 0.0, 0.0, cls),
    )


def series_terms(
    gains: GainTable, pair: tuple[SourceSpec, SourceSpec], basis: Basis
) -> tuple[float, float, float]:
    """Full gain, reconstructed vacuum content, and summed tail of one pair.

    The vacuum content is S(x,0) + S(0,y) - S(0,0): exactly the vacuum
    rows of the series under the record conventions, so subtracting it
    from S(x,y) leaves the interior terms alone.
    """
    full, row_x, row_y, corner = _setting_records(gains, pair, basis)
    vacuum = row_x.gain + row_y.gain - corner.gain
    tails = full.tail + row_x.tail + row_y.tail + corner.tail
    return full.gain, vacuum, tails


def interior_gain(full: float, row_x: float, row_y: float, corner: float) -> float:
    """A setting's gain with its vacuum content (see series_terms) removed."""
    return full - (row_x + row_y - corner)


def error_moment(records: Iterable[tuple[float, float]]) -> float:
    """Error-weighted gain of a setting with its vacuum rows removed.

    records are the (gain, qber) of the setting's (x, y), (x, 0), (0, y)
    and (0, 0) records in one basis.
    """
    full, row_x, row_y, corner = (gain * qber for gain, qber in records)
    return full - row_x - row_y + corner


@dataclass(frozen=True)
class Y11Bound:
    """Lower bound on the single-photon-pair yield with its certificate.

    conditions_ok reports whether the sign conditions licensing the
    bound hold: negative denominator and no combined interior
    coefficient above the relative tolerance for (m, n) != (1, 1).
    coefficient_margin is the largest relative violation encountered
    (negative values mean margin to spare); tail is the certified
    truncation error propagated through the inversion; clamped flags a
    raw value outside [0, 1]; swapped records that the two supplied
    settings were exchanged during canonicalisation, so k_factor and
    denominator refer to the exchanged roles.
    """

    value: float
    k_factor: float
    denominator: float
    conditions_ok: bool
    coefficient_margin: float
    clamped: bool = False
    tail: float = 0.0
    swapped: bool = False


def _unavailable(k: float = math.nan, denom: float = math.nan) -> Y11Bound:
    return Y11Bound(
        value=0.0,
        k_factor=k,
        denominator=denom,
        conditions_ok=False,
        coefficient_margin=math.inf,
        clamped=False,
        tail=math.inf,
    )


def y11_coefficients(
    wa: np.ndarray, wb: np.ndarray, sa: np.ndarray, sb: np.ndarray
) -> tuple[float, float, bool, float]:
    """The weight-only half of the Y[1][1] bound: what licenses it.

    Takes the interior weights (SideWeights.a) of the weak (wa, wb) and
    strong (sa, sb) settings and returns (k, denominator, swapped,
    coefficient_margin) as y11_lower_bound reports them: after
    canonicalisation, so when swapped is set k and the denominator refer
    to the exchanged roles.  The margin is inf exactly when the bound is
    unavailable: the (1,2) and (2,1) coefficients cannot cancel (k and
    denominator are then nan) or the denominator is not negative.  The
    bound is licensed when the margin is at most COEFF_REL_TOL.
    """
    (wa1, wa2), (wb1, wb2), (sa1, sa2), (sb1, sb2) = (w[1:3].tolist() for w in (wa, wb, sa, sb))
    num_k = sa1 * sb2 + sa2 * sb1
    den_k = wa1 * wb2 + wa2 * wb1
    if num_k <= 0.0 or den_k <= 0.0:
        return math.nan, math.nan, False, math.inf
    k = num_k / den_k
    swapped = False
    denom = k * wa1 * wb1 - sa1 * sb1
    if denom > 0.0:
        wa, wb, sa, sb = sa, sb, wa, wb
        k = 1.0 / k
        denom = k * sa1 * sb1 - wa1 * wb1
        swapped = True
    if denom >= 0.0:
        return k, denom, swapped, math.inf

    # the relative violation of each coefficient with m, n >= 1 except (1, 1)
    weak = k * (wa[1:, None] * wb[None, 1:])
    strong = sa[1:, None] * sb[None, 1:]
    rel = (strong - weak) / np.maximum(np.maximum(strong, weak), 1e-300)
    rel[0, 0] = -math.inf
    return k, denom, swapped, float(rel.max())


def y11_from_series(
    coeffs: tuple[float, float, bool, float], weak: float, strong: float
) -> tuple[float, float, bool]:
    """The Y[1][1] bound of one basis: the estimator's algebra on plain numbers.

    coeffs is y11_coefficients for the weak and strong settings in the
    order given; weak and strong are those settings' gains with the
    vacuum rows removed (interior_gain).  Returns (value, raw, licensed):
    the bound clamped to [0, 1], the unclamped quotient, and whether the
    coefficient margin is within COEFF_REL_TOL.  An unavailable bound
    (infinite margin) reads (0.0, 0.0, False).
    """
    k, denom, swapped, margin = coeffs
    if margin == math.inf:
        return 0.0, 0.0, False
    if swapped:
        weak, strong = strong, weak
    raw = (k * weak - strong) / denom
    return min(max(raw, 0.0), 1.0), raw, margin <= COEFF_REL_TOL


def y11_lower_bound(
    gains: GainTable,
    weak: tuple[SourceSpec, SourceSpec],
    strong: tuple[SourceSpec, SourceSpec],
    basis: Basis,
    cutoff: int,
) -> Y11Bound:
    """Lower-bound Y[1][1] from two intensity settings of one basis.

    The two settings are combined with the ratio k chosen so that their
    (1,2) and (2,1) interior coefficients cancel; all remaining non-(1,1)
    coefficients must then be non-positive, which licenses dropping them
    from the series and dividing by the (negative) combined (1,1)
    coefficient.  The roles of the two settings are canonicalised
    automatically: if the supplied order gives a positive denominator the
    settings are swapped, which leaves the bound value unchanged.

    Missing gain records raise KeyError.  Degenerate weights (for
    example a zero intensity or a unit-efficiency heralding detector on
    a non-triggered record) make the bound unavailable, reported via
    conditions_ok=False rather than an exception.
    """
    coeffs, t_w, t_s = _pair_plan(weak, strong, cutoff)
    k, denom, swapped, margin = coeffs
    if margin == math.inf:
        return _unavailable(k, denom)

    s_weak, vac_weak, tail_weak = series_terms(gains, weak, basis)
    s_strong, vac_strong, tail_strong = series_terms(gains, strong, basis)
    value, raw, licensed = y11_from_series(coeffs, s_weak - vac_weak, s_strong - vac_strong)
    if swapped:
        tail_weak, tail_strong = tail_strong, tail_weak
    tail = (k * (tail_weak + t_w) + tail_strong + t_s) / abs(denom)
    return Y11Bound(
        value=value,
        k_factor=k,
        denominator=denom,
        conditions_ok=licensed,
        coefficient_margin=margin,
        clamped=(raw != value),
        tail=tail,
        swapped=swapped,
    )


def symmetric_condition(mu: float, mu_prime: float, eta: float) -> bool:
    """Closed-form sufficiency test for the coefficient sign conditions.

    For Poisson triggered records at mu against non-triggered records at
    mu_prime with heralding efficiency eta, the combined coefficients
    keep the right signs whenever mu >= (1 - eta) mu_prime.  Plain
    comparison, no tolerance.
    """
    return mu >= (1.0 - eta) * mu_prime


def single_pair_gain(
    pair: tuple[SourceSpec, SourceSpec], y11: float
) -> float:
    """(1,1) interior coefficient of a record pair times a yield value.

    Each side's coefficient is side_weights(side, 1).a[1], read from its class
    factor and photon row without building the SideWeights."""
    wa, wb = (
        side_factors(s.heralding, s.trigger_class, 1)[0][1] * _photon_row(s.kind, s.intensity, 1)[1]
        for s in pair
    )
    return float(wa * wb) * y11


def _error_moment(gains: GainTable, pair: tuple[SourceSpec, SourceSpec]) -> float:
    """Error-weighted gain with its vacuum rows removed, X basis."""
    return error_moment((r.gain, r.qber) for r in _setting_records(gains, pair, Basis.X))


def e11_from_moments(moments: tuple[float, float], s11: tuple[float, float]) -> float:
    """The e[1][1] bound: the estimator's algebra on plain numbers.

    moments are the weak and strong settings' X-basis error moments
    (error_moment) and s11 lower bounds on their (1,1) contributions
    (see single_pair_gain).  Each positive s11 gives one candidate; the
    smallest wins, clamped to [0, 0.5].  Raises BoundUnavailableError
    when neither s11 is positive.
    """
    candidates = [m / s for m, s in zip(moments, s11) if s > 0.0]
    if not candidates:
        raise BoundUnavailableError("no positive single-pair gain to divide by")
    return min(max(min(candidates), 0.0), 0.5)


def e11_upper_bound(
    gains_x: GainTable,
    weak: tuple[SourceSpec, SourceSpec],
    strong: tuple[SourceSpec, SourceSpec],
    s11_weak: float,
    s11_strong: float,
) -> float:
    """Upper-bound the single-photon-pair error rate in the X basis.

    Each record pair gives one candidate: its error-weighted gain minus
    vacuum rows, divided by a lower bound on that same record's (1,1)
    contribution.  The denominators must therefore be built from each
    record's own intensities and class weights (see single_pair_gain);
    the two candidates are combined by taking the minimum.  Raises
    BoundUnavailableError when both denominators vanish.
    """
    s11 = (s11_weak, s11_strong)
    # a setting without a denominator needs no records
    moments = tuple(
        _error_moment(gains_x, pair) if s > 0.0 else 0.0 for pair, s in zip((weak, strong), s11)
    )
    return e11_from_moments(moments, s11)
