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
class, cutoff) and shared read-only by every caller.
series_sums holds the one written form of the double series, which every
record, point and grid sums through.  A side at intensity zero has
a[1:] == 0 exactly, so a record with one takes a +0.0 interior and is
its vacuum rows alone.

The estimator's algebra works on plain numbers (y11_from_series,
e11_from_moments).  What it reads of a decoy setting, its gain and
X-basis error moment with the vacuum rows removed, has one written form
each, on floats and arrays alike (interior_gain, error_moment).
y11_lower_bound and e11_upper_bound feed them records (immutable
GainRecord named tuples) read from a GainTable four to a setting
(GainTable.setting); keyrate's rate point and grid feed them the same
numbers assembled straight from side weights.  y11_lower_bound keeps a
one-entry setting-pair plan (each side's interior weights and total, read
off its class factors and photon row; their y11_coefficients; interior
tails), so a bound call's X bound reuses its Z's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .optics import Basis, YieldTable
from .source import (
    HeraldingDetector,
    SourceSpec,
    TriggerClass,
    class_total,
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
    "table_views",
    "series_sums",
    "record_qber",
    "gain_from_yields",
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


class SideWeights(NamedTuple):
    """Per-photon-number series weights of one side for one record, an immutable named tuple.

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


def _side_terms(source: SourceSpec, cutoff: int) -> tuple:
    """(a, a_total, photon row) of one side: the one written form of its interior
    weights and their closed-form total, which side_weights and the setting-pair plan
    build on."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    p = photon_row(source.kind, source.intensity, cutoff)
    a_total = 1.0 - p[0]
    if source.trigger_class is not TriggerClass.ALL:
        survive = damped_total(source.kind, source.intensity, 1.0 - source.heralding.efficiency)
        triggered = source.trigger_class is TriggerClass.TRIGGERED
        a_total = 1.0 - survive if triggered else survive - p[0]
    p = np.array(p)
    return side_factors(source.heralding, source.trigger_class, cutoff)[0] * p, a_total, p


def side_weights(source: SourceSpec, cutoff: int) -> SideWeights:
    """Series weights of one source up to the cutoff photon number."""
    a, a_total, p = _side_terms(source, cutoff)
    _, vac_factor, vac0 = side_factors(source.heralding, source.trigger_class, cutoff)
    vac = vac_factor * p
    a.flags.writeable = vac.flags.writeable = False
    return SideWeights(source, a, vac, vac0, a_total, class_total(source))


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

    def setting(self, basis: Basis, x: float, y: float, cls: TriggerClass) -> tuple:
        """The (x, y), (x, 0), (0, y) and (0, 0) records of one setting, one exact-key
        lookup each; on any miss all four are read through get, in that order."""
        b, c, fx, fy = _record_key(basis, x, y, cls)
        find = self._records.get
        recs = (find((b, c, fx, fy)), find((b, c, fx, 0.0)),
                find((b, c, 0.0, fy)), find((b, c, 0.0, 0.0)))
        if None not in recs:
            return recs
        return tuple(self.get(basis, *xy, cls) for xy in ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0)))

    def __len__(self) -> int:
        return len(self._records)

    def has_basis(self, basis: Basis) -> bool:
        """Whether any record is in basis, read off the keys with no sort."""
        return any(key[0] == basis._value_ for key in self._records)

    def __iter__(self) -> Iterator[GainRecord]:
        return iter(sorted(self._records.values(), key=lambda r: (
            r.basis.value, r.trigger_class.value, r.alice_intensity, r.bob_intensity
        )))


def table_views(mats: np.ndarray) -> tuple:
    """The stride-preserving views of stacked tables that series_sums reads, column 0,
    row 0 and interior, and their (0, 0) corners."""
    return mats[:, :, :1], mats[:, :1, :], mats[:, 1:, 1:], mats[:, 0, 0]


# These stride-preserving matmul forms reproduce, side by side, the 1-D products
# a @ M[:, 0], M[0, :] @ b and a @ M @ b bit for bit.  A contiguous copy of the columns,
# gemv over stacked rows or einsum round differently on a quarter or more of random 9x9 cases.
def series_sums(alice: np.ndarray, bob: np.ndarray, views: tuple):
    """(col, row, inner) of the double series on each table of views (table_views),
    each as (..., table): alice's vac against column 0, bob's vac against row 0, and
    alice's a[1:] against the interior against bob's a[1:].  alice and bob stack
    (a, vac) as (2, ..., photon number) over any leading axes.  A record is
    inner + (b0 * col + a0 * row - a0 * b0 * corner) for the sides' vac0, a0 and b0."""
    col_mats, row_mats, inner_mats, _ = views
    col = (alice[1, ..., None, None, :] @ col_mats)[..., 0, 0]
    row = (row_mats @ bob[1, ..., None, :, None])[..., 0, 0]
    inner = ((alice[0, ..., None, None, 1:] @ inner_mats) @ bob[0, ..., None, 1:, None])[..., 0, 0]
    return col, row, inner


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
    views = table_views(np.stack((table.yields, table.yields * table.errors)))
    col, row, inner = series_sums(np.stack((alice.a, alice.vac)), np.stack((bob.a, bob.vac)), views)
    a0, b0 = alice.vac_at_zero, bob.vac_at_zero
    gain, wrong = (inner + (b0 * col + a0 * row - a0 * b0 * views[3])).tolist()
    tail = _interior_tail(alice.a, alice.a_total, bob.a, bob.a_total)
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


def _interior_tail(a: np.ndarray, a_total: float, b: np.ndarray, b_total: float) -> float:
    """Weight of interior terms beyond the cutoff of sides with interior weights a and b and
    closed-form totals a_total and b_total, assuming yields <= 1."""
    kept = float(a[1:].sum())
    part = kept * (kept if b is a else float(b[1:].sum()))
    return float(a_total * b_total - part)


# the last y11_lower_bound call's setting pair, with its margin (the licence reads
# COEFF_REL_TOL per call): one slot lets a bound call's X bound reuse its Z bound's
_last_pair: tuple | None = None


def _pair_plan(weak: tuple, strong: tuple, cutoff: int) -> tuple:
    """The basis-free work of a setting pair: (y11_coefficients over its interior
    weights, the weak and strong settings' interior tails in canonical order).  Each
    side's interior weights and total come straight from its class factors and photon
    row (_side_terms); a symmetric setting builds its one side once."""
    global _last_pair
    key, plan = (weak, strong, cutoff), _last_pair
    if plan is None or plan[0] != key:
        sides = []
        for alice, bob in (weak, strong):
            a = _side_terms(alice, cutoff)[:2]
            sides += a, a if bob == alice else _side_terms(bob, cutoff)[:2]
        wa, wb, sa, sb = sides
        coeffs = y11_coefficients(wa[0], wb[0], sa[0], sb[0])
        if coeffs[2]:
            wa, wb, sa, sb = sa, sb, wa, wb
        plan = _last_pair = key, coeffs, _interior_tail(*wa, *wb), _interior_tail(*sa, *sb)
    return plan[1:]


def interior_gain(full, row_x, row_y, corner):
    """A setting's gain with its vacuum rows removed, from the gains of its (x, y), (x, 0),
    (0, y) and (0, 0) records in one basis, on floats or arrays alike: under the record
    conventions S(x,0) + S(0,y) - S(0,0) is exactly the vacuum rows of the series of S(x,y)."""
    return full - (row_x + row_y - corner)


def error_moment(full, row_x, row_y, corner):
    """interior_gain's vacuum subtraction on the four records' gain times qber, on floats or
    arrays alike: in the X basis, the numerator of the setting's e[1][1] candidate."""
    return full - row_x - row_y + corner


def _setting(gains: GainTable, pair: tuple[SourceSpec, SourceSpec], basis: Basis) -> tuple:
    """GainTable.setting's (x, y), (x, 0), (0, y) and (0, 0) records of one setting."""
    return gains.setting(basis, pair[0].intensity, pair[1].intensity, pair[0].trigger_class)


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
    bound is licensed when the margin is at most COEFF_REL_TOL, which a nan
    margin (any coefficient nan, as a numpy maximum would report it) is not.
    """
    # the weights from photon number 1 on, as floats; a symmetric setting passes one
    # array as both sides, which is read once
    wa, wb = [wa[1:].tolist()] * 2 if wb is wa else (wa[1:].tolist(), wb[1:].tolist())
    sa, sb = [sa[1:].tolist()] * 2 if sb is sa else (sa[1:].tolist(), sb[1:].tolist())
    (wa1, wa2), (wb1, wb2), (sa1, sa2), (sb1, sb2) = wa[:2], wb[:2], sa[:2], sb[:2]
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

    # the largest (strong - weak) / max(strong, weak, 1e-300) over m, n >= 1 but (1, 1),
    # in plain floats with the IEEE operations of numpy's elementwise form; a symmetric
    # pair's matrix is symmetric bit for bit, so each row starts at its diagonal
    symmetric = wb is wa and sb is sa
    cols = list(zip(wb, sb))
    margin = -math.inf
    for m, (wm, sm) in enumerate(zip(wa, sa)):
        for wn, sn in cols[(m if symmetric else 0) + (not m):]:
            strong = sm * sn
            weak = wm * wn * k
            top = weak if weak > strong else strong
            rel = (strong - weak) / (top if top > 1e-300 else 1e-300)
            # a nan cell sticks, as it does in np.max, and licenses nothing
            if not rel <= margin and margin == margin:
                margin = rel
    return k, denom, swapped, margin


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
        return Y11Bound(0.0, k, denom, False, coefficient_margin=margin, tail=math.inf)

    w, wx, wy, w0 = _setting(gains, weak, basis)
    s, sx, sy, s0 = _setting(gains, strong, basis)
    value, raw, licensed = y11_from_series(coeffs, interior_gain(w.gain, wx.gain, wy.gain, w0.gain),
                                           interior_gain(s.gain, sx.gain, sy.gain, s0.gain))
    tail_weak = w.tail + wx.tail + wy.tail + w0.tail
    tail_strong = s.tail + sx.tail + sy.tail + s0.tail
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
    factor and single-photon weight without building the SideWeights; a
    symmetric pair's one side is computed once."""
    alice, bob = pair
    sides = (alice,) if bob == alice else pair
    w = [side_factors(s.heralding, s.trigger_class, 1)[0][1] * photon_row(s.kind, s.intensity, 1)[1]
         for s in sides]
    return float(w[0] * w[-1]) * y11


def e11_from_moments(moments: Sequence[float], s11: tuple[float, float]) -> float:
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
    moments = [0.0, 0.0]
    for i, pair in enumerate((weak, strong)):
        if s11[i] > 0.0:  # a setting without a denominator needs no records
            full, row_x, row_y, corner = _setting(gains_x, pair, Basis.X)
            moments[i] = error_moment(full.gain * full.qber, row_x.gain * row_x.qber,
                                      row_y.gain * row_y.qber, corner.gain * corner.qber)
    return e11_from_moments(moments, s11)
