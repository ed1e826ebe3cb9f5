"""End-to-end acceptance checks.

Each test prints one `[criterion NN] PASS/FAIL - details` line before its
assertion, so `pytest -s tests/test_acceptance.py` yields a scorecard.
Criterion 9's error-estimate clause is expected to fail: with every noise
source at zero the true single-photon-pair error is exactly zero, but the
estimator's upper bound retains a multiphoton floor, so no estimate of
this shape can reach 1e-9.  The scorecard line reports the maximum e11
bound over the zero-noise H1 scan (4.748e-2).  A different quantity is
pinned by test_multiphoton_floor_without_noise in test_decoy.py: 0.0683
for one fixed intensity pair (mu = 0.125, mu' = 0.5) at 0 km.  The
failure is kept visible on purpose.
"""

import math
import time

import numpy as np
import pytest

from mdiqkd.decoy import (
    BoundUnavailableError,
    GainRecord,
    GainTable,
    e11_upper_bound,
    gain_from_yields,
    interior_gain,
    side_weights,
    single_pair_gain,
    symmetric_condition,
    y11_lower_bound,
)
from mdiqkd.keyrate import basis_tables
from mdiqkd.optics import Basis, LinkSpec, bs_output, yield_table
from mdiqkd.runner import (
    ScanConfig,
    emit_csv,
    main,
    parse_rate_csv,
    scan,
)
from mdiqkd.source import DistributionKind, HeraldingDetector, SourceSpec, TriggerClass

P = DistributionKind.POISSON
T = DistributionKind.THERMAL
CUTOFF = 8


def report(num: int, ok: bool, details: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {details}")
    return ok


def pair_of(kind, intensity, det, cls):
    spec = SourceSpec(kind, intensity, det, cls)
    return (spec, spec)


def records_for(pairs, tables):
    gains = GainTable()
    for pr in pairs:
        kind, det, cls = pr[0].kind, pr[0].heralding, pr[0].trigger_class
        x, y = pr[0].intensity, pr[1].intensity
        for xi, yi in ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0)):
            wa = side_weights(SourceSpec(kind, xi, det, cls), CUTOFF)
            wb = side_weights(SourceSpec(kind, yi, det, cls), CUTOFF)
            for table in tables:
                gains.add(gain_from_yields(wa, wb, table))
    return gains


def cutoff_km(points, name):
    """Largest distance with a positive valid rate."""
    dd = [p.distance_km for p in points if p.scenario == name and p.valid and p.rate > 0.0]
    return max(dd) if dd else -math.inf


@pytest.fixture(scope="module")
def default_scan():
    config = ScanConfig()
    start = time.perf_counter()
    points = scan(config)
    elapsed = time.perf_counter() - start
    return points, elapsed


@pytest.fixture(scope="module")
def equal_heralding_scan():
    # same detector on every heralded curve, so the source statistics
    # are the only thing the comparisons see
    config = ScanConfig(
        distances=tuple(float(d) for d in range(0, 301, 25)),
        scenarios=("H0", "H1", "H2", "T0", "T1"),
        scenario_heralding={},
    )
    return scan(config)


def by_curve(points):
    out = {}
    for p in points:
        out.setdefault(p.scenario, {})[p.distance_km] = p
    return out


def test_01_two_photon_interference():
    bs_output(1, 1)  # warm up
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        dist = bs_output(1, 1)
        timings.append(time.perf_counter() - start)
    coincidence = dist.get((1, 1), 0.0)
    bunched = (dist.get((2, 0), 0.0), dist.get((0, 2), 0.0))
    best = min(timings)
    ok = (
        abs(coincidence) <= 1e-12
        and abs(bunched[0] - 0.5) <= 1e-12
        and abs(bunched[1] - 0.5) <= 1e-12
        and best < 1e-3
    )
    assert report(
        1, ok,
        f"P(1,1)={coincidence:.1e}, P(2,0)={bunched[0]}, P(0,2)={bunched[1]}, {best * 1e6:.0f} us/call",
    )


def _draw_link(rng):
    return LinkSpec(
        total_distance_km=float(rng.uniform(0.0, 150.0)),
        relay_efficiency=float(rng.uniform(0.1, 1.0)),
        relay_dark_rate=float(10.0 ** rng.uniform(-8.0, -4.0)),
        misalignment=float(rng.uniform(0.0, 0.1)),
    )


def _draw_pairs(family, rng):
    if family == "poisson_t_nt":
        eta = float(rng.uniform(0.5, 0.9))
        mu_prime = float(rng.uniform(0.05, 0.5))
        mu = float(rng.uniform(1.0, 1.3)) * (1.0 - eta) * mu_prime
        det = HeraldingDetector(eta, float(10.0 ** rng.uniform(-7.0, -5.0)))
        return (
            pair_of(P, mu, det, TriggerClass.TRIGGERED),
            pair_of(P, mu_prime, det, TriggerClass.NON_TRIGGERED),
        )
    if family == "poisson_t_t":
        eta = float(rng.uniform(0.5, 0.9))
        mu_prime = float(rng.uniform(0.05, 0.3))
        mu = float(rng.uniform(0.1, 0.4)) * mu_prime
        det = HeraldingDetector(eta, float(10.0 ** rng.uniform(-7.0, -5.0)))
        return (
            pair_of(P, mu, det, TriggerClass.TRIGGERED),
            pair_of(P, mu_prime, det, TriggerClass.TRIGGERED),
        )
    if family == "poisson_all":
        mu_prime = float(rng.uniform(0.05, 0.3))
        mu = float(rng.uniform(0.1, 0.4)) * mu_prime
        return (
            pair_of(P, mu, None, TriggerClass.ALL),
            pair_of(P, mu_prime, None, TriggerClass.ALL),
        )
    eta = float(rng.uniform(0.5, 0.9))
    mu_prime = float(rng.uniform(0.02, 0.10))  # thermal tails are fat
    mu = float(rng.uniform(1.0, 1.3)) * (1.0 - eta) * mu_prime
    det = HeraldingDetector(eta, float(10.0 ** rng.uniform(-7.0, -5.0)))
    return (
        pair_of(T, mu, det, TriggerClass.TRIGGERED),
        pair_of(T, mu_prime, det, TriggerClass.NON_TRIGGERED),
    )


def test_02_single_pair_yield_reconstruction_identity():
    rng = np.random.default_rng(20240813)
    families = (
        ("poisson_t_nt", 70),
        ("poisson_t_t", 50),
        ("poisson_all", 50),
        ("thermal_t_nt", 40),
    )
    start = time.perf_counter()
    checked = 0
    max_tail = 0.0
    max_err = 0.0
    for family, count in families:
        for _ in range(count):
            link = _draw_link(rng)
            basis = Basis.Z if rng.random() < 0.5 else Basis.X
            weak, strong = _draw_pairs(family, rng)
            table = yield_table(link, basis)
            gains = records_for([weak, strong], [table])
            bound = y11_lower_bound(gains, weak, strong, basis, CUTOFF)
            assert math.isfinite(bound.denominator) and bound.denominator != 0.0, family
            w_, s_ = (strong, weak) if bound.swapped else (weak, strong)
            coeff_w = np.outer(side_weights(w_[0], CUTOFF).a, side_weights(w_[1], CUTOFF).a)
            coeff_s = np.outer(side_weights(s_[0], CUTOFF).a, side_weights(s_[1], CUTOFF).a)
            dropped = coeff_s - bound.k_factor * coeff_w
            dropped[0, :] = 0.0
            dropped[:, 0] = 0.0
            dropped[1, 1] = 0.0
            ksum = float((dropped * table.yields).sum())
            g_w, g_s = (
                interior_gain(*(r.gain for r in gains.setting(
                    basis, p[0].intensity, p[1].intensity, p[0].trigger_class)))
                for p in (w_, s_)
            )
            recon = (
                bound.k_factor * g_w - g_s + ksum
            ) / bound.denominator
            err = abs(recon - float(table.yields[1, 1]))
            max_tail = max(max_tail, bound.tail)
            max_err = max(max_err, err)
            assert bound.tail <= 1e-8, (family, bound.tail)
            assert err <= bound.tail + 1e-10, (family, err, bound.tail)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 200 and max_tail <= 1e-8 and elapsed < 60.0
    assert report(
        2, ok,
        f"{checked} draws, max tail {max_tail:.3e}, max error {max_err:.3e}, {elapsed:.1f} s",
    )


def test_03_bound_soundness_on_the_full_grid():
    distances = tuple(float(d) for d in range(0, 251, 25))
    tables = {d: basis_tables(LinkSpec(d)) for d in distances}
    y_checked = y_skipped = e_checked = e_skipped = 0
    worst_y = -math.inf
    worst_e = math.inf
    for eta in (0.5, 0.75, 0.9, 1.0):
        det = HeraldingDetector(eta, 1e-6)
        for step in range(1, 11):
            mu_prime = 0.1 * step
            mu = (1.0 - eta) * mu_prime
            weak = pair_of(P, mu, det, TriggerClass.TRIGGERED)
            strong = pair_of(P, mu_prime, det, TriggerClass.NON_TRIGGERED)
            for d in distances:
                table_z, table_x = tables[d]
                gains = records_for([weak, strong], [table_z, table_x])
                bound_x = None
                for basis, table in ((Basis.Z, table_z), (Basis.X, table_x)):
                    bound = y11_lower_bound(gains, weak, strong, basis, CUTOFF)
                    if basis is Basis.X:
                        bound_x = bound
                    if not bound.conditions_ok:
                        y_skipped += 1
                        continue
                    slack = bound.value - float(table.yields[1, 1])
                    worst_y = max(worst_y, slack)
                    assert slack <= 1e-12, (eta, mu_prime, d, basis, slack)
                    y_checked += 1
                try:
                    e11 = e11_upper_bound(
                        gains,
                        weak,
                        strong,
                        single_pair_gain(weak, bound_x.value),
                        single_pair_gain(strong, bound_x.value),
                    )
                except BoundUnavailableError:
                    e_skipped += 1
                    continue
                slack = float(table_x.errors[1, 1]) - e11
                worst_e = min(worst_e, e11 - float(table_x.errors[1, 1]))
                assert slack <= 1e-12, (eta, mu_prime, d, slack)
                e_checked += 1
    ok = y_checked >= 600 and e_checked >= 300 and worst_y <= 1e-12
    assert report(
        3, ok,
        f"{y_checked} yield checks ({y_skipped} unlicensed), worst slack {worst_y:.2e}; "
        f"{e_checked} error checks ({e_skipped} undefined), min margin {worst_e:.2e}",
    )


def test_04_closed_form_condition_agrees_with_coefficient_check():
    checked = 0
    disagreements = []
    for eta in (0.5, 0.75, 0.9):
        det = HeraldingDetector(eta, 1e-6)
        for step in range(1, 21):
            mu_prime = 0.05 * step
            boundary = (1.0 - eta) * mu_prime
            for factor in (1.0, 1.05, 0.5):
                mu = factor * boundary
                weak = pair_of(P, mu, det, TriggerClass.TRIGGERED)
                strong = pair_of(P, mu_prime, det, TriggerClass.NON_TRIGGERED)
                gains = GainTable()
                for pr in (weak, strong):
                    x, y = pr[0].intensity, pr[1].intensity
                    for xi, yi in ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0)):
                        gains.add(GainRecord(Basis.Z, xi, yi, pr[0].trigger_class, 0.0, 0.0))
                bound = y11_lower_bound(gains, weak, strong, Basis.Z, CUTOFF)
                licensed = bound.conditions_ok and not bound.swapped
                closed = symmetric_condition(mu, mu_prime, eta)
                if licensed != closed:
                    disagreements.append((eta, mu_prime, factor))
                checked += 1
    ok = checked == 180 and not disagreements
    assert report(
        4, ok,
        f"{checked} grid points, {len(disagreements)} disagreements",
    ), disagreements


def test_05_estimated_curve_tracks_the_asymptotic_one(default_scan):
    points, elapsed = default_scan
    curves = by_curve(points)
    gaps = []
    for d, ref in curves["H0"].items():
        est = curves["H1"][d]
        if ref.valid and ref.rate > 0.0:
            gaps.append((ref.rate - (est.rate if est.valid else 0.0)) / ref.rate)
    gap = max(gaps)
    c_h0 = cutoff_km(points, "H0")
    c_h1 = cutoff_km(points, "H1")
    ok = gap < 0.5 and abs(c_h0 - c_h1) <= 15.0 and elapsed < 300.0
    assert report(
        5, ok,
        f"max relative gap {gap:.1%} over {len(gaps)} distances, "
        f"cutoffs {c_h1:.0f} vs {c_h0:.0f} km, scan {elapsed:.1f} s",
    )


def test_06_heralding_extends_the_reach(default_scan):
    points, _ = default_scan
    c_h1 = cutoff_km(points, "H1")
    c_w0 = cutoff_km(points, "W0")
    ok = c_h1 > c_w0
    assert report(6, ok, f"cutoff H1 {c_h1:.0f} km > cutoff W0 {c_w0:.0f} km")


def test_07_both_classes_beat_triggered_only(default_scan, equal_heralding_scan):
    points, _ = default_scan
    worst = math.inf
    compared = 0
    for pts in (points, equal_heralding_scan):
        curves = by_curve(pts)
        for d, h1 in curves["H1"].items():
            h2 = curves["H2"][d]
            if h1.valid and h2.valid:
                worst = min(worst, h1.rate - h2.rate)
                compared += 1
    ok = worst >= -1e-15
    assert report(
        7, ok,
        f"min rate(H1) - rate(H2) = {worst:.2e} over {compared} distances "
        f"(default and equal-heralding detectors)",
    )


def test_08_poisson_beats_thermal(default_scan, equal_heralding_scan):
    points, _ = default_scan
    worst = math.inf
    compared = 0
    for pts in (points, equal_heralding_scan):
        curves = by_curve(pts)
        for asym, fin in (("H0", "T0"), ("H1", "T1")):
            for d, h in curves[asym].items():
                t = curves[fin][d]
                if h.valid and t.valid:
                    worst = min(worst, h.rate - t.rate)
                    compared += 1
    ok = worst >= -1e-15
    assert report(
        8, ok,
        f"min rate(H*) - rate(T*) = {worst:.2e} over {compared} comparisons "
        f"(default and equal-heralding detectors)",
    )


def test_09_zero_noise_limit():
    config = ScanConfig(e_d=0.0, d_c=0.0, scenarios=("H1",))
    points = scan(config)
    scenario = config.scenario_kind("H1")
    det = HeraldingDetector(scenario.heralding_efficiency, scenario.heralding_dark_rate)
    max_e11 = 0.0
    max_qber = 0.0
    for p in points:
        if not p.valid:
            continue
        max_e11 = max(max_e11, p.e11_bound)
        w = side_weights(
            SourceSpec(P, p.mu_prime, det, TriggerClass.TRIGGERED), config.cutoff
        )
        signal = gain_from_yields(w, w, yield_table(config.link_for(p.distance_km), Basis.Z))
        max_qber = max(max_qber, signal.qber)
    e11_ok = max_e11 < 1e-9
    qber_ok = max_qber < 1e-9
    ok = e11_ok and qber_ok
    assert report(
        9, ok,
        f"max e11 upper bound {max_e11:.3e} ({'<' if e11_ok else '>='} 1e-9), "
        f"max Z QBER {max_qber:.3e} ({'<' if qber_ok else '>='} 1e-9); "
        "the e11 estimate keeps a multiphoton floor even with zero physical noise",
    )


def test_10_determinism_and_round_trip(tmp_path):
    args = ["scan", "--scenario", "W0,H1", "--distances", "0:50:25"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    text = out_a.read_text()
    identical = text == out_b.read_text()
    round_trip = emit_csv(parse_rate_csv(text)) == text
    ok = identical and round_trip
    assert report(
        10, ok,
        f"{len(text.splitlines()) - 1} rows, byte-identical reruns: {identical}, "
        f"parse/emit round-trip: {round_trip}",
    )
