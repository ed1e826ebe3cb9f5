"""Rate formula, scenario bookkeeping, and the per-point evaluator."""

import gc
import math
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mdiqkd import decoy, keyrate, runner
from mdiqkd.decoy import (
    BoundUnavailableError,
    GainTable,
    e11_upper_bound,
    error_moment,
    gain_from_yields,
    interior_gain,
    side_weights,
    single_pair_gain,
    y11_lower_bound,
)
from mdiqkd.keyrate import (
    DEFAULT_ERROR_CORRECTION,
    SCENARIO_NAMES,
    RateInputs,
    RatePoint,
    ScenarioKind,
    _grid_weights,
    basis_tables,
    binary_entropy,
    key_rate,
    rank_grid,
    rate_for_scenario,
)
from mdiqkd.optics import Basis, LinkSpec
from mdiqkd.runner import ScanConfig, optimize_mu_prime, parse_distances
from mdiqkd.source import (
    DistributionKind,
    HeraldingDetector,
    SourceSpec,
    TriggerClass,
    photon_weight,
    trigger_prob,
)

LINK0 = LinkSpec(0.0)


class TestBinaryEntropy:
    def test_reference_points(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert math.isclose(binary_entropy(0.11), 0.499916, abs_tol=5e-7)
        assert math.isclose(binary_entropy(0.11), 0.499915958164528, rel_tol=1e-14)

    def test_domain(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    def test_symmetry(self):
        for p in (0.03, 0.2, 0.41):
            assert math.isclose(binary_entropy(p), binary_entropy(1.0 - p), rel_tol=1e-12)

    def test_concave_and_increasing_below_half(self):
        grid = [0.05 * i for i in range(1, 11)]
        for lo, hi in zip(grid, grid[1:]):
            assert binary_entropy(lo) < binary_entropy(hi) or hi > 0.5
            mid = 0.5 * (lo + hi)
            chord = 0.5 * (binary_entropy(lo) + binary_entropy(hi))
            assert binary_entropy(mid) >= chord


class TestRateInputs:
    def test_validation(self):
        good = dict(y11=0.5, e11x=0.1, gain_z=0.01, qber_z=0.02, p1_sq=0.1, q1_sq=0.9)
        RateInputs(**good)
        for field, bad in (
            ("y11", -0.1),
            ("y11", 1.1),
            ("e11x", 2.0),
            ("gain_z", -1e-9),
            ("qber_z", 1.5),
            ("p1_sq", -0.2),
            ("q1_sq", 1.01),
            ("f_ec", 0.99),
        ):
            with pytest.raises(ValueError):
                RateInputs(**{**good, field: bad})

    def test_default_error_correction(self):
        assert RateInputs(y11=0.0, e11x=0.0, gain_z=0.0, qber_z=0.0, p1_sq=0.0, q1_sq=0.0).f_ec == DEFAULT_ERROR_CORRECTION
        assert DEFAULT_ERROR_CORRECTION == 1.16


class TestKeyRate:
    def test_reference_value(self):
        rate = key_rate(RateInputs(
            y11=0.5, e11x=0.0, gain_z=0.001, qber_z=0.01, p1_sq=0.01, q1_sq=1.0, f_ec=1.16,
        ))
        assert math.isclose(rate, 0.0049062799623607435, rel_tol=1e-12)

    def test_no_privacy_no_key(self):
        rate = key_rate(RateInputs(
            y11=0.5, e11x=0.5, gain_z=0.001, qber_z=0.01, p1_sq=0.01, q1_sq=1.0,
        ))
        assert rate <= 0.0

    def test_all_zero(self):
        assert key_rate(RateInputs(y11=0.0, e11x=0.0, gain_z=0.0, qber_z=0.0, p1_sq=0.0, q1_sq=0.0)) == 0.0

    def test_monotone_in_the_error_estimates(self):
        base = dict(y11=0.5, gain_z=0.001, qber_z=0.01, p1_sq=0.01, q1_sq=1.0)
        rates = [key_rate(RateInputs(e11x=e, **base)) for e in (0.0, 0.02, 0.05, 0.11)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        base = dict(y11=0.5, e11x=0.02, gain_z=0.001, p1_sq=0.01, q1_sq=1.0)
        rates = [key_rate(RateInputs(qber_z=q, **base)) for q in (0.0, 0.02, 0.05, 0.11)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestScenarioKind:
    def test_the_seven_names(self):
        assert SCENARIO_NAMES == ("W0", "W1", "H0", "H1", "H2", "T0", "T1")
        for name in SCENARIO_NAMES:
            kind = ScenarioKind(name)
            assert kind.heralded == (name[0] in "HT")
            assert kind.asymptotic == name.endswith("0")
            assert kind.coupled_mu == (name in ("H1", "T1"))
            expected = DistributionKind.THERMAL if name[0] == "T" else DistributionKind.POISSON
            assert kind.distribution is expected

    def test_defaults(self):
        kind = ScenarioKind("H1")
        assert kind.heralding_efficiency == 0.75
        assert kind.heralding_dark_rate == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioKind("Q1")
        with pytest.raises(ValueError):
            ScenarioKind("H1", heralding_efficiency=1.2)
        with pytest.raises(ValueError):
            ScenarioKind("H1", heralding_dark_rate=-1e-9)


class TestBasisTables:
    def test_orientation(self):
        table_z, table_x = basis_tables(LINK0)
        assert table_z.basis is Basis.Z
        assert table_x.basis is Basis.X


@pytest.fixture(scope="module")
def tables0():
    return basis_tables(LINK0)


class TestRateForScenario:
    def test_estimated_point_at_zero_distance(self, tables0):
        point = rate_for_scenario(ScenarioKind("H1"), LINK0, 0.125, 0.5, tables0)
        assert point.valid and point.reason == ""
        assert point.scenario == "H1"
        assert point.distance_km == 0.0
        assert point.mu == 0.125
        assert point.mu_prime == 0.5
        assert math.isclose(point.rate, 2.898479586163074e-05, rel_tol=1e-12)
        assert math.isclose(point.y11_bound, 0.01028768762579957, rel_tol=1e-12)
        assert math.isclose(point.e11_bound, 0.0857685842221162, rel_tol=1e-12)

    def test_asymptotic_point_reads_ground_truth(self, tables0):
        point = rate_for_scenario(ScenarioKind("H0"), LINK0, 0.125, 0.5, tables0)
        table_z, table_x = tables0
        assert point.mu == 0.0
        assert point.y11_bound == float(table_z.yields[1, 1])
        assert point.e11_bound == float(table_x.errors[1, 1])
        assert math.isclose(point.rate, 0.00020403504419474994, rel_tol=1e-12)
        # the mu argument is ignored entirely on asymptotic scenarios
        again = rate_for_scenario(ScenarioKind("H0"), LINK0, 99.0, 0.5, tables0)
        assert again == point

    def test_estimate_never_beats_ground_truth(self, tables0):
        for asym, fin, mu in (("W0", "W1", 0.1), ("H0", "H1", 0.125), ("T0", "T1", 0.125)):
            ref = rate_for_scenario(ScenarioKind(asym), LINK0, mu, 0.5, tables0)
            est = rate_for_scenario(ScenarioKind(fin), LINK0, mu, 0.5, tables0)
            assert est.valid
            assert est.rate <= ref.rate + 1e-12
            assert est.y11_bound <= ref.y11_bound + 1e-12
            assert est.e11_bound >= ref.e11_bound - 1e-12

    def test_plain_scenario_reference_value(self, tables0):
        point = rate_for_scenario(ScenarioKind("W0"), LINK0, 0.1, 0.5, tables0)
        assert math.isclose(point.rate, 0.00023086539233390518, rel_tol=1e-12)

    def test_negative_rate_is_still_valid(self):
        point = rate_for_scenario(ScenarioKind("H1"), LinkSpec(0.0, misalignment=0.5), 0.125, 0.5)
        assert point.valid
        assert point.rate < 0.0

    def test_condition_failure_yields_reason_code(self, tables0):
        # between the denominator crossing at (1-eta) mu'/(2-eta) and the
        # coefficient boundary at (1-eta) mu' the sign conditions fail
        point = rate_for_scenario(ScenarioKind("H1"), LINK0, 0.1125, 0.5, tables0)
        assert not point.valid
        assert point.reason == "bound_conditions"
        assert point.rate == 0.0

    def test_swap_rescues_points_below_the_crossing(self, tables0):
        point = rate_for_scenario(ScenarioKind("H1"), LINK0, 0.0625, 0.5, tables0)
        assert point.valid
        assert point.rate > 0.0

    def test_intensity_domain(self, tables0):
        with pytest.raises(ValueError):
            rate_for_scenario(ScenarioKind("H1"), LINK0, 0.125, 0.0, tables0)
        with pytest.raises(ValueError):
            rate_for_scenario(ScenarioKind("H1"), LINK0, 0.0, 0.5, tables0)
        # asymptotic scenarios still demand a usable signal intensity
        with pytest.raises(ValueError):
            rate_for_scenario(ScenarioKind("H0"), LINK0, 0.125, -0.5, tables0)

    def test_tables_argument_is_only_a_cache(self):
        link = LinkSpec(50.0)
        direct = rate_for_scenario(ScenarioKind("H1"), link, 0.125, 0.5)
        cached = rate_for_scenario(ScenarioKind("H1"), link, 0.125, 0.5, basis_tables(link))
        assert direct == cached

    def test_rejects_tables_of_another_basis_or_cutoff(self):
        h1 = ScanConfig().scenario_kind("H1")
        link = LinkSpec(50.0)
        table_z, table_x = basis_tables(link)
        right = rate_for_scenario(h1, link, 0.05, 0.5, (table_z, table_x))
        assert right.valid
        assert math.isclose(right.rate, 2.002387556281765e-05, rel_tol=1e-12)
        assert math.isclose(right.e11_bound, 0.04215332644533433, rel_tol=1e-12)
        # swapped, each table read as the other's basis gave a valid-looking
        # point (rate -1.52e-4, e11 0.0176)
        with pytest.raises(ValueError, match="got X at cutoff 8 and Z at cutoff 8"):
            rate_for_scenario(h1, link, 0.05, 0.5, (table_x, table_z))
        short = basis_tables(replace(link, cutoff=6))
        with pytest.raises(ValueError, match="cutoff 8, got Z at cutoff 6 and X at cutoff 6"):
            rate_for_scenario(h1, link, 0.05, 0.5, short)
        with pytest.raises(ValueError, match="got Z at cutoff 8 and X at cutoff 6"):
            rate_for_scenario(ScenarioKind("W0"), link, 0.1, 0.5, (table_z, short[1]))

    @pytest.mark.parametrize("name", ["W0", "H1"])
    def test_optimizer_raises_on_wrong_tables(self, name):
        # rather than report no_valid_point, or optimize on the wrong records
        link = LinkSpec(50.0)
        table_z, table_x = basis_tables(link)
        config = ScanConfig()
        with pytest.raises(ValueError, match="tables must be the Z and X tables"):
            optimize_mu_prime(config.scenario_kind(name), link, config, (table_x, table_z))

    def test_point_is_a_plain_record(self):
        point = RatePoint(0.0, "H1", 0.1, 0.5, 0.0, 0.0, 0.0, False, "bound_conditions")
        assert point.reason == "bound_conditions"
        assert point != RatePoint(0.0, "H1", 0.1, 0.5, 0.0, 0.0, 0.0, False, "")


class TestGridRates:
    def test_link_independent_part_is_built_once_per_grid(self):
        # a grid no other test uses; relay, misalignment and distance all
        # change between calls and must not rebuild the cached weights
        grid = np.geomspace(0.013, 0.97, 7)
        links = [
            LinkSpec(50.0),
            LinkSpec(120.0),
            LinkSpec(50.0, relay_dark_rate=1e-6, misalignment=0.02),
        ]
        before = _grid_weights.cache_info()
        for link in links:
            rates = rank_grid(ScenarioKind("H1"), link, 0.1, grid, basis_tables(link))[0]
            assert np.isfinite(rates).all()
        after = _grid_weights.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == len(links) - 1

    @pytest.mark.parametrize("name, setting_rows", [
        ("W0", None), ("W1", 61), ("H2", 61), ("H1", 120), ("T1", 120),
    ])
    def test_sums_only_what_a_point_reads(self, name, setting_rows, monkeypatch):
        # the signal's sums on (Y_z e_z, Y_z), the strong and weak settings' on
        # (Y_z, Y_x, Y_x e_x); a weak side fixed at mu_fixed is summed once, not per point
        passes = []
        sums = keyrate._side_sums

        def spy(w, vac0, views):
            passes.append((w.shape[1:-1], len(views[3])))
            return sums(w, vac0, views)

        monkeypatch.setattr(keyrate, "_side_sums", spy)
        link = LinkSpec(70.0)
        rank_grid(ScenarioKind(name), link, 0.1, np.geomspace(1e-4, 1.5, 60), basis_tables(link))
        expected = [((60,), 2)] + ([((setting_rows,), 3)] if setting_rows else [])
        assert passes == expected

    def test_rates_equal_the_point_rates_exactly(self):
        # random links, cutoffs, heralding, f_ec, weak intensities and grids over all
        # seven scenarios, raising points included: unit heralding collapses the
        # coupled weak intensity to zero and f_ec < 1 fails RateInputs.  Every rate
        # and the best point must be rate_for_scenario's to the bit
        rng = np.random.default_rng(1017)
        checked = 0
        for trial in range(7 * 15):
            name = SCENARIO_NAMES[trial % 7]
            eta = 1.0 if trial % 10 == 3 else float(rng.uniform(0.3, 0.95))
            scenario = ScenarioKind(name, eta)
            link = LinkSpec(
                float(rng.uniform(0.0, 320.0)),
                relay_dark_rate=float(10.0 ** rng.uniform(-8.0, -5.0)),
                misalignment=float(rng.uniform(0.0, 0.1)),
                cutoff=int(rng.integers(2, 9)),
            )
            tables = basis_tables(link)
            f_ec = 0.99 if trial % 10 == 6 else float(rng.uniform(1.0, 1.5))
            mu_fixed = float(10.0 ** rng.uniform(-3.0, 0.0))
            grid = np.sort(10.0 ** rng.uniform(-5.0, 0.5, 60))
            if trial % 5 == 0:
                grid[30] = mu_fixed  # W1 and H2 then have equal weak and strong records
            rates, best = rank_grid(scenario, link, mu_fixed, grid, tables, f_ec)
            points = []
            for mu_prime in grid.tolist():
                mu = scenario.weak_intensity(mu_prime, mu_fixed)
                try:
                    points.append(rate_for_scenario(scenario, link, mu, mu_prime, tables, f_ec))
                except ValueError:
                    points.append(None)
            want = [p.rate if p is not None and p.valid else -math.inf for p in points]
            where = (trial, name)
            assert [r.hex() for r in rates.tolist()] == [r.hex() for r in want], where
            top = int(np.argmax(want))
            assert repr(best) == repr(points[top] if want[top] > -math.inf else None), where
            checked += len(grid)
        assert checked >= 5000


def reference_rate(scenario, link, mu, mu_prime, tables, f_ec=DEFAULT_ERROR_CORRECTION):
    """rate_for_scenario by the record route: GainRecords from gain_from_yields
    in a GainTable, then y11_lower_bound in Z and X and e11_upper_bound."""
    if not mu_prime > 0.0:
        raise ValueError(f"signal intensity must be > 0, got {mu_prime}")
    table_z, table_x = tables
    kind = scenario.distribution
    heralding = None
    if scenario.heralded:
        heralding = HeraldingDetector(scenario.heralding_efficiency, scenario.heralding_dark_rate)
    signal_cls = TriggerClass.TRIGGERED if scenario.heralded else TriggerClass.ALL
    weak_cls = strong_cls = signal_cls
    if scenario.coupled_mu:
        weak_cls, strong_cls = TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED

    def src(intensity, cls):
        return SourceSpec(kind, intensity, heralding, cls)

    signal_side = side_weights(src(mu_prime, signal_cls), link.cutoff)
    signal = gain_from_yields(signal_side, signal_side, table_z)
    p1 = photon_weight(kind, mu_prime, 1)
    q1 = trigger_prob(heralding, 1) if heralding is not None else 1.0

    def invalid(reason, y11=0.0):
        mu_out = 0.0 if scenario.asymptotic else mu
        return RatePoint(link.total_distance_km, scenario.name, mu_out, mu_prime,
                         y11, 0.0, 0.0, False, reason)

    if scenario.asymptotic:
        y11 = float(table_z.yields[1, 1])
        e11 = float(table_x.errors[1, 1])
        mu_out = 0.0
    else:
        if not mu > 0.0:
            raise ValueError(f"weak intensity must be > 0, got {mu}")
        weak = (src(mu, weak_cls), src(mu, weak_cls))
        strong = (src(mu_prime, strong_cls), src(mu_prime, strong_cls))
        gains = GainTable()
        for pair in (weak, strong):
            cls = pair[0].trigger_class
            x, y = pair[0].intensity, pair[1].intensity
            for xi, yi in ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0)):
                wa = side_weights(src(xi, cls), link.cutoff)
                wb = side_weights(src(yi, cls), link.cutoff)
                gains.add(gain_from_yields(wa, wb, table_z))
                gains.add(gain_from_yields(wa, wb, table_x))
        bound_z = y11_lower_bound(gains, weak, strong, Basis.Z, link.cutoff)
        bound_x = y11_lower_bound(gains, weak, strong, Basis.X, link.cutoff)
        if not (bound_z.conditions_ok and bound_x.conditions_ok):
            return invalid("bound_conditions", bound_z.value)
        try:
            e11 = e11_upper_bound(gains, weak, strong,
                                  single_pair_gain(weak, bound_x.value),
                                  single_pair_gain(strong, bound_x.value))
        except BoundUnavailableError:
            return invalid("e11_unavailable", bound_z.value)
        y11 = bound_z.value
        mu_out = mu
    rate = key_rate(RateInputs(y11=y11, e11x=e11, gain_z=signal.gain, qber_z=signal.qber,
                               p1_sq=p1 * p1, q1_sq=q1 * q1, f_ec=f_ec))
    return RatePoint(link.total_distance_km, scenario.name, mu_out, mu_prime,
                     y11, e11, rate, True, "")


def outcome(fn, *args):
    """A function's RatePoint, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def optimizer_points(scenario, link, config, tables, monkeypatch):
    """The signal intensities one optimize_mu_prime evaluates: the grid and refinement."""
    seen = []
    evaluate = keyrate._RowContext.rate

    def spy(row, mu, mu_prime):
        seen.append(mu_prime)
        return evaluate(row, mu, mu_prime)

    with monkeypatch.context() as patch:
        patch.setattr(keyrate._RowContext, "rate", spy)
        optimize_mu_prime(scenario, link, config, tables)
    grid = np.geomspace(config.mu_prime_min, config.mu_prime_max, config.grid_points)
    return [float(mp) for mp in grid] + seen


def assert_record_route_matches(config, names, distances, monkeypatch):
    """rate_for_scenario == reference_rate at every point the optimizer may evaluate."""
    outcomes = []
    for name in names:
        scenario = config.scenario_kind(name)
        for distance in distances:
            link = config.link_for(distance)
            tables = basis_tables(link)
            for mp in optimizer_points(scenario, link, config, tables, monkeypatch):
                mu = scenario.weak_intensity(mp, config.mu_fixed)
                args = (scenario, link, mu, mp, tables, config.f_ec)
                got = outcome(rate_for_scenario, *args)
                assert got == outcome(reference_rate, *args), (name, distance, mp)
                outcomes.append(got)
    return outcomes


def reasons(outcomes):
    return {o.reason if isinstance(o, RatePoint) else o[0] for o in outcomes}


SCAN_CFG = ScanConfig()


class TestRecordRoute:
    """The record path of rate_for_scenario against the GainTable route it replaced."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_default_scan_points(self, name, monkeypatch):
        outcomes = assert_record_route_matches(
            SCAN_CFG, [name], parse_distances("0:300:10"), monkeypatch
        )
        assert any(isinstance(o, RatePoint) and o.valid and o.rate > 0.0 for o in outcomes)

    def test_unit_heralding(self, monkeypatch):
        # the coupled weak intensity collapses to zero and is rejected
        cfg = replace(SCAN_CFG, scenario_heralding={"H1": 1.0})
        outcomes = assert_record_route_matches(cfg, ["H1", "H2"], (0.0, 100.0), monkeypatch)
        assert ValueError in reasons(outcomes)

    def test_full_misalignment(self, monkeypatch):
        cfg = replace(SCAN_CFG, e_d=0.5)
        outcomes = assert_record_route_matches(cfg, SCENARIO_NAMES, (50.0,), monkeypatch)
        assert all(o.rate <= 0.0 for o in outcomes if isinstance(o, RatePoint))

    def test_past_the_last_key_bearing_distance(self, monkeypatch):
        outcomes = assert_record_route_matches(SCAN_CFG, SCENARIO_NAMES, (350.0,), monkeypatch)
        assert "e11_unavailable" in reasons(outcomes)

    def test_sub_unit_error_correction_still_raises(self):
        # no ScanConfig carries f_ec < 1, so the default grid is evaluated directly
        cfg = SCAN_CFG
        link = cfg.link_for(50.0)
        tables = basis_tables(link)
        grid = np.geomspace(cfg.mu_prime_min, cfg.mu_prime_max, cfg.grid_points)
        outcomes = []
        for name in SCENARIO_NAMES:
            scenario = cfg.scenario_kind(name)
            for mp in map(float, grid):
                args = (scenario, link, scenario.weak_intensity(mp, cfg.mu_fixed), mp, tables, 0.99)
                got = outcome(rate_for_scenario, *args)
                assert got == outcome(reference_rate, *args), (name, mp)
                outcomes.append(got)
        assert ValueError in reasons(outcomes)
        assert not any(isinstance(o, RatePoint) and o.valid for o in outcomes)

    def test_patched_licensing_tolerance(self, monkeypatch):
        # the record path reads decoy's tolerance at call time, as the bound does
        monkeypatch.setattr(decoy, "COEFF_REL_TOL", -math.inf)
        outcomes = assert_record_route_matches(
            SCAN_CFG, ["W1", "H1", "H2", "T1"], (50.0,), monkeypatch
        )
        assert reasons(outcomes) == {"bound_conditions"}

    def test_random_links_and_sources(self):
        rng = np.random.default_rng(2024)
        outcomes = []
        for i in range(42):
            # every scenario, so both distributions, six times over
            name = SCENARIO_NAMES[i % len(SCENARIO_NAMES)]
            link = LinkSpec(
                float(rng.uniform(0.0, 250.0)),
                attenuation_db_per_km=float(rng.uniform(0.15, 0.3)),
                relay_efficiency=float(rng.uniform(0.05, 0.9)),
                relay_dark_rate=float(10.0 ** rng.uniform(-8.0, -4.0)),
                misalignment=float(rng.uniform(0.0, 0.05)),
                cutoff=int(rng.integers(2, 9)),
            )
            eta = 1.0 if i % 9 == 0 else float(rng.uniform(1e-3, 1.0))
            scenario = ScenarioKind(name, eta, float(10.0 ** rng.uniform(-8.0, -3.0)))
            mu_fixed = float(rng.uniform(0.01, 0.3))
            tables = basis_tables(link)
            # one row's points back to back, as the optimizer evaluates them
            for mp in (10.0 ** rng.uniform(-4.0, math.log10(1.5), 6)).tolist():
                args = (scenario, link, scenario.weak_intensity(mp, mu_fixed), mp, tables)
                got = outcome(rate_for_scenario, *args)
                assert got == outcome(reference_rate, *args), (i, name, mp)
                outcomes.append(got)
        assert any(isinstance(o, RatePoint) and o.valid and o.rate > 0.0 for o in outcomes)
        assert {"", "e11_unavailable", ValueError} <= reasons(outcomes)

    def test_one_evaluation_does_no_duplicate_work(self, monkeypatch):
        calls = {"side_weights": 0, "y11_coefficients": 0}

        def counting(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        spies = {name: counting(name, getattr(decoy, name)) for name in calls}
        for module in (decoy, keyrate):
            for name, spy in spies.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy)
        link = LinkSpec(40.0)
        tables = basis_tables(link)
        # an intensity no other test uses, so the weights miss the cache
        point = rate_for_scenario(ScenarioKind("H1", 0.9), link, 0.0417, 0.417, tables)
        assert point.valid and point.rate > 0.0
        assert calls == {"side_weights": 0, "y11_coefficients": 1}

    @pytest.mark.parametrize("name", ["H1", "T1"])
    def test_signal_and_strong_sides_share_one_photon_row(self, name, monkeypatch):
        link = LinkSpec(40.0)
        tables = basis_tables(link)
        scenario = ScenarioKind(name, 0.9)
        # warms _plan, whose vacuum row and zero-intensity sides every row context shares
        rate_for_scenario(scenario, link, 0.0418, 0.418, tables)
        calls = []
        row = keyrate.photon_row

        def spy(kind, intensity, cutoff):
            calls.append((intensity, cutoff))
            return row(kind, intensity, cutoff)

        monkeypatch.setattr(keyrate, "photon_row", spy)
        rate_for_scenario(scenario, link, 0.0419, 0.419, tables)
        assert sorted(calls) == [(0.0419, link.cutoff), (0.419, link.cutoff)]


class TestRowContext:
    """What one optimizer row assembles once, not once per point."""

    @pytest.mark.parametrize("name", ["W1", "H1", "H2", "T1"])
    def test_one_optimize_builds_one_row_context(self, name, monkeypatch):
        built = []

        class Counting(keyrate._RowContext):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(keyrate, "_RowContext", Counting)
        # the grid ranking and every point read the one context the optimizer builds
        link = SCAN_CFG.link_for(70.0)
        point = optimize_mu_prime(SCAN_CFG.scenario_kind(name), link, SCAN_CFG, basis_tables(link))
        assert point.valid
        assert len(built) == 1

    @pytest.mark.parametrize("name", ["W1", "H1", "H2", "T1"])
    def test_one_optimize_builds_at_most_two_rate_points(self, name, monkeypatch):
        # the grid winner's point and a refined point that beats it; every other
        # point the search evaluates stays plain numbers
        built, point = [], keyrate._RowContext.point

        def spy(row, *args):
            built.append(args)
            return point(row, *args)

        monkeypatch.setattr(keyrate._RowContext, "point", spy)
        evaluated = []
        rate = keyrate._RowContext.rate

        def counting(row, mu, mu_prime):
            evaluated.append(mu_prime)
            return rate(row, mu, mu_prime)

        monkeypatch.setattr(keyrate._RowContext, "rate", counting)
        link = SCAN_CFG.link_for(70.0)
        best = optimize_mu_prime(SCAN_CFG.scenario_kind(name), link, SCAN_CFG, basis_tables(link))
        assert best.valid and len(evaluated) >= 10
        assert 1 <= len(built) <= 2
        assert best.mu_prime == built[-1][1]

    @pytest.mark.parametrize("name", ["W0", "W1", "H1", "H2", "T1"])
    def test_one_optimize_stacks_the_tables_once(self, name, monkeypatch):
        stacked = []
        stack = keyrate._stacked_tables

        def spy(tables):
            stacked.append(tables)
            return stack(tables)

        monkeypatch.setattr(keyrate, "_stacked_tables", spy)
        # the grid ranking and every point read the one row context's stack
        link = SCAN_CFG.link_for(70.0)
        optimize_mu_prime(SCAN_CFG.scenario_kind(name), link, SCAN_CFG, basis_tables(link))
        assert len(stacked) == 1

    @pytest.mark.parametrize("name", ["W1", "H1", "H2", "T1"])
    def test_fixed_records_are_assembled_once_per_row(self, name, monkeypatch):
        scenario = SCAN_CFG.scenario_kind(name)
        weak_cls = TriggerClass.TRIGGERED if scenario.heralded else TriggerClass.ALL
        records, settings = [], []
        assemble, setting = keyrate.series_sums, keyrate._RowContext.setting

        def spy(alice, bob, *args):
            records.append((alice, bob))
            return assemble(alice, bob, *args)

        def setting_spy(row, vac0, col, *args):
            settings.append(col)
            return setting(row, vac0, col, *args)

        monkeypatch.setattr(keyrate, "series_sums", spy)
        monkeypatch.setattr(keyrate._RowContext, "setting", setting_spy)
        link = SCAN_CFG.link_for(70.0)
        tables = basis_tables(link)
        optimize_mu_prime(scenario, link, SCAN_CFG, tables)
        # a side at intensity zero carries no interior weights
        zero = [r for r in records if not r[0][0, ..., 1:].any() and not r[1][0, ..., 1:].any()]
        # one pass sums the (0, 0) record of each zero-intensity class: both classes
        # for the coupled scenarios, one shared class otherwise
        assert len(zero) == 1 and zero[0][0] is zero[0][1]
        classes = {tuple(vac) for vac in zero[0][0][1].tolist()}
        assert len(zero[0][0][1]) == len(classes) == (2 if scenario.coupled_mu else 1)
        if not scenario.coupled_mu:
            heralding = scenario.heralding
            fixed = SourceSpec(scenario.distribution, SCAN_CFG.mu_fixed, heralding, weak_cls)
            mats = keyrate._stacked_tables(tables)
            w = side_weights(fixed, link.cutoff)
            w = np.stack((w.a, w.vac))
            fixed_col = decoy.series_sums(w, w, decoy.table_views(mats))[0].tolist()
            # one setting call assembles (x, x), (x, 0) and (0, x) of the fixed
            # weak setting, which its side's column sums identify
            assert sum(col == fixed_col for col in settings) == 1

    def test_side_factors_are_shared_by_every_row_of_a_scenario(self, monkeypatch):
        calls = []
        factors = keyrate.side_factors

        def spy(heralding, cls, cutoff):
            calls.append((heralding, cls, cutoff))
            return factors(heralding, cls, cutoff)

        monkeypatch.setattr(keyrate, "side_factors", spy)
        keyrate._plan.cache_clear()
        names = ("W1", "H1", "H2", "T1")
        cfg = replace(SCAN_CFG, scenarios=names, distances=(0.0, 60.0, 120.0))
        rows = runner.scan(cfg)
        assert len(rows) == 12 and all(row.valid for row in rows)
        # one call per distinct event class of each (scenario, cutoff), not one per row
        assert len(calls) == sum(len(set(cfg.scenario_kind(n).classes)) for n in names) == 6

    def test_setting_numbers_are_the_record_routes(self, monkeypatch):
        # .setting's three numbers, read off the row's fixed products, against
        # interior_gain and error_moment over GainTable.setting's records from
        # gain_from_yields for the same sides.  The last rows have no relay dark counts
        # and unit heralding, so H1's and T1's strong X records have zero gain
        calls = []
        setting = keyrate._RowContext.setting

        def spy(row, consts, *args):
            calls.append((consts is row.weak_consts, setting(row, consts, *args)))
            return calls[-1][1]

        monkeypatch.setattr(keyrate._RowContext, "setting", spy)
        rng = np.random.default_rng(2802)
        checked = zero_gain = 0
        for i in range(408):
            name, dark = ("H1", "H2", "W1", "T1")[i % 4], i < 400
            eta = float(rng.uniform(0.05, 0.99)) if dark else 1.0
            scenario = ScenarioKind(name, eta, float(10.0 ** rng.uniform(-8.0, -3.0)))
            link = LinkSpec(
                float(rng.uniform(0.0, 250.0)),
                relay_efficiency=float(rng.uniform(0.05, 0.9)),
                relay_dark_rate=float(10.0 ** rng.uniform(-8.0, -4.0)) if dark else 0.0,
                misalignment=float(rng.uniform(0.0, 0.05)),
                cutoff=3 + i % 6,
            )
            tables = basis_tables(link)
            mu_prime = float(10.0 ** rng.uniform(-2.0, 0.2))
            mu = float(rng.uniform(0.05, 0.9)) * mu_prime
            calls.clear()
            outcome(keyrate._RowContext(scenario, link, tables, 1.16).rate, mu, mu_prime)
            assert sorted(weak for weak, _ in calls) == [False, True]
            _, weak_cls, strong_cls = scenario.classes
            for weak, got in calls:
                x, cls = (mu, weak_cls) if weak else (mu_prime, strong_cls)
                sides = [side_weights(SourceSpec(scenario.distribution, v, scenario.heralding,
                                                 cls), link.cutoff) for v in (x, 0.0)]
                gains = GainTable(gain_from_yields(a, b, table)
                                  for table in tables for a in sides for b in sides)
                z, xs = (gains.setting(basis, x, x, cls) for basis in (Basis.Z, Basis.X))
                expected = (interior_gain(*(r.gain for r in z)), interior_gain(*(r.gain for r in xs)),
                            error_moment(*(r.gain * r.qber for r in xs)))
                assert got == expected, (i, name, weak)
                assert [v.hex() for v in got if v] == [v.hex() for v in expected if v]
                checked += 1
                zero_gain += 0.0 in [r.gain for r in xs]
        assert checked == 816 and zero_gain >= 4

    def test_random_points_match_the_record_route(self, monkeypatch):
        settings = []
        setting = keyrate._RowContext.setting

        def setting_spy(row, *args):
            settings.append(row)
            return setting(row, *args)

        monkeypatch.setattr(keyrate._RowContext, "setting", setting_spy)
        rng = np.random.default_rng(1313)
        outcomes, kept, served = [], 0, 0
        for i in range(170):
            name = SCENARIO_NAMES[i % len(SCENARIO_NAMES)]
            link = LinkSpec(
                float(rng.uniform(0.0, 250.0)),
                relay_efficiency=float(rng.uniform(0.05, 0.9)),
                relay_dark_rate=float(10.0 ** rng.uniform(-8.0, -4.0)),
                misalignment=float(rng.uniform(0.0, 0.5 if i % 2 else 0.05)),
                cutoff=2 + i % 7,
            )
            eta = 1.0 if i % 13 == 0 else float(rng.uniform(1e-3, 1.0))
            scenario = ScenarioKind(name, eta, float(10.0 ** rng.uniform(-8.0, -3.0)))
            mu_fixed = float(rng.uniform(0.01, 0.3))
            f_ec = float(rng.uniform(0.99, 1.2))
            tables = basis_tables(link)
            # one row context, and its points back to back, as the optimizer holds and
            # evaluates them: on the scenario's weak intensity, off the coupled line,
            # or not positive
            row = keyrate._RowContext(scenario, link, tables, f_ec)
            last_mu = None
            for mp in (10.0 ** rng.uniform(-4.0, math.log10(1.5), 12)).tolist():
                mu = scenario.weak_intensity(mp, mu_fixed)
                draw = rng.random()
                if draw < 0.3:
                    mu = float(rng.uniform(0.01, 1.0)) * mp
                elif draw < 0.36:
                    mu = -float(rng.uniform(0.0, 0.1))
                kept += mu == last_mu and not scenario.asymptotic
                last_mu = mu
                before = len(settings)
                got = outcome(lambda: row.point(mu, mp, *row.rate(mu, mp)))
                # the strong setting alone: the kept weak setting served this point
                served += len(settings) - before == 1
                args = (scenario, link, mu, mp, tables, f_ec)
                assert got == outcome(reference_rate, *args), (i, name, mp, mu)
                outcomes.append(got)
        assert len(outcomes) >= 2000 and kept >= 200 and served >= 200
        assert {"", "bound_conditions", "e11_unavailable", ValueError} <= reasons(outcomes)
        assert any(isinstance(o, RatePoint) and o.valid and o.rate > 0.0 for o in outcomes)

    @pytest.mark.parametrize("call", ["optimize_mu_prime", "rate_for_scenario", "rank_grid"])
    @pytest.mark.parametrize("name", ["W0", "H1", "W1"])
    def test_no_row_context_outlives_its_call(self, name, call):
        # a row context lives for one call of its caller, so it keeps no table alive
        link = SCAN_CFG.link_for(70.0)
        scenario = SCAN_CFG.scenario_kind(name)
        tables = basis_tables(link)
        refs = [weakref.ref(table) for table in tables]
        if call == "optimize_mu_prime":
            point = optimize_mu_prime(scenario, link, SCAN_CFG, tables)
        elif call == "rate_for_scenario":
            point = rate_for_scenario(scenario, link, 0.05, 0.5, tables)
        else:
            grid = np.geomspace(SCAN_CFG.mu_prime_min, SCAN_CFG.mu_prime_max, 60)
            point = rank_grid(scenario, link, SCAN_CFG.mu_fixed, grid, tables)[1]
        assert point.valid
        del tables
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_context_is_keyed_by_every_input(self):
        link = LinkSpec(60.0)
        farther = replace(link, total_distance_km=61.0)
        # each call differs from the one before in one input only
        calls = [
            (ScenarioKind("H1", 0.9), link, 0.04, 0.4, DEFAULT_ERROR_CORRECTION),
            (ScenarioKind("H1", 0.9), link, 0.05, 0.5, DEFAULT_ERROR_CORRECTION),
            (ScenarioKind("H1", 0.9), link, 0.05, 0.5, 1.4),
            (ScenarioKind("H1", 0.9), farther, 0.05, 0.5, 1.4),
            (ScenarioKind("H1", 0.8), farther, 0.05, 0.5, 1.4),
            (ScenarioKind("H2", 0.8), farther, 0.05, 0.5, 1.4),
            (ScenarioKind("W1"), farther, 0.05, 0.5, 1.4),
        ]
        expected = [rate_for_scenario(*c[:4], basis_tables(link), c[4]) for c in calls]
        tables = basis_tables(link)
        assert [rate_for_scenario(*c[:4], tables, c[4]) for c in calls] == expected


class TestSettingNumbers:
    """A setting's gain and X error moment with the vacuum rows removed have one written
    form, decoy.interior_gain and decoy.error_moment, which the bound path, the rate point
    and the grid all call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # (module the name is bound in, function, its caller) of every call
        calls = Counter()
        real = {name: getattr(decoy, name) for name in ("interior_gain", "error_moment")}
        for module in (decoy, keyrate):
            for name, fn in real.items():
                where = module.__name__.rsplit(".", 1)[1]

                def spy(*args, _key=(where, name), _fn=fn):
                    calls[(*_key, sys._getframe(1).f_code.co_name)] += 1
                    return _fn(*args)

                # raising=False: a module that does not bind the name shows as no calls
                monkeypatch.setattr(module, name, spy, raising=False)
        return calls

    @pytest.mark.parametrize("route", ["bound", "point", "grid"])
    def test_every_path_calls_the_one_form(self, route, calls):
        scenario, link = SCAN_CFG.scenario_kind("H1"), SCAN_CFG.link_for(70.0)
        tables = basis_tables(link)
        if route == "bound":
            # y11_lower_bound in Z and X, then e11_upper_bound, on a GainTable
            point = reference_rate(scenario, link, 0.05, 0.5, tables)
            expected = {("decoy", "interior_gain", "y11_lower_bound"): 4,
                        ("decoy", "error_moment", "e11_upper_bound"): 2}
        elif route == "point":
            # _RowContext.setting, once for the weak setting and once for the strong
            point = rate_for_scenario(scenario, link, 0.05, 0.5, tables)
            expected = {("keyrate", "interior_gain", "setting"): 4,
                        ("keyrate", "error_moment", "setting"): 2}
        else:
            grid = np.geomspace(SCAN_CFG.mu_prime_min, SCAN_CFG.mu_prime_max, 60)
            point = rank_grid(scenario, link, SCAN_CFG.mu_fixed, grid, tables)[1]
            expected = {("keyrate", "interior_gain", "rates"): 1,
                        ("keyrate", "error_moment", "rates"): 1}
        assert point.valid
        assert calls == expected

    def test_arrays_equal_their_per_element_floats(self):
        rng = np.random.default_rng(2501)
        # gains or gain-qber products over many magnitudes, some zero, as a grid stacks them
        args = 10.0 ** rng.uniform(-18.0, 0.0, (4, 600)) * (rng.random((4, 600)) < 0.9)
        for fn in (interior_gain, error_moment):
            expected = [fn(*column).hex() for column in args.T.tolist()]
            for shape in ((600,), (200, 3)):
                got = fn(*args.reshape(4, *shape))
                assert [v.hex() for v in got.ravel().tolist()] == expected
