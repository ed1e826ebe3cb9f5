"""Rate formula, scenario bookkeeping, and the per-point evaluator."""

import math

import numpy as np
import pytest

from mdiqkd.keyrate import (
    DEFAULT_ERROR_CORRECTION,
    SCENARIO_NAMES,
    RateInputs,
    RatePoint,
    ScenarioKind,
    _grid_constants,
    basis_tables,
    binary_entropy,
    grid_rates,
    key_rate,
    rate_for_scenario,
)
from mdiqkd.optics import Basis, LinkSpec
from mdiqkd.source import DistributionKind

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
        before = _grid_constants.cache_info()
        for link in links:
            rates = grid_rates(ScenarioKind("H1"), link, 0.1, grid, basis_tables(link))
            assert np.isfinite(rates).all()
        after = _grid_constants.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == len(links) - 1
