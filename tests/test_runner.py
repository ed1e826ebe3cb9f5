"""Config parsing, the scan driver, CSV formats, and the CLI."""

import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from scipy import optimize as sciopt

from mdiqkd import decoy, keyrate, runner
from mdiqkd.decoy import GainRecord, GainTable, gain_from_yields, side_weights
from mdiqkd.keyrate import SCENARIO_NAMES, RatePoint, basis_tables, rank_grid
from mdiqkd.optics import Basis, yield_table
from mdiqkd.runner import (
    GAIN_HEADER,
    RATE_HEADER,
    YIELD_HEADER,
    ConfigError,
    DEFAULT_SCENARIO_HERALDING,
    ScanConfig,
    emit_csv,
    emit_gain_csv,
    emit_yield_csv,
    main,
    optimize_mu_prime,
    parse_config,
    parse_distances,
    parse_gain_csv,
    parse_rate_csv,
    scan,
)
from mdiqkd.source import DistributionKind, HeraldingDetector, SourceSpec, TriggerClass

CFG = ScanConfig()


def _evaluate(scenario, link, config, mu_prime, tables):
    """rate_for_scenario's point at mu_prime and the scenario's weak intensity, or None
    where it raises: one point of the optimizer's search, as a scalar oracle."""
    mu = scenario.weak_intensity(mu_prime, config.mu_fixed)
    try:
        return keyrate.rate_for_scenario(scenario, link, mu, mu_prime, tables, config.f_ec)
    except ValueError:
        # degenerate intensities (for example coupled mu collapsing to 0)
        return None


def recording(seen):
    """A stand-in for keyrate._RowContext.rate, the optimizer's one point, that
    appends each mu' it evaluates to seen."""
    rate = keyrate._RowContext.rate

    def spy(row, mu, mu_prime):
        seen.append(mu_prime)
        return rate(row, mu, mu_prime)

    return spy


@pytest.fixture(scope="module")
def default_scan():
    """The default scan's rows, and the mu' of every _RowContext.rate call it made."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(keyrate._RowContext, "rate", recording(seen))
        rows = scan(ScanConfig())
    return rows, seen


@pytest.fixture(scope="module")
def default_rows(default_scan):
    return default_scan[0]


class TestParseDistances:
    def test_default_range(self):
        dd = parse_distances("0:300:5")
        assert len(dd) == 61
        assert dd[0] == 0.0 and dd[-1] == 300.0

    def test_inclusive_stop(self):
        assert parse_distances("0:10:5") == (0.0, 5.0, 10.0)

    def test_non_dividing_step(self):
        assert parse_distances("0:10:3") == (0.0, 3.0, 6.0, 9.0)

    def test_single_point(self):
        assert parse_distances("5:5:1") == (5.0,)

    def test_rejects(self):
        for bad in ("10:0:5", "0:10:0", "0:10", "a:b:c", "-5:10:5", "0:10:5:1"):
            with pytest.raises(ConfigError):
                parse_distances(bad)

    @pytest.mark.parametrize("text", ["0:inf:5", "nan:10:5", "0:10:inf"])
    def test_rejects_non_finite_parts(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_distances(text)

    def test_rejects_a_range_too_long_to_build(self):
        assert len(parse_distances(f"0:{runner.MAX_DISTANCES - 1}:1")) == runner.MAX_DISTANCES
        # each would be expanded before anything else could reject it
        for text in (f"0:{runner.MAX_DISTANCES}:1", "0:10:1e-300", "0:10:1e-320"):
            with pytest.raises(ConfigError, match="more than"):
                parse_distances(text)


class TestParseConfig:
    def test_empty_is_default(self):
        assert parse_config("") == ScanConfig()

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\n  eta_heralding = 0.9  # trailing\n")
        assert cfg.eta_heralding == 0.9

    def test_field_spellings(self):
        cfg = parse_config("f = 1.1\nmu = 0.2\nalpha = 0.21\ncutoff = 6\n")
        assert cfg.f_ec == 1.1
        assert cfg.mu_fixed == 0.2
        assert cfg.alpha == 0.21
        assert cfg.cutoff == 6

    def test_distances_and_scenarios(self):
        cfg = parse_config("distances = 0:10:5\nscenarios = H1, W0\n")
        assert cfg.distances == (0.0, 5.0, 10.0)
        assert cfg.scenarios == ("H1", "W0")

    def test_per_scenario_heralding_override(self):
        cfg = parse_config("eta_heralding_H1 = 0.8\n")
        assert cfg.scenario_heralding["H1"] == 0.8
        assert cfg.scenario_heralding["H0"] == DEFAULT_SCENARIO_HERALDING["H0"]
        assert cfg.scenario_kind("H1").heralding_efficiency == 0.8
        assert cfg.scenario_kind("T1").heralding_efficiency == cfg.eta_heralding

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("alpha = -1\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("alpha = 0.2\n\nf = 0.5\n")

    def test_rejects(self):
        for text in (
            "bogus = 3\n",
            "alpha 0.2\n",
            "eta_heralding_QQ = 0.5\n",
            "eta_heralding = 1.5\n",
            "f = 0.99\n",
            "cutoff = 1\n",
            "grid_points = 3\n",
            "mu_prime_min = 0\n",
            "alpha = abc\n",
            "scenarios = H1,Q9\n",
            "= 0.2\n",
        ):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_rejects_a_grid_too_large_to_build(self):
        cap = runner.MAX_GRID_POINTS
        assert parse_config(f"grid_points = {cap}\n").grid_points == cap
        # the optimizer would allocate the whole grid before anything else could reject it
        for value in (cap + 1, 10**9):
            with pytest.raises(ConfigError, match=rf"line 1: grid_points must lie in \[4, {cap}\]"):
                parse_config(f"grid_points = {value}\n")

    def test_unknown_scenario_kind(self):
        with pytest.raises(ValueError):
            CFG.scenario_kind("Q9")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "alpha", "e_d", "d_c", "eta_c", "eta_heralding", "d_heralding", "eta_heralding_H1",
        "f", "mu", "mu_fixed", "mu_prime_min", "mu_prime_max", "refine_tol",
    ])
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(ConfigError, match=f"line 1: {key} must be"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("text", [
        "mu_prime_min = 2.0\n",
        "mu_prime_max = 1e-5\n",
        "mu_prime_min = 0.5\nmu_prime_max = 0.5\n",
    ])
    def test_rejects_an_empty_or_inverted_grid(self, text):
        with pytest.raises(ConfigError, match="mu_prime_min must be below mu_prime_max"):
            parse_config(text)


class TestScanConfig:
    # each is rejected on construction; none of these values is ever run
    @pytest.mark.parametrize("build, field", [
        (lambda: ScanConfig(grid_points=10**9), "grid_points"),
        (lambda: replace(CFG, cutoff=9), "cutoff"),
        (lambda: ScanConfig(distances=(math.inf,)), "distances"),
        (lambda: ScanConfig(distances=(0.0,) * (runner.MAX_DISTANCES + 1)), "distances"),
        (lambda: ScanConfig(scenario_heralding={"Q9": 0.5}), "scenario_heralding['Q9']"),
        (lambda: ScanConfig(scenarios=("H1", "Q9")), "scenarios"),
        (lambda: ScanConfig(f_ec=0.99), "f_ec"),
        (lambda: ScanConfig(alpha=math.nan), "alpha"),
        (lambda: ScanConfig(mu_fixed=0.0), "mu_fixed"),
        (lambda: replace(CFG, scenario_heralding={"H1": 1.5}), "scenario_heralding['H1']"),
        (lambda: ScanConfig(cutoff=6.0), "cutoff"),
        (lambda: ScanConfig(grid_points=60.0), "grid_points"),
    ], ids=[
        "grid_points", "cutoff", "distance", "distance-count", "heralding-key", "scenarios",
        "f_ec", "alpha", "mu_fixed", "heralding-value", "float-cutoff", "float-grid_points",
    ])
    def test_rejects_what_no_scan_can_use(self, build, field):
        with pytest.raises(ConfigError, match="^" + re.escape(field) + " must ") as exc:
            build()
        assert exc.value.field == field

    def test_numpy_integer_counts_are_accepted(self):
        config = ScanConfig(cutoff=np.int64(6), grid_points=np.int32(20), distances=(50.0,),
                            scenarios=("W1",))
        assert [p.valid for p in scan(config)] == [True]

    def test_inverted_grid_names_no_single_field(self):
        with pytest.raises(ConfigError, match="^mu_prime_min must be below mu_prime_max") as exc:
            replace(CFG, mu_prime_min=2.0)
        assert exc.value.field is None


class TestOptimize:
    def test_default_point(self):
        link = CFG.link_for(50.0)
        best = optimize_mu_prime(CFG.scenario_kind("H1"), link, CFG)
        assert best.valid
        assert 0.0 < best.mu_prime < CFG.mu_prime_max
        assert math.isclose(best.rate, 2.3791065492533448e-05, rel_tol=1e-9)
        assert math.isclose(best.mu, 0.1 * best.mu_prime, rel_tol=1e-12)

    def test_refinement_only_improves(self):
        link = CFG.link_for(50.0)
        tables = basis_tables(link)
        scenario = CFG.scenario_kind("H1")
        best = optimize_mu_prime(scenario, link, CFG, tables)
        grid = np.geomspace(CFG.mu_prime_min, CFG.mu_prime_max, CFG.grid_points)
        grid_best = max(
            p.rate
            for p in (_evaluate(scenario, link, CFG, mp, tables) for mp in grid)
            if p is not None and p.valid
        )
        assert grid_best <= best.rate <= grid_best * 1.01

    def test_insensitive_to_grid_density(self):
        link = CFG.link_for(50.0)
        tables = basis_tables(link)
        a = optimize_mu_prime(CFG.scenario_kind("H1"), link, CFG, tables)
        b = optimize_mu_prime(CFG.scenario_kind("H1"), link, replace(CFG, grid_points=120), tables)
        assert math.isclose(a.rate, b.rate, rel_tol=1e-9)

    def test_no_positive_rate(self):
        cfg = replace(CFG, e_d=0.5)
        point = optimize_mu_prime(cfg.scenario_kind("H1"), cfg.link_for(0.0), cfg)
        assert not point.valid
        assert point.rate == 0.0
        assert point.reason == "no_positive_rate"

    def test_no_valid_point(self):
        # unit heralding efficiency collapses the coupled weak intensity
        # to zero, so every grid evaluation is degenerate
        cfg = replace(CFG, scenario_heralding={"H1": 1.0})
        point = optimize_mu_prime(cfg.scenario_kind("H1"), cfg.link_for(0.0), cfg)
        assert not point.valid
        assert point.rate == 0.0
        assert point.reason == "no_valid_point"

    @pytest.mark.parametrize("name", ["W0", "H1"])
    def test_no_valid_grid_point_names_its_reason(self, name, monkeypatch):
        # grid rates are the point rates, so a grid with no valid rate has no
        # valid point; when every point also raises, the asymptotic and the
        # estimated row alike report the constructed no_valid_point row
        def no_valid_rate(row, mu_fixed, mu_primes):
            return np.full(len(mu_primes), -math.inf), None

        def degenerate(*args):
            raise ValueError("degenerate intensities")

        monkeypatch.setattr(keyrate._RowContext, "rates", no_valid_rate)
        monkeypatch.setattr(keyrate._RowContext, "rate", degenerate)
        link = CFG.link_for(50.0)
        first = _evaluate(CFG.scenario_kind(name), link, CFG, CFG.mu_prime_min, basis_tables(link))
        assert first is None
        point = optimize_mu_prime(CFG.scenario_kind(name), link, CFG)
        assert (point.valid, point.rate, point.reason) == (False, 0.0, "no_valid_point")

    @pytest.mark.parametrize("name", ["W1", "H1", "T1"])
    def test_never_evaluates_a_point_twice(self, name, monkeypatch):
        seen = []
        monkeypatch.setattr(keyrate._RowContext, "rate", recording(seen))
        link = CFG.link_for(100.0)
        point = optimize_mu_prime(CFG.scenario_kind(name), link, CFG)
        assert point.valid
        assert point.mu_prime in seen
        assert len(seen) == len(set(seen))


    def test_every_point_is_at_the_scenarios_weak_intensity(self, monkeypatch):
        # ScenarioKind.weak_intensity is the one written form of the weak intensity the
        # search pairs with each mu'.  At unit heralding efficiency the coupled mu is 0,
        # so every H1 and T1 point raises and the row ends on no_valid_point
        seen = []
        rate = keyrate._RowContext.rate

        def spy(row, mu, mu_prime):
            seen.append((mu, mu_prime, "raised"))
            out = rate(row, mu, mu_prime)
            seen[-1] = (mu, mu_prime, out[3])
            return out

        monkeypatch.setattr(keyrate._RowContext, "rate", spy)
        rng = np.random.default_rng(2803)
        evaluated = dict.fromkeys(SCENARIO_NAMES, 0)
        for i in range(7 * 6):
            name, unit = SCENARIO_NAMES[i % 7], i >= 7 * 5
            eta = 1.0 if unit else float(rng.uniform(0.05, 0.99))
            cfg = replace(CFG, eta_heralding=eta, mu_fixed=float(rng.uniform(0.01, 0.3)),
                          scenario_heralding={})
            scenario = cfg.scenario_kind(name)
            seen.clear()
            point = optimize_mu_prime(scenario, cfg.link_for(float(rng.uniform(0.0, 200.0))), cfg)
            evaluated[name] += len(seen)
            for mu, mu_prime, _ in seen:
                assert mu.hex() == scenario.weak_intensity(mu_prime, cfg.mu_fixed).hex()
            if unit and scenario.coupled_mu:
                assert len(seen) == cfg.grid_points
                assert {(mu, reason) for mu, _, reason in seen} == {(0.0, "raised")}
                assert point.reason == "no_valid_point"
        assert min(evaluated.values()) > 0

    @pytest.mark.parametrize("name", ["W1", "H0", "H1", "T1"])
    def test_bracket_ends_on_the_grid_are_never_evaluated(self, name, monkeypatch):
        # a bracket end whose exp(log g) round-trips to the grid value g costs what
        # the grid rated it, so the row context's scalar rate never sees that mu'
        seen = []
        monkeypatch.setattr(keyrate._RowContext, "rate", recording(seen))
        grid, logs = runner._grid(CFG.mu_prime_min, CFG.mu_prime_max, CFG.grid_points)
        link = CFG.link_for(100.0)
        tables = basis_tables(link)
        scenario = CFG.scenario_kind(name)
        rates, _ = rank_grid(scenario, link, CFG.mu_fixed, grid, tables, CFG.f_ec)
        best_i = int(np.argmax(rates))
        ends = [
            float(grid[i]) for i in (best_i - 1, best_i + 1)
            if math.exp(float(logs[i])) == float(grid[i])
        ]
        assert 0 < best_i < len(grid) - 1 and ends
        point = optimize_mu_prime(scenario, link, CFG, tables)
        assert point.valid and seen
        assert not set(ends) & set(seen)


# rows the benchmark's reference scan recorded; tier-1 reads them too so a
# drift in optimized rates fails here, not only in the benchmark
REFERENCE_ROWS = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "scan_seed0.csv"


def reference_rows():
    with open(REFERENCE_ROWS, newline="", encoding="utf-8") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return {(float(r["distance_km"]), r["scenario"]): r for r in rows}


class TestReferenceRows:
    @pytest.mark.parametrize("distance", [0.0, 100.0, 200.0])
    def test_optimized_rows_match(self, distance):
        rows = reference_rows()
        link = CFG.link_for(distance)
        tables = basis_tables(link)
        for name in SCENARIO_NAMES:
            ref = rows[(distance, name)]
            point = optimize_mu_prime(CFG.scenario_kind(name), link, CFG, tables)
            where = (distance, name)
            assert (point.valid, point.reason) == (ref["valid"] == "1", ref["reason"]), where
            assert math.isclose(point.rate, float(ref["rate"]), rel_tol=1e-12, abs_tol=0.0), where


def reference_grid(scenario, link, config, tables):
    """The optimizer's grid as the scalar loop evaluates it, one point at a time."""
    grid = np.geomspace(config.mu_prime_min, config.mu_prime_max, config.grid_points)
    return grid, [_evaluate(scenario, link, config, mp, tables) for mp in grid]


def reference_optimize(scenario, link, config, tables, grid, points):
    """optimize_mu_prime with the grid ranked by the scalar loop's points."""
    rates = [p.rate if p is not None and p.valid else -math.inf for p in points]
    best_i = int(np.argmax(rates))
    if rates[best_i] == -math.inf:
        reported = next((p for p in points if p is not None), None)
        if reported is None:
            reported = RatePoint(
                distance_km=link.total_distance_km,
                scenario=scenario.name,
                mu=0.0,
                mu_prime=float(grid[len(grid) // 2]),
                y11_bound=0.0,
                e11_bound=0.0,
                rate=0.0,
                valid=False,
                reason="no_valid_point",
            )
        return replace(reported, rate=0.0, valid=False)

    best = points[best_i]
    if 0 < best_i < len(grid) - 1:
        logs = np.log(grid)

        def cost(lg: float) -> float:
            pt = _evaluate(scenario, link, config, float(math.exp(lg)), tables)
            if pt is None or not pt.valid:
                return math.inf
            return -pt.rate

        try:
            res = sciopt.minimize_scalar(
                cost,
                bracket=(logs[best_i - 1], logs[best_i], logs[best_i + 1]),
                method="golden",
                options={"xtol": config.refine_tol, "maxiter": 200},
            )
            refined = _evaluate(scenario, link, config, float(math.exp(res.x)), tables)
            if refined is not None and refined.valid and refined.rate > best.rate:
                best = refined
        except ValueError:
            pass

    if best.rate <= 0.0:
        return replace(best, rate=0.0, valid=False, reason="no_positive_rate")
    return best


def assert_batched_grid_matches(config, name, distances):
    """Rates and best point of rank_grid, and the optimized rows, against the scalar loop."""
    scenario = config.scenario_kind(name)
    points = []
    for distance in distances:
        link = config.link_for(distance)
        tables = basis_tables(link)
        grid, ref_points = reference_grid(scenario, link, config, tables)
        ref = np.array([p.rate if p is not None and p.valid else -math.inf for p in ref_points])
        got, best = rank_grid(scenario, link, config.mu_fixed, grid, tables, config.f_ec)
        where = (name, distance)
        # exact: the batched grid is the scalar point, bit for bit
        assert [r.hex() for r in got.tolist()] == [r.hex() for r in ref.tolist()], where
        top = int(np.argmax(ref))
        assert best == (ref_points[top] if ref[top] > -math.inf else None), where
        point = optimize_mu_prime(scenario, link, config, tables)
        assert point == reference_optimize(scenario, link, config, tables, grid, ref_points), where
        points.append(point)
    return points


class TestBatchedGrid:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_default_curves_match_the_scalar_loop(self, name):
        assert_batched_grid_matches(CFG, name, parse_distances("0:300:10"))

    def test_unit_heralding_has_no_valid_point(self):
        cfg = replace(CFG, scenario_heralding={"H1": 1.0})
        points = assert_batched_grid_matches(cfg, "H1", (0.0, 100.0))
        assert {p.reason for p in points} == {"no_valid_point"}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_full_misalignment_has_no_positive_rate(self, name):
        cfg = replace(CFG, e_d=0.5)
        points = assert_batched_grid_matches(cfg, name, (50.0,))
        assert {p.reason for p in points} == {"no_positive_rate"}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_sub_unit_error_correction_leaves_no_valid_point(self, name):
        # every point that gets as far as the rate formula raises; no ScanConfig
        # carries f_ec < 1, so the default grid is ranked directly
        scenario = CFG.scenario_kind(name)
        link = CFG.link_for(50.0)
        tables = basis_tables(link)
        grid = np.geomspace(CFG.mu_prime_min, CFG.mu_prime_max, CFG.grid_points)
        points = []
        for mp in grid:
            mu = scenario.weak_intensity(mp, CFG.mu_fixed)
            try:
                points.append(keyrate.rate_for_scenario(scenario, link, mu, mp, tables, 0.99))
            except ValueError:
                points.append(None)
        got = rank_grid(scenario, link, CFG.mu_fixed, grid, tables, 0.99)[0]
        assert np.all(got == -math.inf)
        assert all(p is None or (not p.valid and p.rate == 0.0) for p in points)
        assert {p.reason for p in points if p is not None} <= {"e11_unavailable"}

    @pytest.mark.parametrize("name", ["W1", "H2"])
    def test_weak_equal_to_a_grid_point_is_unlicensed_there(self, name):
        # equal weak and strong records leave a zero denominator
        grid = np.geomspace(CFG.mu_prime_min, CFG.mu_prime_max, CFG.grid_points)
        cfg = replace(CFG, mu_fixed=float(grid[30]))
        link = cfg.link_for(50.0)
        point = _evaluate(cfg.scenario_kind(name), link, cfg, grid[30], basis_tables(link))
        assert point.reason == "bound_conditions"
        assert_batched_grid_matches(cfg, name, (50.0,))

    def test_follows_the_licensing_rule(self, monkeypatch):
        # no default grid point fails the coefficient check, so tighten the
        # tolerance until every point does; the patched tolerance must not
        # leak into cached grid weights other tests read
        monkeypatch.setattr(decoy, "COEFF_REL_TOL", -math.inf)
        monkeypatch.setattr(keyrate, "COEFF_REL_TOL", -math.inf)
        keyrate._grid_weights.cache_clear()
        try:
            points = assert_batched_grid_matches(CFG, "H1", (50.0,))
        finally:
            keyrate._grid_weights.cache_clear()
        assert {p.reason for p in points} == {"bound_conditions"}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_past_the_last_key_bearing_distance(self, name):
        # every default curve has stopped yielding key by 350 km, and
        # several scenarios have grid points with no e11 bound there
        points = assert_batched_grid_matches(CFG, name, (350.0,))
        assert {p.reason for p in points} == {"no_positive_rate"}


def bowl(x):
    return (x - 0.3) ** 2 + 1.0


def walled(x):
    # infinite beyond 0.8, as the optimizer's cost is wherever a point is invalid
    return math.inf if x > 0.8 else math.cosh(x - 0.25)


def traced(fn):
    """fn, and the list of the points it is evaluated at, in call order."""
    calls = []

    def wrapped(x):
        calls.append(float(x))
        return fn(x)

    return wrapped, calls


def golden_runs(fn, bracket, xtol, maxiter):
    """(result or the ValueError raised, evaluated points) of the port and of scipy."""
    runs = []
    for solve in (
        lambda f: runner._golden_section(f, bracket, xtol, maxiter),
        lambda f: float(sciopt.minimize_scalar(
            f, bracket=bracket, method="golden", options={"xtol": xtol, "maxiter": maxiter}
        ).x),
    ):
        f, calls = traced(fn)
        try:
            outcome = solve(f)
        except ValueError as exc:
            outcome = exc
        runs.append((outcome, calls))
    return runs


class TestGoldenSection:
    @pytest.mark.parametrize("fn, bracket, xtol, maxiter", [
        (bowl, (-1.0, 0.0, 2.0), 1e-4, 200),
        (bowl, (2.0, 0.0, -1.0), 1e-4, 200),  # reversed
        (bowl, (-3.0, 0.5, 0.7), 1e-8, 200),  # first interior point below the middle
        (walled, (-1.0, 0.0, 1.0), 1e-6, 200),  # inf at an end
        (walled, (-1.0, 0.7, 5.0), 1e-6, 200),  # inf at interior points
        (bowl, (-1.0, 0.0, 2.0), 1e-12, 5),  # cut off by maxiter
        # interior points on both sides of 0 decide the first stop test
        (lambda x: x * x, (-1.0, -0.1, 1.0), 5.0, 200),
    ], ids=["bowl", "reversed", "left", "inf-end", "inf-interior", "maxiter", "straddle"])
    def test_matches_scipy(self, fn, bracket, xtol, maxiter):
        (x, calls), (ref_x, ref_calls) = golden_runs(fn, bracket, xtol, maxiter)
        assert x == ref_x
        assert calls == ref_calls

    @pytest.mark.parametrize("fn, bracket", [
        (bowl, (0.0, 2.0, 1.0)),  # middle point outside the ends
        (bowl, (-1.0, 2.0, 3.0)),  # middle point above an end
        (lambda x: 1.0, (-1.0, 0.0, 1.0)),  # flat
    ], ids=["unordered", "not-a-minimum", "flat"])
    def test_rejects_what_scipy_rejects(self, fn, bracket):
        (err, calls), (ref_err, ref_calls) = golden_runs(fn, bracket, 1e-4, 200)
        assert isinstance(err, runner._BracketError)
        assert isinstance(ref_err, ValueError)
        assert calls == ref_calls

    def test_a_bracket_failure_keeps_the_grid_best(self, monkeypatch):
        def no_bracket(*args, **kwargs):
            raise runner._BracketError("no minimum")

        link = CFG.link_for(100.0)
        scenario = CFG.scenario_kind("H1")
        grid = np.geomspace(CFG.mu_prime_min, CFG.mu_prime_max, CFG.grid_points)
        tables = basis_tables(link)
        best = int(np.argmax(rank_grid(scenario, link, CFG.mu_fixed, grid, tables)[0]))
        monkeypatch.setattr(runner, "_golden_section", no_bracket)
        point = optimize_mu_prime(scenario, link, CFG, tables)
        assert point.valid and point.mu_prime == grid[best]

    def test_other_value_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a bracket failure")

        monkeypatch.setattr(runner, "_golden_section", broken)
        with pytest.raises(ValueError, match="not a bracket failure"):
            optimize_mu_prime(CFG.scenario_kind("H1"), CFG.link_for(100.0), CFG)


class TestGrid:
    def test_built_once_per_bounds_and_size(self):
        cfg = replace(CFG, mu_prime_min=2e-4, mu_prime_max=1.25, grid_points=17)
        before = runner._grid.cache_info()
        for distance in (50.0, 60.0):
            optimize_mu_prime(cfg.scenario_kind("H1"), cfg.link_for(distance), cfg)
        after = runner._grid.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_values_are_those_of_geomspace_and_log(self):
        grid, logs = runner._grid(CFG.mu_prime_min, CFG.mu_prime_max, CFG.grid_points)
        expected = np.geomspace(CFG.mu_prime_min, CFG.mu_prime_max, CFG.grid_points)
        assert grid.tolist() == expected.tolist()
        assert logs.tolist() == np.log(expected).tolist()
        assert not grid.flags.writeable and not logs.flags.writeable


class TestImport:
    def test_import_loads_no_scipy(self):
        src = Path(runner.__file__).resolve().parents[1]
        code = (
            "import sys, mdiqkd; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestScan:
    def test_empty(self):
        assert scan(replace(CFG, distances=(), scenarios=("H1",))) == []

    def test_row_order_and_monotone_rates(self):
        cfg = replace(CFG, distances=(0.0, 50.0), scenarios=("W0", "H1"))
        points = scan(cfg)
        assert [(p.scenario, p.distance_km) for p in points] == [
            ("H1", 0.0), ("H1", 50.0), ("W0", 0.0), ("W0", 50.0),
        ]
        assert points[0].rate >= points[1].rate
        assert points[2].rate >= points[3].rate

    def test_duplicate_scenarios_collapse(self):
        cfg = replace(CFG, distances=(0.0,), scenarios=("W0", "W0"))
        assert len(scan(cfg)) == 1

    def test_tables_are_built_once_per_distance(self, monkeypatch):
        # the scan runs distance-major, yet keeps its rows by scenario, then in the
        # config's distance order, duplicates and all; each row is the one a lone
        # optimize_mu_prime call gives
        cfg = replace(CFG, distances=(50.0, 0.0, 50.0), scenarios=("W1", "H1", "W1"))
        built = []

        def spy(link):
            built.append(link.total_distance_km)
            return basis_tables(link)

        monkeypatch.setattr(runner, "basis_tables", spy)
        rows = scan(cfg)
        assert built == [50.0, 0.0, 50.0]
        expected = [
            optimize_mu_prime(cfg.scenario_kind(name), cfg.link_for(d), cfg)
            for name in ("H1", "W1") for d in cfg.distances
        ]
        assert [repr(row) for row in rows] == [repr(row) for row in expected]

    def test_default_scan_csv_is_byte_stable(self, default_rows):
        # every digit of every row of the default scan, as `mdiqkd scan` prints it
        text = emit_csv(default_rows)
        assert hashlib.md5(text.encode()).hexdigest() == "86fd30844b6bb162725878c6d4ad9329"

    def test_default_scan_reads_grid_rated_bracket_ends_from_the_grid(self, default_scan):
        # 7,228 scalar evaluations when every bracket end went through the scalar
        # point, and 6,754 since; the rows stay those of the byte-stable CSV above
        rows, seen = default_scan
        assert len(rows) == 7 * 61
        assert len(seen) < 7228
        assert len(seen) == 6754
        assert hashlib.md5(emit_csv(rows).encode()).hexdigest() == "86fd30844b6bb162725878c6d4ad9329"

    def test_reported_numbers_are_plain_floats(self, default_rows):
        # np.float64 is a float subclass that prints and compares alike, so
        # only its exact type tells it from a Python float
        def float_fields(record):
            return {f.name: getattr(record, f.name) for f in fields(record) if f.type == "float"}

        for row in default_rows:
            assert len(float_fields(row)) == 6
            assert all(type(v) is float for v in float_fields(row).values()), row
        # and so is every number of a bound on the records of one of those rows
        row = next(r for r in default_rows if r.scenario == "H1" and r.distance_km == 50.0)
        weak, strong = runner._scheme_pairs("H1", row.mu, row.mu_prime, CFG)
        tables = basis_tables(CFG.link_for(row.distance_km))
        gains = GainTable()
        for source, _ in (weak, strong):
            sides = [side_weights(replace(source, intensity=x), 8) for x in (source.intensity, 0.0)]
            for w_a in sides:
                for w_b in sides:
                    for table in tables:
                        gains.add(gain_from_yields(w_a, w_b, table))
        for basis in (Basis.Z, Basis.X):
            bound = decoy.y11_lower_bound(gains, weak, strong, basis, CFG.cutoff)
            assert bound.conditions_ok
            assert len(float_fields(bound)) == 5
            assert all(type(v) is float for v in float_fields(bound).values()), bound


SAMPLE_POINTS = [
    RatePoint(0.0, "H1", math.pi / 30, 0.5, 1e-2, 0.0857, 2.9e-5, True),
    RatePoint(5.0, "H1", 0.1, 1.0 / 3.0, 0.0, 0.0, 0.0, False, "bound_conditions"),
    RatePoint(0.0, "W0", 0.0, 0.3, 2e-2, 0.015, 3e-4, True),
]


class TestRateCsv:
    def test_empty(self):
        assert emit_csv([]) == RATE_HEADER + "\n"

    def test_shape(self):
        text = emit_csv(SAMPLE_POINTS[:1])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == RATE_HEADER
        assert lines[1].split(",")[1] == "H1"
        assert lines[1].split(",")[7] == "1"

    def test_round_trip(self):
        text = emit_csv(SAMPLE_POINTS)
        parsed = parse_rate_csv(text)
        # the reason column is not part of the format
        assert parsed == [replace(p, reason="") for p in SAMPLE_POINTS]
        assert emit_csv(parsed) == text

    def test_error_lines_count_blank_lines(self):
        # lines are numbered as the file numbers them: the bad row is line 5
        header, row = emit_csv(SAMPLE_POINTS[:1]).splitlines()
        text = "\n".join(["", header, row, "  ", "1,2,3"]) + "\n"
        with pytest.raises(ConfigError, match="^line 5: expected 8 columns, got 3$"):
            parse_rate_csv(text)
        assert parse_rate_csv(text.replace("1,2,3\n", "")) == parse_rate_csv(header + "\n" + row)

    def test_parse_rejects(self):
        with pytest.raises(ConfigError):
            parse_rate_csv("nope\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_rate_csv(RATE_HEADER + "\n1,2,3\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_rate_csv(RATE_HEADER + "\nx,H1,0,0.5,0,0,0,1\n")

    @pytest.mark.parametrize("row", [
        "0.0,H1,0.1,0.5,0.01,0.08,2e-05,7",
        "0.0,H1,0.1,0.5,0.01,0.08,2e-05,-1",
        "0.0,Q9,0.1,0.5,0.01,0.08,2e-05,1",
        "nan,H1,0.1,0.5,0.01,0.08,2e-05,1",
        "0.0,H1,0.1,inf,0.01,0.08,2e-05,1",
        "0.0,H1,0.1,0.5,0.01,0.08,-inf,1",
    ], ids=["valid-7", "valid-minus-1", "unknown-scenario", "nan-distance", "inf-mu-prime",
            "inf-rate"])
    def test_parse_rejects_rows_emit_csv_never_writes(self, row):
        with pytest.raises(ConfigError, match="line 3: "):
            parse_rate_csv(emit_csv(SAMPLE_POINTS[:1]) + row + "\n")

    def test_gnuplot_blocks(self):
        text = emit_csv(SAMPLE_POINTS, gnuplot=True)
        lines = text.splitlines()
        assert lines[0].startswith("# distance_km scenario")
        assert "# scenario: H1" in lines
        assert "# scenario: W0" in lines
        i = lines.index("# scenario: W0")
        assert lines[i - 2] == "" and lines[i - 1] == ""
        assert "," not in lines[-1]


class TestGainCsv:
    def make_gains(self):
        det = HeraldingDetector(0.75, 1e-6)
        gains = GainTable()
        tz = yield_table(CFG.link_for(0.0), Basis.Z)
        tx = yield_table(CFG.link_for(0.0), Basis.X)
        for cls, intensity in (
            (TriggerClass.TRIGGERED, 0.125),
            (TriggerClass.NON_TRIGGERED, 0.5),
        ):
            for xi in (intensity, 0.0):
                for yi in (intensity, 0.0):
                    w_a = side_weights(SourceSpec(DistributionKind.POISSON, xi, det, cls), 8)
                    w_b = side_weights(SourceSpec(DistributionKind.POISSON, yi, det, cls), 8)
                    gains.add(gain_from_yields(w_a, w_b, tz))
                    gains.add(gain_from_yields(w_a, w_b, tx))
        return gains

    def test_round_trip(self):
        gains = self.make_gains()
        text = emit_gain_csv(gains)
        assert text.splitlines()[0] == GAIN_HEADER
        parsed = parse_gain_csv(text)
        assert len(parsed) == len(gains)
        for rec in gains:
            back = parsed.get(rec.basis, rec.alice_intensity, rec.bob_intensity, rec.trigger_class)
            assert back.gain == rec.gain
            assert back.qber == rec.qber
            assert back.tail == 0.0
        assert emit_gain_csv(parsed) == text

    def test_parsed_records_are_plain_gain_records(self):
        # each parsed record is exactly the GainRecord its fields build by keyword,
        # with a zero tail
        gains = self.make_gains()
        parsed = parse_gain_csv(emit_gain_csv(gains))
        for rec in gains:
            back = parsed.get(rec.basis, rec.alice_intensity, rec.bob_intensity, rec.trigger_class)
            assert type(back) is GainRecord
            assert back == GainRecord(
                basis=rec.basis, alice_intensity=rec.alice_intensity,
                bob_intensity=rec.bob_intensity, trigger_class=rec.trigger_class,
                gain=rec.gain, qber=rec.qber,
            )
            assert back.tail == 0.0

    def test_error_lines_count_blank_lines(self):
        # a bad record on file line 5, after two blank lines, is reported as line 5
        lines = emit_gain_csv(self.make_gains()).splitlines()
        text = "\n".join([lines[0], lines[1], "", "  ", "Z,0.1,0.2,t,0.5"]) + "\n"
        with pytest.raises(ConfigError, match="^line 5: expected 6 columns, got 5$"):
            parse_gain_csv(text)
        # and a repeat after a blank line before the header
        text = "\n".join(["", lines[0], lines[1], "", lines[1]]) + "\n"
        with pytest.raises(ConfigError, match="^line 5: duplicate record"):
            parse_gain_csv(text)

    def test_parse_rejects(self):
        with pytest.raises(ConfigError):
            parse_gain_csv("nope\n")
        good = emit_gain_csv(self.make_gains()).splitlines()
        # codes are matched exactly: no padding, and no other case
        for column, code in ((3, "bogus"), (0, " Z"), (0, "z"), (3, "T")):
            corrupt = good[1].split(",")
            corrupt[column] = code
            with pytest.raises(ConfigError, match="line 2: bad value"):
                parse_gain_csv(good[0] + "\n" + ",".join(corrupt) + "\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_gain_csv(good[0] + "\n1,2,3\n")

    def corrupted(self, column: int, value: str) -> str:
        """A valid gain CSV whose second record has one column replaced."""
        lines = emit_gain_csv(self.make_gains()).splitlines()
        cols = lines[2].split(",")
        cols[column] = value
        lines[2] = ",".join(cols)
        return "\n".join(lines) + "\n"

    def test_rejects_gain_above_one(self):
        with pytest.raises(ConfigError, match=r"line 3: .* got [^,]*,[^,]*,2\.0,"):
            parse_gain_csv(self.corrupted(4, "2.0"))

    def test_rejects_negative_qber(self):
        with pytest.raises(ConfigError, match=r"line 3: .* got .*,-3$"):
            parse_gain_csv(self.corrupted(5, "-3"))

    @pytest.mark.parametrize("column", [1, 2, 4, 5])
    def test_rejects_nan(self, column):
        with pytest.raises(ConfigError, match="line 3: .* got .*nan"):
            parse_gain_csv(self.corrupted(column, "nan"))

    def test_rejects_negative_intensity(self):
        with pytest.raises(ConfigError, match="line 3: .* got [^,]*,-0.5,"):
            parse_gain_csv(self.corrupted(2, "-0.5"))

    def test_parsed_records_are_immutable(self):
        rec = next(iter(parse_gain_csv(emit_gain_csv(self.make_gains()))))
        with pytest.raises(AttributeError):
            rec.gain = 0.5

    def test_rejects_a_repeated_line(self):
        lines = emit_gain_csv(self.make_gains()).splitlines()
        text = "\n".join(lines[:4] + [lines[2]] + lines[4:]) + "\n"
        with pytest.raises(ConfigError, match="^line 5: duplicate record for basis, class, x and y$"):
            parse_gain_csv(text)

    def test_rejects_duplicate_record(self):
        lines = emit_gain_csv(self.make_gains()).splitlines()
        # same (basis, class, x, y) as line 2, different values
        cols = lines[1].split(",")
        cols[4] = "0.5"
        text = "\n".join(lines + [",".join(cols)]) + "\n"
        with pytest.raises(ConfigError, match=f"line {len(lines) + 1}: duplicate record"):
            parse_gain_csv(text)

    def test_parsed_table_finds_every_setting_by_its_exact_keys(self, monkeypatch):
        # parse_gain_csv builds GainTable's dict keys itself, as decoy._record_key does;
        # bound's fast path reads a setting's four records by those keys, so a parsed
        # table must answer every setting of a seeded H1 table without GainTable.get
        rng = np.random.default_rng(27)
        scenario = CFG.scenario_kind("H1")
        tables = basis_tables(CFG.link_for(50.0))
        gains, settings = GainTable(), []
        for cls in scenario.classes[1:]:
            for _ in range(3):
                x, y = rng.uniform(1e-3, 1.0, 2).tolist()
                sides = [[side_weights(SourceSpec(scenario.distribution, v, scenario.heralding,
                                                  cls), 8) for v in (i, 0.0)] for i in (x, y)]
                for table in tables:
                    for a in sides[0]:
                        for b in sides[1]:
                            gains.add(gain_from_yields(a, b, table))
                    settings.append((table.basis, x, y, cls))
        # the file carries no tail, so the parsed records are the table's with tail 0
        expected = [[rec._replace(tail=0.0) for rec in gains.setting(*s)] for s in settings]
        parsed = parse_gain_csv(emit_gain_csv(gains))

        def unused(*args):
            raise AssertionError("a parsed record key differs from GainTable's")

        monkeypatch.setattr(GainTable, "get", unused)
        assert [list(parsed.setting(*s)) for s in settings] == expected


class TestYieldCsv:
    def test_shape_and_values(self):
        table = yield_table(CFG.link_for(0.0), Basis.Z)
        text = emit_yield_csv(table)
        lines = text.splitlines()
        assert lines[0] == YIELD_HEADER
        assert len(lines) == 1 + 9 * 9
        cols = lines[1 + 9].split(",")  # row m=1, n=0
        assert cols[0] == "Z" and cols[1] == "1" and cols[2] == "0"
        assert float(cols[3]) == table.yields[1, 0]

    def test_headerless_append_mode(self):
        table = yield_table(CFG.link_for(0.0), Basis.X)
        text = emit_yield_csv(table, header=False)
        assert text.splitlines()[0].startswith("X,0,0,")


class TestCli:
    def scan_args(self, tmp_path, name):
        out = tmp_path / name
        return ["scan", "--scenario", "W0,H1", "--distances", "0:25:25", "--out", str(out)], out

    def test_scan_round_trip_and_determinism(self, tmp_path):
        args, out = self.scan_args(tmp_path, "a.csv")
        assert main(args) == 0
        first = out.read_text()
        points = parse_rate_csv(first)
        assert [(p.scenario, p.distance_km) for p in points] == [
            ("H1", 0.0), ("H1", 25.0), ("W0", 0.0), ("W0", 25.0),
        ]
        assert all(p.valid for p in points)
        args2, out2 = self.scan_args(tmp_path, "b.csv")
        assert main(args2) == 0
        assert out2.read_text() == first

    def test_scan_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "scan.cfg"
        cfg_path.write_text("distances = 0:0:5\nscenarios = W0\ngrid_points = 12\n")
        out = tmp_path / "out.csv"
        assert main(["scan", "--config", str(cfg_path), "--out", str(out)]) == 0
        expected = emit_csv(scan(parse_config(cfg_path.read_text())))
        assert out.read_text() == expected

    def test_yields_both_bases(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        assert main(["yields", "--distance", "0", "--basis", "both", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == YIELD_HEADER
        assert len(lines) == 1 + 2 * 81
        assert main(["yields", "--distance", "0", "--basis", "Z"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == YIELD_HEADER

    def test_bound_report(self, tmp_path, capsys):
        det = HeraldingDetector(0.75, 1e-6)
        gains = GainTable()
        tz = yield_table(CFG.link_for(0.0), Basis.Z)
        tx = yield_table(CFG.link_for(0.0), Basis.X)
        for cls, intensity in (
            (TriggerClass.TRIGGERED, 0.125),
            (TriggerClass.NON_TRIGGERED, 0.5),
        ):
            for xi in (intensity, 0.0):
                for yi in (intensity, 0.0):
                    w_a = side_weights(SourceSpec(DistributionKind.POISSON, xi, det, cls), 8)
                    w_b = side_weights(SourceSpec(DistributionKind.POISSON, yi, det, cls), 8)
                    gains.add(gain_from_yields(w_a, w_b, tz))
                    gains.add(gain_from_yields(w_a, w_b, tx))
        path = tmp_path / "gains.csv"
        path.write_text(emit_gain_csv(gains))
        cfg = tmp_path / "h1.cfg"
        cfg.write_text("eta_heralding_H1 = 0.75\n")  # the detector the records were built at
        code = main([
            "bound", "--config", str(cfg), "--gains", str(path), "--scheme", "H1",
            "--mu", "0.125", "--mu-prime", "0.5", "--basis", "Z",
        ])
        assert code == 0
        report = dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines()
        )
        assert report["conditions_ok"] == "1"
        assert math.isclose(float(report["y11_lower"]), 0.01028768762579957, rel_tol=1e-12)
        assert math.isclose(float(report["e11_upper"]), 0.0857685842221162, rel_tol=1e-12)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("scheme, kind, heralding, weak_cls, strong_cls", [
        ("H2", DistributionKind.POISSON, HeraldingDetector(0.75, 1e-6),
         TriggerClass.TRIGGERED, TriggerClass.TRIGGERED),
        ("W1", DistributionKind.POISSON, None, TriggerClass.ALL, TriggerClass.ALL),
        ("T1", DistributionKind.THERMAL, HeraldingDetector(0.75, 1e-6),
         TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED),
    ])
    def test_bound_report_per_scheme(
        self, scheme, kind, heralding, weak_cls, strong_cls, basis, tmp_path, capsys
    ):
        weak = (SourceSpec(kind, 0.125, heralding, weak_cls),) * 2
        strong = (SourceSpec(kind, 0.5, heralding, strong_cls),) * 2
        tables = [yield_table(CFG.link_for(80.0), b) for b in (Basis.Z, Basis.X)]
        gains = GainTable()
        for source, _ in (weak, strong):
            sides = [side_weights(replace(source, intensity=x), 8) for x in (source.intensity, 0.0)]
            for w_a in sides:
                for w_b in sides:
                    for table in tables:
                        gains.add(gain_from_yields(w_a, w_b, table))
        path = tmp_path / "gains.csv"
        path.write_text(emit_gain_csv(gains))
        assert main([
            "bound", "--gains", str(path), "--scheme", scheme,
            "--mu", "0.125", "--mu-prime", "0.5", "--basis", basis,
        ]) == 0
        report = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        bound = decoy.y11_lower_bound(gains, weak, strong, Basis(basis), 8)
        bound_x = decoy.y11_lower_bound(gains, weak, strong, Basis.X, 8)
        e11 = decoy.e11_upper_bound(
            gains, weak, strong,
            decoy.single_pair_gain(weak, bound_x.value),
            decoy.single_pair_gain(strong, bound_x.value),
        )
        assert bound.conditions_ok and bound_x.conditions_ok
        assert report == {
            "y11_lower": repr(bound.value),
            "k_factor": repr(bound.k_factor),
            "denominator": repr(bound.denominator),
            "conditions_ok": "1",
            "coefficient_margin": repr(bound.coefficient_margin),
            "clamped": str(int(bound.clamped)),
            "e11_upper": repr(e11),
        }

    @pytest.mark.parametrize("distance", [0.0, 50.0, 150.0])
    @pytest.mark.parametrize("scheme, kind, heralding, weak_cls, strong_cls", [
        ("H1", DistributionKind.POISSON, HeraldingDetector(0.9, 1e-6),
         TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED),
        ("H2", DistributionKind.POISSON, HeraldingDetector(0.75, 1e-6),
         TriggerClass.TRIGGERED, TriggerClass.TRIGGERED),
        ("W1", DistributionKind.POISSON, None, TriggerClass.ALL, TriggerClass.ALL),
        ("T1", DistributionKind.THERMAL, HeraldingDetector(0.75, 1e-6),
         TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED),
    ], ids=["H1", "H2", "W1", "T1"])
    def test_bound_reproduces_the_scan_row(
        self, scheme, kind, heralding, weak_cls, strong_cls, distance, tmp_path, capsys
    ):
        # bound on the records an optimized default row was computed from
        # reports that row's own Y11 and e11 bounds
        link = CFG.link_for(distance)
        row = optimize_mu_prime(CFG.scenario_kind(scheme), link, CFG)
        assert row.valid
        tables = [yield_table(link, b) for b in (Basis.Z, Basis.X)]
        gains = GainTable()
        for intensity, cls in ((row.mu, weak_cls), (row.mu_prime, strong_cls)):
            sides = [side_weights(SourceSpec(kind, x, heralding, cls), 8) for x in (intensity, 0.0)]
            for w_a in sides:
                for w_b in sides:
                    for table in tables:
                        gains.add(gain_from_yields(w_a, w_b, table))
        path = tmp_path / "gains.csv"
        path.write_text(emit_gain_csv(gains))
        assert main([
            "bound", "--gains", str(path), "--scheme", scheme,
            "--mu", repr(row.mu), "--mu-prime", repr(row.mu_prime),
        ]) == 0
        report = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert report["y11_lower"] == repr(row.y11_bound)
        assert report["e11_upper"] == repr(row.e11_bound)

    def test_bound_builds_one_setting_pair_plan(self, tmp_path, monkeypatch, capsys):
        # the Z and X bounds share the settings' weights and coefficients: one
        # call builds each setting's (symmetric) sides once, through the weight
        # helper side_weights shares, and calls y11_coefficients once
        path = tmp_path / "gains.csv"
        path.write_text(emit_gain_csv(TestGainCsv().make_gains()))
        cfg = tmp_path / "h1.cfg"
        cfg.write_text("eta_heralding_H1 = 0.75\n")
        calls = {"_side_terms": 0, "y11_coefficients": 0}
        for name in calls:
            def spy(*args, _name=name, _original=getattr(decoy, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(decoy, name, spy)
        monkeypatch.setattr(decoy, "_last_pair", None)
        assert main([
            "bound", "--config", str(cfg), "--gains", str(path), "--scheme", "H1",
            "--mu", "0.125", "--mu-prime", "0.5", "--basis", "Z",
        ]) == 0
        assert "e11_upper = " in capsys.readouterr().out
        assert calls == {"_side_terms": 2, "y11_coefficients": 1}

    def test_bound_without_x_records_reports_the_yield_only(self, tmp_path, monkeypatch, capsys):
        # the same report as on the full file, less its e11 line; whether X records
        # exist is read off the table's keys, without iterating its sorted records
        gains = TestGainCsv().make_gains()
        full, z_only = tmp_path / "gains.csv", tmp_path / "z.csv"
        full.write_text(emit_gain_csv(gains))
        z_only.write_text(emit_gain_csv(GainTable(r for r in gains if r.basis is Basis.Z)))
        cfg = tmp_path / "h1.cfg"
        cfg.write_text("eta_heralding_H1 = 0.75\n")
        monkeypatch.setattr(GainTable, "__iter__", None)
        reports = []
        for path in (full, z_only):
            assert main([
                "bound", "--config", str(cfg), "--gains", str(path), "--scheme", "H1",
                "--mu", "0.125", "--mu-prime", "0.5", "--basis", "Z",
            ]) == 0
            reports.append(capsys.readouterr().out.splitlines())
        assert reports[0][-1].startswith("e11_upper = ")
        assert reports[1] == reports[0][:-1]

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_bound_rejects_ambiguous_records(self, basis, tmp_path, capsys):
        # a weak intensity off every record by float noise matches both the
        # record at 0.125 and a near-duplicate added below, in either basis
        det = HeraldingDetector(0.75, 1e-6)
        gains = GainTable()
        tables = [yield_table(CFG.link_for(0.0), b) for b in (Basis.Z, Basis.X)]
        for cls, intensity in (
            (TriggerClass.TRIGGERED, 0.125),
            (TriggerClass.NON_TRIGGERED, 0.5),
        ):
            for xi in (intensity, 0.0):
                for yi in (intensity, 0.0):
                    w_a = side_weights(SourceSpec(DistributionKind.POISSON, xi, det, cls), 8)
                    w_b = side_weights(SourceSpec(DistributionKind.POISSON, yi, det, cls), 8)
                    for table in tables:
                        gains.add(gain_from_yields(w_a, w_b, table))
        near = gains.get(Basis(basis), 0.125, 0.125, TriggerClass.TRIGGERED)
        gains.add(near._replace(alice_intensity=0.125 * (1.0 + 2e-12)))
        path = tmp_path / "gains.csv"
        path.write_text(emit_gain_csv(gains))
        code = main([
            "bound", "--gains", str(path), "--scheme", "H1",
            "--mu", repr(0.125 * (1.0 + 1e-12)), "--mu-prime", "0.5", "--basis", "Z",
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert "ambiguous gain record" in err and f"basis={basis}" in err
        # the Z report is written before any X record is read, and nothing on a Z error
        keys = [line.split(" = ")[0] for line in out.splitlines()]
        if basis == "X":
            assert keys == ["y11_lower", "k_factor", "denominator", "conditions_ok",
                            "coefficient_margin", "clamped"]
            assert "conditions_ok = 1" in out.splitlines()
        else:
            assert out == ""

    def test_optimize_report(self, capsys):
        assert main(["optimize", "--scenario", "H1", "--distance", "50"]) == 0
        report = dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines()
        )
        assert report["scenario"] == "H1"
        assert report["valid"] == "1"
        assert math.isclose(float(report["rate"]), 2.3791065492533448e-05, rel_tol=1e-9)

    def test_error_exits(self, tmp_path, capsys):
        assert main(["bound", "--gains", str(tmp_path / "missing.csv"),
                     "--mu", "0.1", "--mu-prime", "0.5"]) == 2
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("alpha = -1\n")
        assert main(["scan", "--config", str(bad_cfg)]) == 2
        assert main(["optimize", "--scenario", "Q9", "--distance", "0"]) == 2
        assert main(["scan", "--cutoff", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 4

    @pytest.mark.parametrize("argv", [
        ["scan", "--config", "{dir}"],
        ["bound", "--gains", "{dir}", "--mu", "0.1", "--mu-prime", "0.5"],
        ["scan", "--config", "{not_utf8}"],
    ], ids=["config-directory", "gains-directory", "config-not-utf8"])
    def test_unreadable_files_exit(self, argv, tmp_path, capsys):
        not_utf8 = tmp_path / "bytes.cfg"
        not_utf8.write_bytes(b"\xff\xfe")
        argv = [a.format(dir=tmp_path, not_utf8=not_utf8) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["scan", "--config", "{path}"],
        ["bound", "--gains", "{path}", "--mu", "0.1", "--mu-prime", "0.5"],
    ], ids=["config", "gains"])
    def test_non_utf8_file_exits_naming_its_path(self, argv, tmp_path, capsys):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"ok\xff\xfe")
        assert main([a.format(path=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 (invalid start byte at byte 2)\n"

    @pytest.mark.parametrize("command", ["yields", "optimize"])
    @pytest.mark.parametrize("distance", ["-5", "nan", "inf"])
    def test_distance_flag_rejects_what_no_link_has(self, command, distance, capsys):
        scenario = ["--scenario", "H1"] if command == "optimize" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--distance", distance] + scenario)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --distance: must be finite and >= 0" in captured.err

    def test_distances_flag_rejects_non_finite_parts(self, capsys):
        assert main(["scan", "--distances", "0:inf:5"]) == 2
        assert capsys.readouterr().err.startswith("error: distances must be finite")

    def test_cutoff_flag_above_the_relay_cap_exits(self, capsys):
        assert main(["yields", "--distance", "10", "--cutoff", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cutoff must lie in [2, 8], got 9\n"

    def test_config_cutoff_above_the_relay_cap_exits(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("alpha = 0.2\ncutoff = 12\n")
        assert main(["optimize", "--config", str(cfg), "--scenario", "H1",
                     "--distance", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: cutoff must lie in [2, 8], got 12\n"

    @pytest.mark.parametrize("line, message", [
        ("alpha = nan", "line 2: alpha must be finite, got nan"),
        ("f = nan", "line 2: f must be finite, got nan"),
        ("mu_prime_min = nan", "line 2: mu_prime_min must be finite, got nan"),
        ("refine_tol = nan", "line 2: refine_tol must be finite, got nan"),
        ("mu_prime_min = 2.0", "mu_prime_min must be below mu_prime_max, got 2.0 and 1.5"),
    ], ids=["alpha", "f", "mu_prime_min", "refine_tol", "inverted-grid"])
    def test_config_rejects_what_no_scan_can_use(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"scenarios = H1\n{line}\n")
        assert main(["scan", "--config", str(cfg), "--distances", "0:0:5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, value", [
        ("--mu", "nan"), ("--mu", "-1"), ("--mu", "inf"),
        ("--mu-prime", "nan"), ("--mu-prime", "-1"),
    ])
    def test_bound_intensity_flags_reject_what_no_source_has(self, tmp_path, capsys, flag, value):
        gains = tmp_path / "gains.csv"
        gains.write_text(GAIN_HEADER + "\n")
        intensities = {"--mu": "0.1", "--mu-prime": "0.5", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--gains", str(gains)] + [t for kv in intensities.items() for t in kv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be finite and >= 0, got {float(value)!r}" in captured.err
