"""Relay model: beamsplitter statistics, outcome classification, yields."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from _oracles import (
    binom_row_oracle,
    bs_probs_oracle,
    outcome_probs_oracle,
    pattern_probs_oracle,
    relay_probs_oracle,
    single_pair_tables_reference,
    yield_cell_oracle,
)
from mdiqkd import optics
from mdiqkd.optics import (
    BASIS_STATES,
    SAFETY_CAP,
    STATE_BIT,
    Basis,
    BB84State,
    BsmOutcome,
    LinkSpec,
    _BASIS_OF,
    _pair_tables,
    _thin_matrix,
    bs_output,
    bsm_outcome_distribution,
    thin,
    yield_table,
)

# lossless link: unit relay efficiency, no dark counts, no misalignment
IDEAL = LinkSpec(0.0, relay_efficiency=1.0, relay_dark_rate=0.0, misalignment=0.0)
DEFAULT = LinkSpec(100.0)


class TestLinkSpec:
    def test_survival_combines_fibre_and_relay(self):
        link = LinkSpec(100.0, attenuation_db_per_km=0.2, relay_efficiency=0.145)
        # half the span per side: 50 km at 0.2 dB/km is one order of magnitude
        assert math.isclose(link.survival, 0.0145, rel_tol=1e-12)
        assert math.isclose(IDEAL.survival, 1.0, rel_tol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(-1.0)
        with pytest.raises(ValueError):
            LinkSpec(10.0, relay_efficiency=1.2)
        with pytest.raises(ValueError):
            LinkSpec(10.0, misalignment=-0.1)
        with pytest.raises(ValueError):
            LinkSpec(10.0, cutoff=0)
        # a float cutoff is no count, even a whole one; a numpy integer is
        with pytest.raises(ValueError, match="cutoff must be a positive integer, got 8.0"):
            LinkSpec(10.0, cutoff=8.0)
        assert LinkSpec(10.0, cutoff=np.int64(8)) == LinkSpec(10.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_a_non_finite_distance_or_attenuation(self, value):
        with pytest.raises(ValueError, match="distance must be finite"):
            LinkSpec(value)
        with pytest.raises(ValueError, match="attenuation must be finite"):
            LinkSpec(10.0, attenuation_db_per_km=value)


# survival exactly 0 and 1, the extremes next to them, and seeded random values
THIN_SURVIVALS = (0.0, 1.0, 1e-9, 1.0 - 1e-9, *np.random.default_rng(11).random(6).tolist())

# scipy's binomial pmf strays from the exact value by up to about 300 ulps
# (7e-14 relative) at m <= SAFETY_CAP, where the closed form stays within 4
SCIPY_BINOM_RTOL = 1e-12


def exact_binom_row(m: int, survival: float) -> list[float]:
    """C(m, k) s^k (1 - s)^(m - k) in rational arithmetic, rounded once."""
    s = Fraction(survival)
    return [float(math.comb(m, k) * s**k * (1 - s) ** (m - k)) for k in range(m + 1)]


class TestThin:
    def test_lossless_identity(self):
        assert np.allclose(thin(2, 1.0), [0.0, 0.0, 1.0], atol=1e-15)

    def test_bernoulli_case(self):
        assert np.allclose(thin(1, 0.3), [0.7, 0.3], atol=1e-12)

    def test_three_photon_half(self):
        assert np.allclose(thin(3, 0.5), [0.125, 0.375, 0.375, 0.125], atol=1e-12)

    def test_matches_comb_oracle(self):
        for m in range(11):
            for s in (0.0, 0.145, 0.5, 0.9, 1.0):
                assert np.allclose(thin(m, s), binom_row_oracle(m, s), atol=1e-13)

    @pytest.mark.parametrize("survival", THIN_SURVIVALS)
    def test_matches_exact_and_scipy_binomials(self, survival):
        for m in range(SAFETY_CAP + 1):
            got = thin(m, survival)
            np.testing.assert_array_max_ulp(got, binom_row_oracle(m, survival), maxulp=4)
            np.testing.assert_array_max_ulp(got, exact_binom_row(m, survival), maxulp=8)
            np.testing.assert_allclose(
                got, binom.pmf(np.arange(m + 1), m, survival), rtol=SCIPY_BINOM_RTOL, atol=0.0
            )

    @pytest.mark.parametrize("survival", THIN_SURVIVALS)
    def test_matrix_rows_are_thin(self, survival):
        table = _thin_matrix(SAFETY_CAP, survival)
        assert table.shape == (SAFETY_CAP + 1, SAFETY_CAP + 1)
        for m in range(SAFETY_CAP + 1):
            np.testing.assert_array_equal(table[m, : m + 1], thin(m, survival))
            assert not table[m, m + 1:].any()

    def test_domain(self):
        with pytest.raises(ValueError):
            thin(-1, 0.5)
        with pytest.raises(ValueError):
            thin(2, 1.5)


class TestBsOutput:
    def test_two_photon_interference(self):
        out = bs_output(1, 1)
        assert out.get((1, 1), 0.0) == 0.0
        assert math.isclose(out[(2, 0)], 0.5, abs_tol=1e-12)
        assert math.isclose(out[(0, 2)], 0.5, abs_tol=1e-12)

    def test_single_photon_splits_evenly(self):
        out = bs_output(1, 0)
        assert set(out) == {(1, 0), (0, 1)}
        assert math.isclose(out[(1, 0)], 0.5, abs_tol=1e-12)
        assert math.isclose(out[(0, 1)], 0.5, abs_tol=1e-12)

    def test_two_photons_one_arm(self):
        out = bs_output(2, 0)
        assert math.isclose(out[(2, 0)], 0.25, abs_tol=1e-12)
        assert math.isclose(out[(1, 1)], 0.5, abs_tol=1e-12)
        assert math.isclose(out[(0, 2)], 0.25, abs_tol=1e-12)

    def test_conservation(self):
        for j in range(7):
            for k in range(7 - j):
                out = bs_output(j, k)
                assert math.isclose(sum(out.values()), 1.0, abs_tol=1e-12)
                assert all(p + q == j + k for p, q in out)

    def test_matches_operator_expansion_oracle(self):
        for j in range(9):
            for k in range(9 - j):
                got = bs_output(j, k)
                want = bs_probs_oracle(j, k)
                assert set(got) == set(want)
                for key, val in want.items():
                    assert math.isclose(got[key], val, rel_tol=1e-11, abs_tol=1e-13)

    def test_domain_and_cap(self):
        with pytest.raises(ValueError):
            bs_output(-1, 0)
        with pytest.raises(ValueError):
            bs_output(9, 8)


class TestBsmOutcomeDistribution:
    def test_orthogonal_pair_always_announces(self):
        out = bsm_outcome_distribution(1, 1, BB84State.H, BB84State.V, IDEAL)
        assert math.isclose(out[BsmOutcome.FAIL], 0.0, abs_tol=1e-12)
        assert math.isclose(
            out[BsmOutcome.PSI_PLUS] + out[BsmOutcome.PSI_MINUS], 1.0, abs_tol=1e-12
        )

    def test_identical_pair_bunches_into_failure(self):
        out = bsm_outcome_distribution(1, 1, BB84State.H, BB84State.H, IDEAL)
        assert math.isclose(out[BsmOutcome.FAIL], 1.0, abs_tol=1e-12)

    def test_empty_pulses_without_dark_counts(self):
        out = bsm_outcome_distribution(0, 0, BB84State.H, BB84State.V, IDEAL)
        assert out[BsmOutcome.FAIL] == 1.0

    def test_distribution_sums_to_one(self):
        for m in range(9):
            for n in range(9 - m):
                out = bsm_outcome_distribution(m, n, BB84State.PLUS, BB84State.MINUS, DEFAULT)
                assert math.isclose(sum(out.values()), 1.0, abs_tol=1e-12)
                assert all(v >= -1e-15 for v in out.values())

    def test_cap_and_domain(self):
        with pytest.raises(ValueError):
            bsm_outcome_distribution(-1, 0, BB84State.H, BB84State.V, DEFAULT)
        with pytest.raises(ValueError):
            bsm_outcome_distribution(9, 8, BB84State.H, BB84State.V, DEFAULT)

    def test_matches_polynomial_oracle(self):
        links = [
            IDEAL,
            LinkSpec(60.0, relay_efficiency=0.145, relay_dark_rate=3e-6, misalignment=0.015),
            LinkSpec(20.0, relay_efficiency=0.4, relay_dark_rate=1e-4, misalignment=0.1),
        ]
        pairs = [
            (BB84State.H, BB84State.H),
            (BB84State.H, BB84State.V),
            (BB84State.V, BB84State.H),
            (BB84State.PLUS, BB84State.PLUS),
            (BB84State.PLUS, BB84State.MINUS),
            (BB84State.MINUS, BB84State.PLUS),
        ]
        for link in links:
            for sa, sb in pairs:
                for m in range(4):
                    for n in range(4):
                        got = bsm_outcome_distribution(m, n, sa, sb, link)
                        plus, minus = outcome_probs_oracle(
                            m, n, sa, sb, link.survival, link.misalignment, link.relay_dark_rate
                        )
                        assert math.isclose(
                            got[BsmOutcome.PSI_PLUS], plus, rel_tol=1e-11, abs_tol=1e-14
                        )
                        assert math.isclose(
                            got[BsmOutcome.PSI_MINUS], minus, rel_tol=1e-11, abs_tol=1e-14
                        )

    def test_full_photon_counts_match_relay_oracle(self):
        # unit survival makes the thinning the identity, so each call reads
        # one cell of the relay's pair tables out to the cutoff's photon counts
        link = LinkSpec(0.0, relay_efficiency=1.0, relay_dark_rate=2e-3, misalignment=0.07)
        assert link.survival == 1.0
        pairs = [
            (BB84State.H, BB84State.H),
            (BB84State.H, BB84State.V),
            (BB84State.V, BB84State.H),
            (BB84State.PLUS, BB84State.PLUS),
            (BB84State.PLUS, BB84State.MINUS),
            (BB84State.MINUS, BB84State.PLUS),
        ]
        for sa, sb in pairs:
            for m, n in ((8, 8), (8, 0), (0, 8), (5, 3), (4, 7)):
                got = bsm_outcome_distribution(m, n, sa, sb, link)
                plus, minus = relay_probs_oracle(
                    m, n, sa, sb, link.misalignment, link.relay_dark_rate
                )
                assert math.isclose(
                    got[BsmOutcome.PSI_PLUS], plus, rel_tol=1e-11, abs_tol=1e-14
                ), (sa, sb, m, n)
                assert math.isclose(
                    got[BsmOutcome.PSI_MINUS], minus, rel_tol=1e-11, abs_tol=1e-14
                ), (sa, sb, m, n)


    def test_reads_the_cutoff_table_yield_table_cached(self):
        # a relay no other test uses, so its tables are not cached yet
        link = LinkSpec(30.0, relay_dark_rate=7e-6, misalignment=0.0123)
        yield_table(link, Basis.X)
        before = _pair_tables.cache_info()
        for sa, sb in ((BB84State.PLUS, BB84State.MINUS), (BB84State.MINUS, BB84State.MINUS)):
            for m, n in ((0, 0), (1, 1), (3, 2), (8, 8)):
                bsm_outcome_distribution(m, n, sa, sb, link)
        after = _pair_tables.cache_info()
        assert after.misses == before.misses
        assert after.currsize == before.currsize


class TestPairTables:
    # dark-count-dominated cells: at most two photons at realistic dark
    # rates, where an inclusion-exclusion over vacuum probabilities cancels
    # O(1) terms and lands about 1e-9 off on one-photon cells
    @pytest.mark.parametrize("dark_rate", (1e-7, 1e-5))
    @pytest.mark.parametrize("misalignment", (0.0, 0.015, 1.0))
    def test_few_photon_cells_match_relay_oracle(self, dark_rate, misalignment):
        for sa in BB84State:
            for sb in BB84State:
                tables = _pair_tables(
                    _BASIS_OF[sa], _BASIS_OF[sb],
                    misalignment, dark_rate, 2, 2,
                )
                plus_tab, minus_tab = (tab[STATE_BIT[sa], STATE_BIT[sb]] for tab in tables)
                for k_a in range(3):
                    for k_b in range(3 - k_a):
                        plus, minus = relay_probs_oracle(
                            k_a, k_b, sa, sb, misalignment, dark_rate
                        )
                        assert math.isclose(
                            plus_tab[k_a, k_b], plus, rel_tol=1e-12, abs_tol=0.0
                        ), (sa, sb, k_a, k_b)
                        assert math.isclose(
                            minus_tab[k_a, k_b], minus, rel_tol=1e-12, abs_tol=0.0
                        ), (sa, sb, k_a, k_b)

    def test_batched_tables_equal_the_single_pair_reference_bit_for_bit(self):
        # every state pair of every basis batch rounds as its own single-pair table did;
        # 100 relays run through all 49 pairs of caps 2..8
        rng = np.random.default_rng(12)
        batches = [(BASIS_STATES[a], BASIS_STATES[b]) for a in Basis for b in Basis]
        for relay in range(100):
            misalignment = (0.0, 1.0)[relay] if relay < 2 else float(rng.uniform(0.0, 0.1))
            dark_rate = float(np.exp(rng.uniform(np.log(1e-8), np.log(1e-4))))
            cap_a, cap_b = 2 + relay % 7, 2 + relay // 7 % 7
            for states_a, states_b in batches:
                plus, minus = _pair_tables.__wrapped__(
                    states_a, states_b, misalignment, dark_rate, cap_a, cap_b
                )
                for i, sa in enumerate(states_a):
                    for j, sb in enumerate(states_b):
                        want_plus, want_minus = single_pair_tables_reference(
                            sa, sb, misalignment, dark_rate, cap_a, cap_b
                        )
                        where = (relay, sa, sb)
                        assert np.array_equal(plus[i, j], want_plus), where
                        assert np.array_equal(minus[i, j], want_minus), where

    def test_tables_at_every_cap_shape_equal_the_single_pair_reference_bit_for_bit(self):
        # the caps bsm_outcome_distribution reaches beyond the cutoff: empty, one-sided,
        # lopsided and (8, 8), whose (8, 8, 8) groups have nine terms and so a tail of
        # eight that numpy sums pairwise; with misalignment 0 and 1 and no dark counts
        coeff, _, _, starts, _, _, _ = optics._pattern_terms(8, 8)
        assert np.diff(starts, append=len(coeff)).max() == 9
        caps = ((0, 0), (1, 1), (16, 0), (0, 16), (1, 15), (9, 7), (12, 4), (8, 8))
        rng = np.random.default_rng(29)
        batches = [(BASIS_STATES[a], BASIS_STATES[b]) for a in Basis for b in Basis]
        for cap_a, cap_b in caps:
            relays = [(0.0, 0.0), (1.0, 0.0), (0.0, 3e-6), (1.0, 1e-4)]
            relays.append((float(rng.uniform(0.0, 0.1)), float(10.0 ** rng.uniform(-8.0, -4.0))))
            for misalignment, dark_rate in relays:
                for states_a, states_b in batches:
                    plus, minus = _pair_tables.__wrapped__(
                        states_a, states_b, misalignment, dark_rate, cap_a, cap_b
                    )
                    for i, sa in enumerate(states_a):
                        for j, sb in enumerate(states_b):
                            want_plus, want_minus = single_pair_tables_reference(
                                sa, sb, misalignment, dark_rate, cap_a, cap_b
                            )
                            where = (cap_a, cap_b, misalignment, dark_rate, sa, sb)
                            assert np.array_equal(plus[i, j], want_plus), where
                            assert np.array_equal(minus[i, j], want_minus), where


class TestOracleMemo:
    @pytest.mark.parametrize("basis", list(Basis))
    def test_cached_oracles_equal_their_originals(self, basis):
        rng = np.random.default_rng(7)
        relay, pattern = relay_probs_oracle, pattern_probs_oracle
        for _ in range(3):
            misalignment = float(rng.uniform(0.005, 0.03))
            dark = float(np.exp(rng.uniform(np.log(1e-7), np.log(1e-5))))
            for sa in BASIS_STATES[basis]:
                for sb in BASIS_STATES[basis]:
                    for k_a in range(3):
                        for k_b in range(3):
                            args = (k_a, k_b, sa, sb, misalignment, dark)
                            for _ in range(2):  # a miss, then a hit
                                assert relay(*args) == relay.__wrapped__(*args)
            for _ in range(20):
                occ = tuple(int(k) for k in rng.integers(0, 3, size=4))
                for _ in range(2):
                    assert pattern(occ, dark) == pattern.__wrapped__(occ, dark)


class TestYieldTable:
    def test_both_bases_share_one_thinning_matrix(self):
        # a survival no other test uses: the Z and X tables of one link thin through
        # one matrix, built once for the link, not one matrix per basis
        before = _thin_matrix.cache_info()
        link = LinkSpec(41.3, cutoff=6)
        yield_table(link, Basis.Z)
        yield_table(link, Basis.X)
        after = _thin_matrix.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1

    def test_alice_half_is_shared_by_every_relay_setting(self):
        # relay settings no other test uses: each computes new pair tables, all on
        # Alice's one relay-independent half of its basis and caps
        plans, tables = optics._term_plan.cache_info(), _pair_tables.cache_info()
        for dark_rate in (1.1e-6, 1.2e-6, 1.3e-6):
            yield_table(LinkSpec(20.0, relay_dark_rate=dark_rate, misalignment=0.0177), Basis.Z)
        assert _pair_tables.cache_info().misses - tables.misses == 3
        after = optics._term_plan.cache_info()
        assert after.misses - plans.misses <= 1
        assert after.hits + after.misses - plans.hits - plans.misses == 3

    def test_single_pair_lossless_values(self):
        for basis in (Basis.Z, Basis.X):
            table = yield_table(IDEAL, basis)
            assert math.isclose(table.yields[1, 1], 0.5, abs_tol=1e-12)
            assert math.isclose(table.errors[1, 1], 0.0, abs_tol=1e-12)

    def test_one_photon_cannot_double_click(self):
        table = yield_table(LinkSpec(80.0, relay_dark_rate=0.0), Basis.Z)
        assert table.yields[1, 0] == 0.0
        assert table.yields[0, 1] == 0.0

    def test_dark_count_floor(self):
        d = 3e-6
        table = yield_table(LinkSpec(0.0, relay_dark_rate=d), Basis.Z)
        expect = 4.0 * d * d * (1.0 - d) ** 2
        assert math.isclose(table.yields[0, 0], expect, rel_tol=1e-12)
        assert math.isclose(table.errors[0, 0], 0.5, rel_tol=1e-12)

    def test_z_errors_vanish_without_noise(self):
        table = yield_table(
            LinkSpec(50.0, relay_dark_rate=0.0, misalignment=0.0, cutoff=4), Basis.Z
        )
        for m in range(5):
            for n in range(5):
                if table.yields[m, n] > 0.0:
                    assert table.errors[m, n] == 0.0

    def test_symmetric_without_misalignment(self):
        table = yield_table(LinkSpec(60.0, misalignment=0.0), Basis.X)
        assert np.allclose(table.yields, table.yields.T, atol=1e-15)

    def test_one_arm_rotation_breaks_symmetry(self):
        table = yield_table(LinkSpec(0.0, relay_efficiency=1.0, misalignment=0.2), Basis.Z)
        assert np.max(np.abs(table.yields - table.yields.T)) > 1e-10

    def test_monotone_in_survival_under_loss(self):
        # in the loss-dominated regime every cell still grows with t
        effs = (0.02, 0.05, 0.1, 0.145)
        tables = [
            yield_table(
                LinkSpec(
                    0.0, relay_efficiency=e, relay_dark_rate=0.0, misalignment=0.0, cutoff=4
                ),
                Basis.Z,
            )
            for e in effs
        ]
        for m in range(5):
            for n in range(5):
                vals = [t.yields[m, n] for t in tables]
                assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_single_pair_yield_scales_with_t_squared(self):
        for basis in (Basis.Z, Basis.X):
            for t in (0.3, 0.6, 0.9, 1.0):
                table = yield_table(
                    LinkSpec(
                        0.0, relay_efficiency=t, relay_dark_rate=0.0, misalignment=0.0, cutoff=4
                    ),
                    basis,
                )
                assert math.isclose(table.yields[1, 1], 0.5 * t * t, rel_tol=1e-12)

    def test_threshold_saturation_is_not_monotone(self):
        # four launched photons at full transmission produce more than two
        # clicks more often, so the accepted fraction drops: Y(2,2) peaks
        # below t = 1 (exact values 0.2178 at t = 0.6 vs 0.125 at t = 1)
        def y22(t):
            table = yield_table(
                LinkSpec(
                    0.0, relay_efficiency=t, relay_dark_rate=0.0, misalignment=0.0, cutoff=4
                ),
                Basis.Z,
            )
            return float(table.yields[2, 2])

        assert math.isclose(y22(0.6), 0.2178, rel_tol=1e-12)
        assert math.isclose(y22(1.0), 0.125, rel_tol=1e-12)
        assert y22(0.6) > y22(1.0)

    def test_complete_misalignment_randomises_x_errors(self):
        table = yield_table(
            LinkSpec(0.0, relay_efficiency=1.0, relay_dark_rate=0.0, misalignment=0.5), Basis.X
        )
        assert math.isclose(table.errors[1, 1], 0.5, abs_tol=1e-9)

    def test_matches_cell_oracle(self):
        link = LinkSpec(40.0, relay_efficiency=0.3, relay_dark_rate=1e-4, misalignment=0.03)
        for basis in (Basis.Z, Basis.X):
            table = yield_table(link, basis)
            for m, n in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 1)):
                y, e = yield_cell_oracle(
                    m, n, basis, link.survival, link.misalignment, link.relay_dark_rate
                )
                assert math.isclose(table.yields[m, n], y, rel_tol=1e-11, abs_tol=1e-15)
                assert math.isclose(table.errors[m, n], e, rel_tol=1e-9, abs_tol=1e-12)

    def test_cutoff_guards(self):
        with pytest.raises(ValueError):
            yield_table(LinkSpec(10.0, cutoff=1), Basis.Z)
        with pytest.raises(ValueError):
            yield_table(LinkSpec(10.0, cutoff=9), Basis.Z)

    def test_tables_are_read_only(self):
        table = yield_table(DEFAULT, Basis.Z)
        with pytest.raises(ValueError):
            table.yields[0, 0] = 1.0
