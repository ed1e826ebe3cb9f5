"""Photon statistics, trigger weighting, and closed-form totals."""

import math

import pytest

from mdiqkd.source import (
    DistributionKind,
    HeraldingDetector,
    SourceSpec,
    TriggerClass,
    class_total,
    damped_total,
    effective_weight,
    photon_row,
    photon_weight,
    trigger_prob,
)

P = DistributionKind.POISSON
T = DistributionKind.THERMAL


class TestPhotonWeight:
    def test_thermal_unit_intensity_is_dyadic(self):
        # x = 1 gives weights 1/2^(n+1)
        assert math.isclose(photon_weight(T, 1.0, 0), 0.5, rel_tol=1e-15)
        assert math.isclose(photon_weight(T, 1.0, 3), 1.0 / 16.0, rel_tol=1e-14)

    def test_vacuum_intensity_concentrates_on_zero(self):
        assert photon_weight(P, 0.0, 0) == 1.0
        assert photon_weight(P, 0.0, 5) == 0.0
        assert photon_weight(T, 0.0, 0) == 1.0

    def test_poisson_single_photon_value(self):
        w = photon_weight(P, 0.1, 1)
        assert math.isclose(w, 0.0904837, abs_tol=5e-8)
        assert math.isclose(w, 0.1 * math.exp(-0.1), rel_tol=1e-14)

    def test_matches_plain_forms(self):
        for x in (0.05, 0.3, 1.0, 2.0):
            for n in range(9):
                assert math.isclose(
                    photon_weight(P, x, n), math.exp(-x) * x**n / math.factorial(n), rel_tol=1e-12
                )
                assert math.isclose(
                    photon_weight(T, x, n), x**n / (1.0 + x) ** (n + 1), rel_tol=1e-12
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            photon_weight(P, -0.1, 0)
        with pytest.raises(ValueError):
            photon_weight(P, 0.5, -1)

    def test_normalisation(self):
        for kind in (P, T):
            for x in (0.1, 0.5, 1.0):
                total = sum(photon_weight(kind, x, n) for n in range(400))
                assert math.isclose(total, 1.0, rel_tol=1e-12)

    def test_large_n_stays_finite(self):
        # log-space evaluation must not overflow the factorial
        w = photon_weight(P, 0.5, 300)
        assert w == 0.0 or w > 0.0
        assert math.isfinite(w)

    def test_poisson_tail_beyond_cutoff(self):
        # the mass above n = 8 stays below 1e-6 through x ~ 0.95; at the
        # x = 1 endpoint it is 1.13e-6, so pin that value instead
        def tail(x):
            return 1.0 - sum(photon_weight(P, x, n) for n in range(9))

        for i in range(1, 20):
            assert tail(0.05 * i) < 1e-6
        assert 1.1e-6 < tail(1.0) < 1.2e-6


class TestPhotonRow:
    XS = (0.0, 1e-300, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 1.0, 1.5, 1e3)

    @pytest.mark.parametrize("kind", [P, T])
    def test_matches_photon_weight_term_by_term(self, kind):
        for x in self.XS:
            for cutoff in range(17):
                row = photon_row(kind, x, cutoff)
                assert row == [photon_weight(kind, x, n) for n in range(cutoff + 1)], (x, cutoff)

    @pytest.mark.parametrize("kind", [P, T])
    def test_rounds_as_the_per_term_log_form(self, kind):
        # the expression each weight was once evaluated with on its own
        def single(x, n):
            if x == 0.0:
                return 1.0 if n == 0 else 0.0
            if kind is P:
                return math.exp(n * math.log(x) - x - math.lgamma(n + 1))
            return math.exp(n * math.log(x) - (n + 1) * math.log1p(x))

        for x in self.XS:
            assert photon_row(kind, x, 16) == [single(x, n) for n in range(17)], x

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            photon_row(P, -1e-9, 4)


class TestVacuumAndTotals:
    def test_damped_total_closed_forms(self):
        for kind in (P, T):
            for x in (0.1, 0.6, 1.2):
                for r in (0.0, 0.25, 0.9, 1.0):
                    brute = sum(r**m * photon_weight(kind, x, m) for m in range(400))
                    assert math.isclose(damped_total(kind, x, r), brute, rel_tol=1e-12)

    def test_damped_total_domain(self):
        with pytest.raises(ValueError):
            damped_total(P, 0.5, 1.5)

    def test_class_total_matches_series(self):
        det = HeraldingDetector(0.75, 1e-6)
        for kind in (P, T):
            for cls in (TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED):
                src = SourceSpec(kind, 0.4, det, cls)
                brute = sum(effective_weight(src, n) for n in range(400))
                assert math.isclose(class_total(src), brute, rel_tol=1e-12)
        assert class_total(SourceSpec(P, 0.4)) == 1.0


class TestTriggerProb:
    def test_vacuum_pulse_reduces_to_dark_rate(self):
        det = HeraldingDetector(0.75, 1e-6)
        assert math.isclose(trigger_prob(det, 0), 1e-6, rel_tol=1e-9)

    def test_unit_efficiency_always_triggers(self):
        assert trigger_prob(HeraldingDetector(1.0, 0.0), 3) == 1.0

    def test_two_photon_value(self):
        det = HeraldingDetector(0.75, 1e-6)
        assert math.isclose(trigger_prob(det, 2), 0.9375000625, rel_tol=1e-12)

    def test_monotone_in_n_and_efficiency(self):
        det = HeraldingDetector(0.6, 1e-4)
        probs = [trigger_prob(det, n) for n in range(11)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)
        for n in (1, 2, 5):
            by_eta = [trigger_prob(HeraldingDetector(e, 1e-4), n) for e in (0.1, 0.4, 0.7, 1.0)]
            assert all(b >= a for a, b in zip(by_eta, by_eta[1:]))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            trigger_prob(HeraldingDetector(0.5, 0.0), -1)


class TestEffectiveWeight:
    def test_zero_dark_rate_cannot_trigger_on_vacuum(self):
        src = SourceSpec(P, 0.1, HeraldingDetector(0.75, 0.0), TriggerClass.TRIGGERED)
        assert effective_weight(src, 0) == 0.0

    def test_all_class_equals_photon_weight(self):
        src = SourceSpec(P, 0.1)
        assert effective_weight(src, 1) == photon_weight(P, 0.1, 1)

    def test_non_triggered_two_photon_value(self):
        src = SourceSpec(P, 0.1, HeraldingDetector(0.75, 1e-6), TriggerClass.NON_TRIGGERED)
        w = effective_weight(src, 2)
        expect = photon_weight(P, 0.1, 2) * (1.0 - trigger_prob(src.heralding, 2))
        assert math.isclose(w, expect, rel_tol=1e-15)
        assert math.isclose(w, 2.8280e-4, abs_tol=5e-7)

    def test_classes_partition_the_distribution(self):
        det = HeraldingDetector(0.75, 1e-6)
        for kind in (P, T):
            for n in range(11):
                t = effective_weight(SourceSpec(kind, 0.3, det, TriggerClass.TRIGGERED), n)
                nt = effective_weight(SourceSpec(kind, 0.3, det, TriggerClass.NON_TRIGGERED), n)
                full = photon_weight(kind, 0.3, n)
                assert math.isclose(t + nt, full, rel_tol=1e-14, abs_tol=1e-300)


class TestValidation:
    def test_heralding_detector_ranges(self):
        with pytest.raises(ValueError):
            HeraldingDetector(1.5, 0.0)
        with pytest.raises(ValueError):
            HeraldingDetector(0.5, -0.1)

    def test_source_spec_ranges(self):
        with pytest.raises(ValueError):
            SourceSpec(P, -0.5)
        with pytest.raises(ValueError):
            SourceSpec(P, 0.1, None, TriggerClass.TRIGGERED)
        # heralded spec with explicit ALL class is allowed
        SourceSpec(P, 0.1, HeraldingDetector(0.75, 0.0), TriggerClass.ALL)


def test_thermal_single_photon_below_poisson():
    # equal intensity: the thermal family spends less weight on n = 1
    for i in range(1, 41):
        x = 0.05 * i
        assert photon_weight(T, x, 1) < photon_weight(P, x, 1)
