"""Gain assembly and the single-photon-pair bound machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import pair_coefficients, record_oracle, s11_gains, side_lists_oracle
from mdiqkd import decoy
from mdiqkd.decoy import (
    BoundUnavailableError,
    GainRecord,
    GainTable,
    e11_upper_bound,
    error_moment,
    gain_from_yields,
    interior_gain,
    series_sums,
    side_factors,
    side_weights,
    single_pair_gain,
    symmetric_condition,
    table_views,
    y11_coefficients,
    y11_from_series,
    y11_lower_bound,
)
from mdiqkd.optics import Basis, LinkSpec, YieldTable, yield_table
from mdiqkd.source import (
    DistributionKind,
    HeraldingDetector,
    SourceSpec,
    TriggerClass,
    photon_row,
    photon_weight,
)

P = DistributionKind.POISSON
T = DistributionKind.THERMAL
DET = HeraldingDetector(0.75, 1e-6)
CUTOFF = 8


def pair(kind, intensity, heralding, cls):
    spec = SourceSpec(kind, intensity, heralding, cls)
    return (spec, spec)


def grid_gains(pairs, tables, cutoff=CUTOFF):
    """Each pair's record plus its three vacuum-row records, every table."""
    gains = GainTable()
    for pr in pairs:
        kind = pr[0].kind
        her = pr[0].heralding
        cls = pr[0].trigger_class
        x, y = pr[0].intensity, pr[1].intensity
        for xi, yi in ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0)):
            wa = side_weights(SourceSpec(kind, xi, her, cls), cutoff)
            wb = side_weights(SourceSpec(kind, yi, her, cls), cutoff)
            for table in tables:
                gains.add(gain_from_yields(wa, wb, table))
    return gains


def series_record(alice, bob, mats):
    """gain_from_yields' record of two sides on each table of mats, through series_sums."""
    views = table_views(mats)
    col, row, inner = series_sums(np.stack((alice.a, alice.vac)), np.stack((bob.a, bob.vac)), views)
    a0, b0 = alice.vac_at_zero, bob.vac_at_zero
    return (inner + (b0 * col + a0 * row - a0 * b0 * views[3])).tolist()


def synthetic_table(yields, errors=None, basis=Basis.Z):
    yields = np.asarray(yields, dtype=float)
    if errors is None:
        errors = np.zeros_like(yields)
    return YieldTable(basis=basis, cutoff=yields.shape[0] - 1, yields=yields, errors=np.asarray(errors, dtype=float))


H1_WEAK = pair(P, 0.125, DET, TriggerClass.TRIGGERED)
H1_STRONG = pair(P, 0.5, DET, TriggerClass.NON_TRIGGERED)


class TestSideWeights:
    def test_triggered_two_photon_at_unit_efficiency(self):
        w = side_weights(SourceSpec(P, 0.5, HeraldingDetector(1.0, 0.0), TriggerClass.TRIGGERED), 4)
        assert math.isclose(w.a[2], 0.0758163, abs_tol=5e-8)
        assert math.isclose(w.a[2], photon_weight(P, 0.5, 2), rel_tol=1e-14)

    def test_non_triggered_vanishes_at_unit_efficiency(self):
        w = side_weights(SourceSpec(P, 0.3, HeraldingDetector(1.0, 0.0), TriggerClass.NON_TRIGGERED), 4)
        assert w.a[1] == 0.0
        assert all(w.a[m] == 0.0 for m in range(1, 5))

    def test_plain_class_equals_distribution(self):
        w = side_weights(SourceSpec(P, 0.1), 4)
        assert w.a[1] == photon_weight(P, 0.1, 1)

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            side_weights(SourceSpec(P, 0.1), 0)

    def test_matches_scalar_oracle(self):
        for kind in (P, T):
            for cls in (TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED, TriggerClass.ALL):
                her = None if cls is TriggerClass.ALL else DET
                spec = SourceSpec(kind, 0.35, her, cls)
                w = side_weights(spec, 6)
                interior, vac, vac0 = side_lists_oracle(spec, 6)
                assert np.allclose(w.a[1:], interior[1:], rtol=1e-14)
                assert np.allclose(w.vac, vac, rtol=1e-14)
                assert math.isclose(w.vac_at_zero, vac0, rel_tol=1e-14)

    @pytest.mark.parametrize("cls", list(TriggerClass))
    def test_side_factors_are_shared_read_only(self, cls):
        her = None if cls is TriggerClass.ALL else DET
        a_factor, vac_factor, _ = side_factors(her, cls, CUTOFF)
        assert side_factors(her, cls, CUTOFF)[0] is a_factor
        for arr in (a_factor, vac_factor):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 2.0

    def test_exact_totals(self):
        w = side_weights(SourceSpec(P, 0.5, DET, TriggerClass.TRIGGERED), CUTOFF)
        brute_a = sum(
            (1.0 - 0.25**m) * photon_weight(P, 0.5, m) for m in range(1, 400)
        )
        assert math.isclose(w.a_total, brute_a, rel_tol=1e-12)
        assert w.a_total >= float(w.a[1:].sum())

    @pytest.mark.parametrize("kind", [P, T])
    @pytest.mark.parametrize("cls", list(TriggerClass))
    def test_one_photon_weight_is_the_same_bits_at_every_cutoff(self, kind, cls):
        """a[1] is side_factors' element 1 at cutoff 1 times the one-photon weight, bit
        for bit, at every cutoff from 1 to 16: a one-photon weight read from a plan's
        full-cutoff side is the one single_pair_gain builds at cutoff 1."""
        rng = np.random.default_rng(26)
        for i in range(500):
            x = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 2.0))
            eta = (0.0, 1.0, float(rng.uniform()))[i % 3]
            dark = float(rng.uniform(0.0, 1e-3))
            her = None if cls is TriggerClass.ALL else HeraldingDetector(eta, dark)
            spec = SourceSpec(kind, x, her, cls)
            expected = (side_factors(her, cls, 1)[0][1] * photon_row(kind, x, 1)[1]).hex()
            for cutoff in range(1, 17):
                assert float(side_weights(spec, cutoff).a[1]).hex() == expected, (spec, cutoff)


class TestGainFromYields:
    def test_saturated_interior_series(self):
        yields = np.zeros((CUTOFF + 1, CUTOFF + 1))
        yields[1:, 1:] = 1.0
        table = synthetic_table(yields)
        det = HeraldingDetector(1.0, 0.0)
        wa = side_weights(SourceSpec(P, 0.5, det, TriggerClass.TRIGGERED), CUTOFF)
        rec = gain_from_yields(wa, wa, table)
        closed = (1.0 - math.exp(-0.5)) ** 2
        assert abs(rec.gain - closed) <= rec.tail + 1e-15
        assert math.isclose(rec.gain, 0.1548181, abs_tol=5e-8)

    def test_zero_table(self):
        table = synthetic_table(np.zeros((CUTOFF + 1, CUTOFF + 1)))
        wa = side_weights(SourceSpec(P, 0.3, DET, TriggerClass.TRIGGERED), CUTOFF)
        rec = gain_from_yields(wa, wa, table)
        assert rec.gain == 0.0
        assert rec.qber == 0.0

    def test_vacuum_source_with_zero_dark_rate(self):
        det = HeraldingDetector(0.75, 0.0)
        wa = side_weights(SourceSpec(P, 0.0, det, TriggerClass.TRIGGERED), CUTOFF)
        wb = side_weights(SourceSpec(P, 0.5, det, TriggerClass.TRIGGERED), CUTOFF)
        rec = gain_from_yields(wa, wb, yield_table(LinkSpec(50.0), Basis.Z))
        assert rec.gain == 0.0

    def test_cutoff_and_class_mismatch(self):
        table = yield_table(LinkSpec(50.0), Basis.Z)
        short = side_weights(SourceSpec(P, 0.3), 4)
        full = side_weights(SourceSpec(P, 0.3), CUTOFF)
        with pytest.raises(ValueError):
            gain_from_yields(short, full, table)
        other = side_weights(SourceSpec(P, 0.3, DET, TriggerClass.TRIGGERED), CUTOFF)
        with pytest.raises(ValueError):
            gain_from_yields(full, other, table)

    def test_matches_scalar_oracle(self):
        table = yield_table(LinkSpec(80.0), Basis.X)
        yl = table.yields.tolist()
        el = table.errors.tolist()
        cases = [
            (SourceSpec(P, 0.125, DET, TriggerClass.TRIGGERED), SourceSpec(P, 0.125, DET, TriggerClass.TRIGGERED)),
            (SourceSpec(P, 0.5, DET, TriggerClass.NON_TRIGGERED), SourceSpec(P, 0.0, DET, TriggerClass.NON_TRIGGERED)),
            (SourceSpec(T, 0.2, DET, TriggerClass.TRIGGERED), SourceSpec(T, 0.2, DET, TriggerClass.TRIGGERED)),
            (SourceSpec(P, 0.1), SourceSpec(P, 0.4)),
        ]
        for spec_a, spec_b in cases:
            rec = gain_from_yields(side_weights(spec_a, CUTOFF), side_weights(spec_b, CUTOFF), table)
            gain, wrong = record_oracle(spec_a, spec_b, yl, el)
            assert math.isclose(rec.gain, gain, rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(rec.gain * rec.qber, wrong, rel_tol=1e-11, abs_tol=1e-300)

    def test_stacked_series_matches_the_one_dimensional_products_bit_for_bit(self):
        # the series as it was written per table, with 1-D products; the
        # stacked form must round exactly as it does, or reported rows move
        def per_table(alice, bob, mat):
            interior = float(alice.a[1:] @ mat[1:, 1:] @ bob.a[1:])
            rows = bob.vac_at_zero * float(alice.vac @ mat[:, 0])
            rows += alice.vac_at_zero * float(bob.vac @ mat[0, :])
            rows -= alice.vac_at_zero * bob.vac_at_zero * float(mat[0, 0])
            return interior + rows

        rng = np.random.default_rng(11)
        classes = (TriggerClass.ALL, TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED)

        def draw_side(kind, x):
            cls = classes[int(rng.integers(3))]
            det = None if cls is TriggerClass.ALL else DET
            return side_weights(SourceSpec(kind, x, det, cls), CUTOFF)

        for _ in range(300):
            kind = (P, T)[int(rng.integers(2))]
            cls = classes[int(rng.integers(3))]
            det = None if cls is TriggerClass.ALL else DET
            x_a = float(rng.uniform(0.0, 1.5))
            x_b = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.5))
            alice = side_weights(SourceSpec(kind, x_a, det, cls), CUTOFF)
            bob = side_weights(SourceSpec(kind, x_b, det, cls), CUTOFF)
            mats = rng.random((4, CUTOFF + 1, CUTOFF + 1)) ** 3
            got = series_record(alice, bob, mats)
            assert got == [per_table(alice, bob, mat) for mat in mats]
            # S = 1, 2 and 3 sides of mixed classes in one series_sums pass, over four
            # tables or two, and every record any two of them form: alice's sides on
            # one leading axis, bob's on the other
            zero = rng.random() < 0.3
            mats = mats[: (2, 4)[int(rng.integers(2))]]
            views = table_views(mats)
            stack = [draw_side(kind, 0.0 if zero else float(rng.uniform(0.01, 1.5)))
                     for _ in range(3)]
            for size in (1, 2, 3):
                sides = stack[:size]
                w = np.array([[x.a for x in sides], [x.vac for x in sides]])
                col, row, inner = series_sums(w[:, :, None], w[:, None], views)
                assert inner.shape == (size, size, len(mats))
                v = np.array([x.vac_at_zero for x in sides])
                a0, b0 = v[:, None, None], v[None, :, None]
                got = inner + (b0 * col + a0 * row - a0 * b0 * views[3])
                for i, x in enumerate(sides):
                    for j, y in enumerate(sides):
                        assert got[i, j].tolist() == [per_table(x, y, mat) for mat in mats]

    def test_event_classes_partition_the_plain_gain(self):
        # per side the two heralded classes split the plain distribution
        t = side_weights(SourceSpec(P, 0.4, DET, TriggerClass.TRIGGERED), CUTOFF)
        nt = side_weights(SourceSpec(P, 0.4, DET, TriggerClass.NON_TRIGGERED), CUTOFF)
        plain = side_weights(SourceSpec(P, 0.4), CUTOFF)
        assert np.allclose(t.a + nt.a, plain.a, rtol=1e-13)
        assert np.allclose(t.vac + nt.vac, plain.vac, rtol=1e-13)
        assert math.isclose(t.vac_at_zero + nt.vac_at_zero, 1.0, rel_tol=1e-15)
        # with matched classes on both sides the cross terms t/nt and nt/t
        # are left out, so the two gains undershoot the plain record
        table = yield_table(LinkSpec(60.0), Basis.Z)
        g_t = gain_from_yields(t, t, table).gain
        g_nt = gain_from_yields(nt, nt, table).gain
        g_all = gain_from_yields(plain, plain, table).gain
        assert 0.0 < g_t + g_nt <= g_all + 1e-15

    def test_tail_certificate_covers_truncation(self):
        for dist in (0.0, 100.0):
            t6 = yield_table(LinkSpec(dist, cutoff=6), Basis.Z)
            t8 = yield_table(LinkSpec(dist, cutoff=8), Basis.Z)
            for intensity in (0.3, 0.8):
                w6 = side_weights(SourceSpec(P, intensity, DET, TriggerClass.NON_TRIGGERED), 6)
                w8 = side_weights(SourceSpec(P, intensity, DET, TriggerClass.NON_TRIGGERED), 8)
                r6 = gain_from_yields(w6, w6, t6)
                r8 = gain_from_yields(w8, w8, t8)
                assert abs(r8.gain - r6.gain) <= r6.tail + 1e-18
                assert r8.tail < r6.tail


class TestGainTable:
    def test_lookup_and_iteration(self):
        rec = GainRecord(Basis.Z, 0.1, 0.2, TriggerClass.ALL, 0.5, 0.01)
        other = GainRecord(Basis.X, 0.1, 0.2, TriggerClass.ALL, 0.4, 0.02)
        table = GainTable([rec, other])
        assert len(table) == 2
        assert table.get(Basis.Z, 0.1, 0.2, TriggerClass.ALL) is rec
        assert [r.basis for r in table] == [Basis.X, Basis.Z]

    def test_float_noise_tolerated(self):
        rec = GainRecord(Basis.Z, 0.1, 0.2, TriggerClass.ALL, 0.5, 0.01)
        table = GainTable([rec])
        assert table.get(Basis.Z, 0.1 * (1.0 + 1e-12), 0.2, TriggerClass.ALL) is rec

    def test_missing_record(self):
        table = GainTable()
        with pytest.raises(KeyError):
            table.get(Basis.Z, 0.1, 0.2, TriggerClass.ALL)

    def test_ambiguous_float_noise_rejected(self):
        # two records within the tolerance of the query: neither is returned
        low = GainRecord(Basis.Z, 0.1 * (1.0 - 1e-12), 0.2, TriggerClass.ALL, 0.5, 0.01)
        high = GainRecord(Basis.Z, 0.1 * (1.0 + 1e-12), 0.2, TriggerClass.ALL, 0.6, 0.01)
        table = GainTable([low, high])
        with pytest.raises(KeyError, match="ambiguous") as err:
            table.get(Basis.Z, 0.1, 0.2, TriggerClass.ALL)
        for rec in (low, high):
            assert f"x={rec.alice_intensity!r}" in str(err.value)
        # an exact key still names one record, and other classes do not count
        assert table.get(Basis.Z, low.alice_intensity, 0.2, TriggerClass.ALL) is low
        other = GainRecord(Basis.Z, 0.1, 0.2, TriggerClass.TRIGGERED, 0.7, 0.0)
        table.add(other)
        assert table.get(Basis.Z, 0.1 * (1.0 + 1e-13), 0.2, TriggerClass.TRIGGERED) is other

    def test_setting_reads_the_four_records_get_reads(self, monkeypatch):
        # exact records, float-noise records, a Z-only table, a missing record and an
        # ambiguous one: setting returns the records four get calls return, or raises
        # the first KeyError they raise, with its text
        x, y, cls = 0.1, 0.2, TriggerClass.TRIGGERED

        def records(basis, f=1.0):
            return [GainRecord(basis, a * f, b * f, cls, 0.1 + a + 2.0 * b, 0.01)
                    for a in (x, 0.0) for b in (y, 0.0)]

        def outcome(read):
            try:
                return read()
            except KeyError as exc:
                return str(exc)

        exact = records(Basis.Z) + records(Basis.X)
        tables = {
            "exact": GainTable(exact),
            "noise": GainTable(records(Basis.Z, 1.0 + 1e-12) + records(Basis.X, 1.0 - 1e-12)),
            "z_only": GainTable(records(Basis.Z)),
            "ambiguous": GainTable(records(Basis.Z, 1.0 + 1e-12) + records(Basis.Z, 1.0 - 1e-12)),
            **{f"missing {i}": GainTable(exact[:i] + exact[i + 1:]) for i in range(4)},
        }
        reads = ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0))
        errors = 0
        for table in tables.values():
            for basis in Basis:
                expected = outcome(lambda: tuple(table.get(basis, a, b, cls) for a, b in reads))
                got = outcome(lambda: table.setting(basis, x, y, cls))
                assert got == expected
                if isinstance(got, str):
                    errors += 1
                else:
                    assert all(g is e for g, e in zip(got, expected))
        assert errors == 7
        # on exact records each of the four is one exact-key lookup, never a scan
        monkeypatch.setattr(GainTable, "get", lambda *args: pytest.fail("get was called"))
        assert tables["exact"].setting(Basis.X, x, y, cls) == tuple(exact[4:])

    def test_duplicate_key_replaces(self):
        first = GainRecord(Basis.Z, 0.1, 0.2, TriggerClass.ALL, 0.5, 0.0)
        second = GainRecord(Basis.Z, 0.1, 0.2, TriggerClass.ALL, 0.7, 0.0)
        table = GainTable([first, second])
        assert len(table) == 1
        assert table.get(Basis.Z, 0.1, 0.2, TriggerClass.ALL).gain == 0.7


class TestSeriesClosure:
    def test_vacuum_rows_reconstruct_exactly(self):
        table = yield_table(LinkSpec(70.0), Basis.Z)
        gains = grid_gains([H1_WEAK, H1_STRONG], [table])
        for pr in (H1_WEAK, H1_STRONG):
            records = gains.setting(Basis.Z, pr[0].intensity, pr[1].intensity, pr[0].trigger_class)
            coeff = pair_coefficients(pr, CUTOFF)
            interior = float(coeff[1:, 1:].ravel() @ table.yields[1:, 1:].ravel())
            assert math.isclose(interior_gain(*(r.gain for r in records)), interior,
                                rel_tol=1e-12, abs_tol=1e-300)


class TestZeroSides:
    CLASSES = ((None, TriggerClass.ALL), (DET, TriggerClass.TRIGGERED),
               (DET, TriggerClass.NON_TRIGGERED))

    @pytest.mark.parametrize("det, cls", CLASSES)
    def test_interior_products_of_a_zero_side_are_plus_zero(self, det, cls):
        # what lets series_sums sum the interior of (x, 0), (0, x) and (0, 0) records
        # to the +0.0 that leaves them their vacuum rows
        link = LinkSpec(40.0)
        mats = np.stack([m for b in (Basis.Z, Basis.X) for t in [yield_table(link, b)]
                         for m in (t.yields, t.yields * t.errors)])
        zero = side_weights(SourceSpec(P, 0.0, det, cls), CUTOFF)
        assert not zero.a[1:].any()
        for x in (0.0, 0.01, 0.4, 1.5):
            side = side_weights(SourceSpec(P, x, det, cls), CUTOFF)
            for alice, bob in ((side, zero), (zero, side)):
                inner = alice.a[1:] @ mats[:, 1:, 1:]
                interior = (inner[:, None, :] @ bob.a[1:, None]).ravel().tolist()
                assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in interior)

    def test_zero_side_records_are_their_vacuum_rows(self):
        rng = np.random.default_rng(5)
        mats = rng.random((4, CUTOFF + 1, CUTOFF + 1)) ** 3
        corner = mats[:, 0, 0].tolist()
        views = table_views(mats)
        for det, cls in self.CLASSES:
            zero = side_weights(SourceSpec(T, 0.0, det, cls), CUTOFF)
            side = side_weights(SourceSpec(T, 0.7, det, cls), CUTOFF)
            assert not zero.a[1:].any() and side.a[1:].any()
            for alice, bob in ((side, zero), (zero, side), (zero, zero)):
                col, row, inner = series_sums(np.stack((alice.a, alice.vac)),
                                              np.stack((bob.a, bob.vac)), views)
                assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in inner.tolist())
                a0, b0 = alice.vac_at_zero, bob.vac_at_zero
                rows = [0.0 + (b0 * c + a0 * r - a0 * b0 * m)
                        for c, r, m in zip(col.tolist(), row.tolist(), corner)]
                assert series_record(alice, bob, mats) == rows


class TestY11Coefficients:
    def test_margin_equals_the_full_outer_product_form(self):
        # the margin as it was computed on the full (cutoff + 1)-square outer products
        def outer_margin(wa, wb, sa, sb, k):
            coeff_weak = np.outer(wa, wb)
            coeff_strong = np.outer(sa, sb)
            combined = coeff_strong - k * coeff_weak
            scale = np.maximum(np.maximum(coeff_strong, k * coeff_weak), 1e-300)
            rel = combined / scale
            rel[0, :] = -math.inf
            rel[:, 0] = -math.inf
            rel[1, 1] = -math.inf
            return float(rel.max())

        rng = np.random.default_rng(12)
        classes = (TriggerClass.TRIGGERED, TriggerClass.NON_TRIGGERED, TriggerClass.ALL)
        checked = 0
        for _ in range(400):
            kind = (P, T)[int(rng.integers(2))]
            det = HeraldingDetector(float(rng.uniform(0.05, 1.0)), 1e-6)
            cutoff = int(rng.integers(2, 9))
            weak_cls, strong_cls = (classes[int(i)] for i in rng.integers(3, size=2))
            mu, mu_prime = rng.uniform(1e-3, 1.5, 2).tolist()
            w = side_weights(SourceSpec(kind, mu, det, weak_cls), cutoff).a
            st = side_weights(SourceSpec(kind, mu_prime, det, strong_cls), cutoff).a
            k, denom, swapped, margin = y11_coefficients(w, w, st, st)
            if margin == math.inf:
                continue
            lead, other = (st, w) if swapped else (w, st)
            assert margin == outer_margin(lead, lead, other, other, k)
            checked += 1
        assert checked > 100


    @staticmethod
    def numpy_coefficients(wa, wb, sa, sb):
        """y11_coefficients with its margin in the numpy elementwise form it had
        before the plain-float loop: the reference the loop must equal bit for bit."""
        wa1, wa2, wb1, wb2 = *wa[1:3].tolist(), *wb[1:3].tolist()
        sa1, sa2, sb1, sb2 = *sa[1:3].tolist(), *sb[1:3].tolist()
        num_k, den_k = sa1 * sb2 + sa2 * sb1, wa1 * wb2 + wa2 * wb1
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
        with np.errstate(all="ignore"):
            weak = wa[1:, None] * wb[1:]
            weak *= k
            rel = sa[1:, None] * sb[1:]
            top = np.maximum(rel, weak)
            np.maximum(top, 1e-300, out=top)
            rel -= weak
            rel /= top
        rel[0, 0] = -math.inf
        return k, denom, swapped, float(rel.max())

    @settings(max_examples=400, deadline=None)
    @given(
        weights=st.integers(2, 8).flatmap(
            lambda cutoff: st.lists(
                st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                         min_size=cutoff + 1, max_size=cutoff + 1),
                min_size=4, max_size=4,
            )
        )
    )
    def test_margin_loop_equals_the_numpy_form(self, weights):
        # symmetric, asymmetric and swapped pairs, and symmetric pairs as copies
        wa, wb, sa, sb = (np.array(w) for w in weights)
        for args in ((wa, wa, sa, sa), (sa, sa, wa, wa), (wa, wa.copy(), sa, sa.copy()),
                     (wa, wb, sa, sb), (sa, sb, wa, wb), (wa, wb, sa, sa)):
            got, expected = y11_coefficients(*args), self.numpy_coefficients(*args)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]

    @pytest.mark.parametrize("at", [1, 2, 3, 6])
    def test_a_nan_weight_never_licenses(self, at):
        # a nan weight makes the margin nan or the pair unavailable, as the numpy
        # form does, and y11_from_series licenses neither
        weak = side_weights(SourceSpec(P, 0.125, DET, TriggerClass.TRIGGERED), CUTOFF).a
        strong = side_weights(SourceSpec(P, 0.5, DET, TriggerClass.NON_TRIGGERED), CUTOFF).a
        for side in range(2):
            w, s = weak.copy(), strong.copy()
            (w, s)[side][at] = math.nan
            for args in ((w, w, s, s), (w, w.copy(), s, s.copy())):
                coeffs = y11_coefficients(*args)
                expected = self.numpy_coefficients(*args)
                assert [float(v).hex() for v in coeffs] == [float(v).hex() for v in expected]
                assert math.isnan(coeffs[3]) or coeffs[3] == math.inf
                assert not y11_from_series(coeffs, 1e-3, 2e-3)[2]

    @settings(max_examples=300, deadline=None)
    @given(
        sides=st.integers(3, 9).flatmap(
            lambda n: st.lists(st.floats(0.0, 1.0), min_size=2 * n, max_size=2 * n)
        )
    )
    def test_one_array_as_both_sides_equals_two_copies(self, sides):
        # a symmetric setting may pass one array as both of its sides
        w, s = np.array(sides[: len(sides) // 2]), np.array(sides[len(sides) // 2:])
        shared = y11_coefficients(w, w, s, s)
        copied = y11_coefficients(w, w.copy(), s, s.copy())
        assert [float(x).hex() for x in shared] == [float(x).hex() for x in copied]


class TestY11LowerBound:
    def make_gains(self, table):
        return grid_gains([H1_WEAK, H1_STRONG], [table])

    def test_k_factor_closed_form(self):
        table = yield_table(LinkSpec(50.0), Basis.Z)
        bound = y11_lower_bound(self.make_gains(table), H1_WEAK, H1_STRONG, Basis.Z, CUTOFF)
        eta, mu, mu_p = 0.75, 0.125, 0.5
        closed = (
            (1 - eta) * (1 - eta) ** 2 / (eta * (1 - (1 - eta) ** 2))
            * (mu_p / mu) ** 3
            * math.exp(2 * mu - 2 * mu_p)
        )
        assert not bound.swapped
        assert math.isclose(bound.k_factor, closed, rel_tol=1e-12)
        assert math.isclose(bound.k_factor, 0.6718102083427759, rel_tol=1e-12)

    def test_sound_on_synthetic_table(self):
        decay = 1.0 - 0.9 ** (np.add.outer(np.arange(CUTOFF + 1), np.arange(CUTOFF + 1)))
        table = synthetic_table(decay)
        gains = self.make_gains(table)
        bound = y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.Z, CUTOFF)
        assert bound.conditions_ok
        true_y11 = 1.0 - 0.9**2
        assert 0.0 < bound.value <= true_y11 + 1e-12

    def test_exact_when_only_the_single_pair_cell_fires(self):
        yields = np.zeros((CUTOFF + 1, CUTOFF + 1))
        yields[1, 1] = 0.37
        gains = self.make_gains(synthetic_table(yields))
        bound = y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.Z, CUTOFF)
        assert bound.conditions_ok and not bound.clamped
        assert math.isclose(bound.value, 0.37, rel_tol=1e-12)

    def test_all_zero_gains(self):
        table = synthetic_table(np.zeros((CUTOFF + 1, CUTOFF + 1)))
        bound = y11_lower_bound(self.make_gains(table), H1_WEAK, H1_STRONG, Basis.Z, CUTOFF)
        assert bound.conditions_ok
        assert bound.value == 0.0

    def test_argument_order_does_not_matter(self):
        table = yield_table(LinkSpec(60.0), Basis.Z)
        gains = self.make_gains(table)
        fwd = y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.Z, CUTOFF)
        rev = y11_lower_bound(gains, H1_STRONG, H1_WEAK, Basis.Z, CUTOFF)
        assert not fwd.swapped and rev.swapped
        # canonicalisation restores the same roles, so every reported
        # quantity matches; only the swapped flag records the exchange
        assert math.isclose(rev.k_factor, fwd.k_factor, rel_tol=1e-12)
        assert math.isclose(rev.denominator, fwd.denominator, rel_tol=1e-12)
        assert math.isclose(rev.value, fwd.value, rel_tol=1e-12)
        assert math.isclose(rev.tail, fwd.tail, rel_tol=1e-9)
        assert rev.conditions_ok == fwd.conditions_ok

    def test_sound_against_ground_truth(self):
        for dist in (0.0, 100.0, 200.0):
            for basis in (Basis.Z, Basis.X):
                table = yield_table(LinkSpec(dist), basis)
                gains = grid_gains([H1_WEAK, H1_STRONG], [table])
                bound = y11_lower_bound(gains, H1_WEAK, H1_STRONG, basis, CUTOFF)
                assert bound.conditions_ok
                assert 0.0 < bound.value <= table.yields[1, 1] + 1e-12

    def test_degenerate_weights_unavailable(self):
        det = HeraldingDetector(1.0, 0.0)
        weak = pair(P, 0.125, det, TriggerClass.TRIGGERED)
        strong = pair(P, 0.5, det, TriggerClass.NON_TRIGGERED)
        table = yield_table(LinkSpec(50.0), Basis.Z)
        gains = grid_gains([weak, strong], [table])
        bound = y11_lower_bound(gains, weak, strong, Basis.Z, CUTOFF)
        assert not bound.conditions_ok
        assert not math.isfinite(bound.tail) or bound.tail == 0.0

    def test_missing_records(self):
        with pytest.raises(KeyError):
            y11_lower_bound(GainTable(), H1_WEAK, H1_STRONG, Basis.Z, CUTOFF)

    def test_inflating_background_lowers_the_bound(self):
        table = yield_table(LinkSpec(90.0), Basis.Z)
        base = self.make_gains(table)
        corner = base.get(Basis.Z, 0.0, 0.0, TriggerClass.TRIGGERED)
        values = []
        for bump in (0.0, 1e-9, 1e-7):
            gains = GainTable(iter(base))
            gains.add(
                GainRecord(
                    Basis.Z, 0.0, 0.0, TriggerClass.TRIGGERED,
                    corner.gain + bump, corner.qber, corner.tail,
                )
            )
            values.append(y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.Z, CUTOFF).value)
        assert values[0] >= values[1] >= values[2]

    def test_negative_numerator_clamps_to_zero(self):
        gains = GainTable()
        for pr, gain in ((H1_WEAK, 0.9), (H1_STRONG, 0.0)):
            x, y = pr[0].intensity, pr[1].intensity
            cls = pr[0].trigger_class
            for xi, yi in ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0)):
                g = gain if (xi, yi) == (x, y) else 0.0
                gains.add(GainRecord(Basis.Z, xi, yi, cls, g, 0.0))
        bound = y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.Z, CUTOFF)
        assert bound.value == 0.0
        assert bound.clamped

    def test_pair_plan_is_rebuilt_for_other_settings(self, monkeypatch):
        # the plan holds one setting pair: another mu', heralding efficiency or
        # cutoff builds a new one and gets the bound a cold call gets
        det = HeraldingDetector(0.9, 1e-6)
        variants = [
            (H1_WEAK, H1_STRONG, CUTOFF),
            (H1_WEAK, pair(P, 0.4, DET, TriggerClass.NON_TRIGGERED), CUTOFF),
            (pair(P, 0.125, det, TriggerClass.TRIGGERED),
             pair(P, 0.5, det, TriggerClass.NON_TRIGGERED), CUTOFF),
            (H1_WEAK, H1_STRONG, 6),
        ]
        table = yield_table(LinkSpec(50.0), Basis.Z)
        gains = grid_gains([p for weak, strong, _ in variants for p in (weak, strong)], [table])
        cold = []
        for weak, strong, cutoff in variants:
            monkeypatch.setattr(decoy, "_last_pair", None)
            cold.append(y11_lower_bound(gains, weak, strong, Basis.Z, cutoff))
        assert len({(b.k_factor, b.coefficient_margin, b.tail) for b in cold}) == len(variants)
        built = []
        original = decoy.y11_coefficients
        monkeypatch.setattr(
            decoy, "y11_coefficients", lambda *args: built.append(args) or original(*args)
        )
        # each call follows another pair's, so each builds its plan
        for (weak, strong, cutoff), expected in zip(variants, cold):
            assert y11_lower_bound(gains, weak, strong, Basis.Z, cutoff) == expected
        assert len(built) == len(variants)
        # the same pair again, in the other basis too, reuses the plan
        weak, strong, cutoff = variants[-1]
        assert y11_lower_bound(gains, weak, strong, Basis.Z, cutoff) == cold[-1]
        x_gains = grid_gains([weak, strong], [yield_table(LinkSpec(50.0), Basis.X)])
        y11_lower_bound(x_gains, weak, strong, Basis.X, cutoff)
        assert len(built) == len(variants)

    def test_licence_reads_the_tolerance_after_the_plan_exists(self, monkeypatch):
        # the plan keeps the coefficient margin, never the licence it gives
        gains = self.make_gains(yield_table(LinkSpec(50.0), Basis.Z))
        assert y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.Z, CUTOFF).conditions_ok
        assert decoy._last_pair[0] == (H1_WEAK, H1_STRONG, CUTOFF)
        monkeypatch.setattr(decoy, "COEFF_REL_TOL", -math.inf)
        assert not y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.Z, CUTOFF).conditions_ok


class TestRecordFetch:
    """The estimator reads its records through GainTable.get, so records whose
    intensities are float noise off the settings' give the exact records' bounds."""

    def bounds(self, gains):
        weak, strong = H1_WEAK, H1_STRONG
        bound_z = y11_lower_bound(gains, weak, strong, Basis.Z, CUTOFF)
        bound_x = y11_lower_bound(gains, weak, strong, Basis.X, CUTOFF)
        e11 = e11_upper_bound(gains, weak, strong, single_pair_gain(weak, bound_x.value),
                              single_pair_gain(strong, bound_x.value))
        return repr((bound_z, bound_x, e11))

    def test_records_off_by_float_noise_give_the_exact_bounds(self):
        link = LinkSpec(50.0)
        exact = grid_gains([H1_WEAK, H1_STRONG], [yield_table(link, b) for b in (Basis.Z, Basis.X)])
        # every nonzero intensity 1e-12 relative off the settings'
        noisy = GainTable(
            rec._replace(alice_intensity=rec.alice_intensity * (1.0 + 1e-12),
                         bob_intensity=rec.bob_intensity * (1.0 + 1e-12))
            for rec in exact
        )
        assert not any(
            (rec.alice_intensity, rec.bob_intensity) in ((0.125, 0.125), (0.5, 0.5))
            for rec in noisy
        )
        assert self.bounds(noisy) == self.bounds(exact)


class TestSymmetricCondition:
    def test_reference_points(self):
        assert symmetric_condition(0.125, 0.5, 0.75) is True
        assert symmetric_condition(0.1, 0.5, 0.5) is False
        assert symmetric_condition(0.25, 1.0, 0.75) is True

    def test_boundary_is_sharp(self):
        mu = (1.0 - 0.75) * 0.5
        assert symmetric_condition(mu, 0.5, 0.75)
        assert not symmetric_condition(math.nextafter(mu, 0.0), 0.5, 0.75)


class TestS11Gains:
    def test_zero_yield(self):
        assert s11_gains(0.0, 0.7, 0.75) == (0.0, 0.0)

    def test_unit_efficiency(self):
        t, nt = s11_gains(1.0, 0.5, 1.0)
        assert math.isclose(t, 0.25 * math.exp(-1.0), rel_tol=1e-14)
        assert math.isclose(t, 0.0919699, abs_tol=5e-8)
        assert nt == 0.0

    def test_partial_efficiency(self):
        t, nt = s11_gains(0.5, 0.5, 0.75)
        assert math.isclose(t, 0.0258665, abs_tol=5e-8)
        assert math.isclose(nt, t / 9.0, rel_tol=1e-12)  # ((1-eta)/eta)^2 = 1/9

    def test_thermal_substitutes_its_single_photon_weight(self):
        t, _ = s11_gains(1.0, 0.5, 0.75, T)
        p1 = photon_weight(T, 0.5, 1)
        assert math.isclose(t, 0.5625 * p1 * p1, rel_tol=1e-14)

    def test_negative_yield_rejected(self):
        with pytest.raises(ValueError):
            s11_gains(-0.1, 0.5, 0.75)

    def test_single_pair_gain_matches(self):
        y11 = 0.37
        t, nt = s11_gains(y11, 0.5, 0.75)
        det = HeraldingDetector(0.75, 1e-6)
        assert math.isclose(
            single_pair_gain(pair(P, 0.5, det, TriggerClass.TRIGGERED), y11), t, rel_tol=1e-12
        )
        assert math.isclose(
            single_pair_gain(pair(P, 0.5, det, TriggerClass.NON_TRIGGERED), y11), nt, rel_tol=1e-12
        )


    @settings(max_examples=200, deadline=None)
    @given(
        sides=st.lists(
            st.tuples(
                st.sampled_from([P, T]),
                st.sampled_from(list(TriggerClass)),
                st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            ),
            min_size=2,
            max_size=2,
        ),
        y11=st.floats(0.0, 1.0),
    )
    def test_single_pair_gain_is_the_side_weights_product(self, sides, y11):
        pr = tuple(
            SourceSpec(kind, x, None if cls is TriggerClass.ALL else HeraldingDetector(eta, 1e-6), cls)
            for kind, cls, x, eta in sides
        )
        wa, wb = (side_weights(spec, 1).a[1] for spec in pr)
        expected = float(wa * wb) * y11
        assert single_pair_gain(pr, y11).hex() == expected.hex()


    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from([P, T]),
        cls=st.sampled_from(list(TriggerClass)),
        x=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        y11=st.floats(0.0, 1.0),
    )
    def test_equal_sides_give_the_one_object_gain(self, kind, cls, x, eta, y11):
        # a symmetric pair computes its side once, whether it holds one object twice
        # or two equal ones
        heralding = None if cls is TriggerClass.ALL else HeraldingDetector(eta, 1e-6)
        alice, bob = (SourceSpec(kind, x, heralding, cls) for _ in range(2))
        assert alice == bob and alice is not bob
        assert single_pair_gain((alice, bob), y11).hex() == single_pair_gain((alice, alice), y11).hex()


def minimal_x_gains(weak, strong, weak_vals, strong_vals):
    """Records whose error moments reduce to the supplied numerators."""
    gains = GainTable()
    for pr, (gain, qber) in ((weak, weak_vals), (strong, strong_vals)):
        x, y = pr[0].intensity, pr[1].intensity
        cls = pr[0].trigger_class
        for xi, yi in ((x, y), (x, 0.0), (0.0, y), (0.0, 0.0)):
            g = gain if (xi, yi) == (x, y) else 0.0
            q = qber if (xi, yi) == (x, y) else 0.0
            gains.add(GainRecord(Basis.X, xi, yi, cls, g, q))
    return gains


class TestE11UpperBound:
    def test_minimum_of_the_two_candidates(self):
        gains = minimal_x_gains(H1_WEAK, H1_STRONG, (0.08, 1.0), (0.03, 1.0))
        assert e11_upper_bound(gains, H1_WEAK, H1_STRONG, 1.0, 1.0) == 0.03

    def test_reporting_range_clamps(self):
        high = minimal_x_gains(H1_WEAK, H1_STRONG, (0.9, 1.0), (0.9, 1.0))
        assert e11_upper_bound(high, H1_WEAK, H1_STRONG, 1.0, 1.0) == 0.5
        zero = minimal_x_gains(H1_WEAK, H1_STRONG, (0.0, 0.0), (0.0, 0.0))
        assert e11_upper_bound(zero, H1_WEAK, H1_STRONG, 1.0, 1.0) == 0.0

    def test_unavailable_without_denominators(self):
        gains = minimal_x_gains(H1_WEAK, H1_STRONG, (0.1, 1.0), (0.1, 1.0))
        with pytest.raises(BoundUnavailableError):
            e11_upper_bound(gains, H1_WEAK, H1_STRONG, 0.0, 0.0)

    def test_error_moment_closes_over_the_table(self):
        table = yield_table(LinkSpec(60.0), Basis.X)
        gains = grid_gains([H1_WEAK, H1_STRONG], [table])
        coeff = pair_coefficients(H1_WEAK, CUTOFF)
        direct = float(
            (coeff[1:, 1:] * table.yields[1:, 1:] * table.errors[1:, 1:]).sum()
        )
        x, y, cls = H1_WEAK[0].intensity, H1_WEAK[1].intensity, H1_WEAK[0].trigger_class
        moment = error_moment(*(r.gain * r.qber for r in gains.setting(Basis.X, x, y, cls)))
        assert math.isclose(moment, direct, rel_tol=1e-10, abs_tol=1e-300)

    @pytest.mark.parametrize("zeroed", ["weak", "strong"])
    def test_a_setting_without_a_denominator_reads_no_records(self, zeroed, monkeypatch):
        # the zeroed setting's X records are not in the table, and are never asked for
        full = minimal_x_gains(H1_WEAK, H1_STRONG, (0.08, 1.0), (0.03, 1.0))
        gone, kept = (H1_WEAK, H1_STRONG) if zeroed == "weak" else (H1_STRONG, H1_WEAK)
        gains = GainTable(r for r in full if r.trigger_class is not gone[0].trigger_class)
        assert len(gains) == 4
        reads, setting = [], GainTable.setting

        def spy(table, *args):
            reads.append(args)
            return setting(table, *args)

        monkeypatch.setattr(GainTable, "setting", spy)
        s11 = (0.0, 1.0) if zeroed == "weak" else (1.0, 0.0)
        e11 = e11_upper_bound(gains, H1_WEAK, H1_STRONG, *s11)
        assert e11 == (0.03 if zeroed == "weak" else 0.08)
        assert reads == [(Basis.X, kept[0].intensity, kept[1].intensity, kept[0].trigger_class)]

    def test_sound_against_ground_truth(self):
        for dist in (0.0, 120.0):
            table_x = yield_table(LinkSpec(dist), Basis.X)
            gains = grid_gains([H1_WEAK, H1_STRONG], [table_x])
            bound_x = y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.X, CUTOFF)
            assert bound_x.conditions_ok
            e11 = e11_upper_bound(
                gains,
                H1_WEAK,
                H1_STRONG,
                single_pair_gain(H1_WEAK, bound_x.value),
                single_pair_gain(H1_STRONG, bound_x.value),
            )
            assert e11 >= table_x.errors[1, 1] - 1e-12

    def test_multiphoton_floor_without_noise(self):
        # with misalignment and dark counts both zero the true single-pair
        # error is exactly zero, but same-side photon pairs still produce
        # accepted patterns with random bit relation, so the estimate
        # cannot reach zero; the floor below is a pinned regression value
        link = LinkSpec(0.0, relay_dark_rate=0.0, misalignment=0.0)
        table_x = yield_table(link, Basis.X)
        assert table_x.errors[1, 1] == 0.0
        gains = grid_gains([H1_WEAK, H1_STRONG], [table_x])
        bound_x = y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.X, CUTOFF)
        e11 = e11_upper_bound(
            gains,
            H1_WEAK,
            H1_STRONG,
            single_pair_gain(H1_WEAK, bound_x.value),
            single_pair_gain(H1_STRONG, bound_x.value),
        )
        assert math.isclose(e11, 0.06830830648699965, rel_tol=1e-10)

    def test_complete_misalignment_saturates(self):
        table_x = yield_table(LinkSpec(0.0, misalignment=0.5), Basis.X)
        gains = grid_gains([H1_WEAK, H1_STRONG], [table_x])
        bound_x = y11_lower_bound(gains, H1_WEAK, H1_STRONG, Basis.X, CUTOFF)
        e11 = e11_upper_bound(
            gains,
            H1_WEAK,
            H1_STRONG,
            single_pair_gain(H1_WEAK, bound_x.value),
            single_pair_gain(H1_STRONG, bound_x.value),
        )
        assert e11 == 0.5
