"""The four text parsers on generated input.

Each input is a well-formed document whose values stray in and out of
their domains, either intact or with one place overwritten by arbitrary
text.  Every input either raises ConfigError or parses into a value
that its own type accepts; gain and rate CSVs also read back unchanged
after they are emitted.
"""

import math
import sys
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdiqkd.keyrate import SCENARIO_NAMES
from mdiqkd.optics import Basis
from mdiqkd.runner import (
    GAIN_HEADER,
    MAX_DISTANCES,
    MAX_GRID_POINTS,
    RATE_HEADER,
    ConfigError,
    ScanConfig,
    emit_csv,
    emit_gain_csv,
    parse_config,
    parse_distances,
    parse_gain_csv,
    parse_rate_csv,
)
from mdiqkd.source import TriggerClass

# enough examples to reach every branch of each parser, few enough to keep
# the suite's run time
FUZZ = settings(max_examples=100, deadline=None)

NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 2 * MAX_GRID_POINTS).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "1_0", "0x1", " 2 "]),
)
# where to overwrite a document, how many characters, and with what
CUTS = st.one_of(st.none(), st.tuples(
    st.integers(0, 1000), st.integers(0, 3),
    st.one_of(NUMBERS, st.text(max_size=4), st.sampled_from([",", ":", "=", "\n", "#", ""])),
))


def spliced(text, cut):
    """text with one place overwritten, or text itself when cut is None."""
    if cut is None:
        return text
    at, width, insert = cut
    at %= len(text) + 1
    return text[:at] + insert + text[at + width:]


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


UNIT = floats(0.0, 1.0)
RANGES = st.tuples(floats(0.0, 400.0), floats(0.0, 400.0), floats(0.0, 50.0)).map(":".join)
CONFIG_VALUES = {
    "distances": RANGES,
    "scenarios": st.lists(st.sampled_from(SCENARIO_NAMES + ("Q9", "h1"))).map(", ".join),
    "alpha": floats(-0.1, 1.0),
    "f": floats(0.9, 2.0),
    "cutoff": st.integers(1, 9).map(str),
    "grid_points": st.one_of(st.integers(3, 100), st.integers(-1, 10**12)).map(str),
    "mu_prime_min": floats(0.0, 1.0),
    "mu_prime_max": floats(0.5, 2.0),
    "eta_heralding_Q9": UNIT,
    **{key: st.one_of(UNIT, floats(-0.5, 1.5)) for key in (
        "e_d", "d_c", "eta_c", "eta_heralding", "d_heralding", "mu", "mu_fixed", "refine_tol",
        "eta_heralding_H1", "eta_heralding_t0",
    )},
}
CONFIG_LINES = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: CONFIG_VALUES[key].map(f"{key} = ".__add__)
)


def check_config(cfg):
    """What a scan relies on: every range holds, and every link and scenario it builds exists."""
    assert replace(cfg) == cfg
    assert len(cfg.distances) <= MAX_DISTANCES
    assert all(0.0 <= d < math.inf for d in cfg.distances)
    assert set(cfg.scenarios) <= set(SCENARIO_NAMES)
    assert 4 <= cfg.grid_points <= MAX_GRID_POINTS
    assert 0.0 < cfg.mu_prime_min < cfg.mu_prime_max < math.inf
    for distance in cfg.distances[:1] + cfg.distances[-1:]:
        cfg.link_for(distance)
    for name in set(cfg.scenarios) | set(cfg.scenario_heralding):
        cfg.scenario_kind(name)


@FUZZ
@given(st.lists(CONFIG_LINES, max_size=4).map("\n".join), CUTS)
@example("mu_prime_min = 2.0\n", None)
@example("eta_heralding_h1 = 1e400\ncutoff = 8\n", None)
def test_parse_config(text, cut):
    try:
        cfg = parse_config(spliced(text, cut))
    except ConfigError:
        return
    check_config(cfg)


@FUZZ
@given(RANGES, CUTS)
# the last point of a range may round past STOP, here past the largest float
@example(f"0:{sys.float_info.max!r}:{sys.float_info.max / 3!r}", None)
@example(f"0:{MAX_DISTANCES - 1}:1", None)
def test_parse_distances(text, cut):
    try:
        distances = parse_distances(spliced(text, cut))
    except ConfigError:
        return
    assert distances and list(distances) == sorted(distances)
    check_config(ScanConfig(distances=distances))


GAIN_ROWS = st.tuples(
    st.sampled_from(["Z", "X"]),
    st.one_of(st.sampled_from(["0.0", "-0.0", "0.5"]), floats(0.0, 2.0)),
    st.one_of(st.sampled_from(["0.0", "0.5"]), floats(0.0, 2.0)),
    st.sampled_from(["t", "nt", "all"]),
    UNIT,
    UNIT,
).map(",".join)


@FUZZ
@given(st.lists(GAIN_ROWS, max_size=6), CUTS)
def test_parse_gain_csv(rows, cut):
    try:
        table = parse_gain_csv(spliced("\n".join([GAIN_HEADER, *rows]), cut))
    except ConfigError:
        return
    for rec in table:
        assert isinstance(rec.basis, Basis) and isinstance(rec.trigger_class, TriggerClass)
        assert 0.0 <= rec.alice_intensity < math.inf and 0.0 <= rec.bob_intensity < math.inf
        assert 0.0 <= rec.gain <= 1.0 and 0.0 <= rec.qber <= 1.0 and rec.tail == 0.0
    text = emit_gain_csv(table)
    again = parse_gain_csv(text)
    assert list(again) == list(table)
    assert emit_gain_csv(again) == text


FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
RATE_ROWS = st.tuples(
    FINITE, st.sampled_from(SCENARIO_NAMES), FINITE, FINITE, FINITE, FINITE, FINITE,
    st.sampled_from(["0", "1"]),
).map(",".join)


@FUZZ
@given(st.lists(RATE_ROWS, max_size=6), CUTS)
def test_parse_rate_csv(rows, cut):
    try:
        points = parse_rate_csv(spliced("\n".join([RATE_HEADER, *rows]), cut))
    except ConfigError:
        return
    for p in points:
        assert p.scenario in SCENARIO_NAMES and isinstance(p.valid, bool)
        numbers = (p.distance_km, p.mu, p.mu_prime, p.y11_bound, p.e11_bound, p.rate)
        assert all(math.isfinite(x) for x in numbers)
    text = emit_csv(points)
    assert parse_rate_csv(text) == points
    assert emit_csv(parse_rate_csv(text)) == text
