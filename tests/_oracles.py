"""Independent reference implementations for pinning expected values.

Everything in this file is deliberately written with a different
representation than the library under test: states are dicts of
occupation tuples built by multiplying one creation operator at a time,
loss is an explicit binomial mixture over surviving counts, detector
patterns are enumerated over all sixteen click subsets, and gain series
are plain scalar loops.  Agreement between these and the array pipeline
is therefore evidence, not tautology.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from mdiqkd.optics import BASIS_STATES, STATE_BIT, Basis, BB84State
from mdiqkd.source import DistributionKind, SourceSpec, TriggerClass

SQ2 = 1.0 / math.sqrt(2.0)


def expand_product(rows: list[tuple[float, ...]], n_modes: int) -> dict[tuple[int, ...], float]:
    """Multiply out a product of single-photon creation operators.

    Each row lists the amplitude placed on every output mode by one
    photon.  The result maps mode occupation tuples to the polynomial
    coefficient of the corresponding monomial.
    """
    poly: dict[tuple[int, ...], float] = {(0,) * n_modes: 1.0}
    for row in rows:
        grown: dict[tuple[int, ...], float] = {}
        for occ, coeff in poly.items():
            for mode, amp in enumerate(row):
                if amp == 0.0:
                    continue
                bumped = list(occ)
                bumped[mode] += 1
                key = tuple(bumped)
                grown[key] = grown.get(key, 0.0) + coeff * amp
        poly = grown
    return poly


def _occ_weight(occ: tuple[int, ...]) -> float:
    w = 1.0
    for n in occ:
        w *= math.factorial(n)
    return w


def fock_probs(rows: list[tuple[float, ...]], n_modes: int, input_norm: float) -> dict:
    """Measurement probabilities of the expanded state in the number basis."""
    poly = expand_product(rows, n_modes)
    probs = {}
    for occ, coeff in poly.items():
        amp = coeff * math.sqrt(_occ_weight(occ)) / input_norm
        p = amp * amp
        if p > 1e-30:
            probs[occ] = p
    return probs


def bs_probs_oracle(j: int, k: int) -> dict[tuple[int, int], float]:
    """Two-mode 50/50 beamsplitter output distribution for input |j, k>."""
    rows = [(SQ2, SQ2)] * j + [(SQ2, -SQ2)] * k
    norm = math.sqrt(math.factorial(j) * math.factorial(k))
    return fock_probs(rows, 2, norm)


def _jones(state: BB84State) -> tuple[float, float]:
    return {
        BB84State.H: (1.0, 0.0),
        BB84State.V: (0.0, 1.0),
        BB84State.PLUS: (SQ2, SQ2),
        BB84State.MINUS: (SQ2, -SQ2),
    }[state]


# detector mode order: (port-c H, port-c V, port-d H, port-d V)
_PLUS_PATTERNS = ({0, 1}, {2, 3})
_MINUS_PATTERNS = ({0, 3}, {1, 2})


# memos sized to one relay's checked cells: every (m, n) cell re-expands the
# same (k_a, k_b, states) relay probabilities and their occupations
@functools.lru_cache(maxsize=512)
def pattern_probs_oracle(occ: tuple[int, ...], dark: float) -> tuple[float, float]:
    """Probabilities of the two accepted click patterns for one occupation.

    Enumerates every subset of clicking detectors: occupied detectors
    click surely, empty ones click with the dark rate.
    """
    plus = minus = 0.0
    for bits in range(16):
        clicks = {i for i in range(4) if bits >> i & 1}
        p = 1.0
        for i in range(4):
            if occ[i] > 0:
                p *= 1.0 if i in clicks else 0.0
            else:
                p *= dark if i in clicks else 1.0 - dark
        if p == 0.0:
            continue
        if clicks in _PLUS_PATTERNS:
            plus += p
        elif clicks in _MINUS_PATTERNS:
            minus += p
    return plus, minus


@functools.lru_cache(maxsize=512)
def relay_probs_oracle(
    k_a: int,
    k_b: int,
    state_a: BB84State,
    state_b: BB84State,
    misalignment: float,
    dark_rate: float,
) -> tuple[float, float]:
    """Accepted-pattern probabilities for photons that reached the relay."""
    theta = math.asin(math.sqrt(misalignment))
    ha, va = _jones(state_a)
    hb0, vb0 = _jones(state_b)
    hb = math.cos(theta) * hb0 - math.sin(theta) * vb0
    vb = math.sin(theta) * hb0 + math.cos(theta) * vb0
    row_a = (ha * SQ2, va * SQ2, ha * SQ2, va * SQ2)
    row_b = (hb * SQ2, vb * SQ2, -hb * SQ2, -vb * SQ2)
    rows = [row_a] * k_a + [row_b] * k_b
    norm = math.sqrt(math.factorial(k_a) * math.factorial(k_b))
    plus = minus = 0.0
    for occ, prob in fock_probs(rows, 4, norm).items():
        p_plus, p_minus = pattern_probs_oracle(occ, dark_rate)
        plus += prob * p_plus
        minus += prob * p_minus
    return plus, minus


def binom_row_oracle(m: int, survival: float) -> list[float]:
    return [
        math.comb(m, k) * survival**k * (1.0 - survival) ** (m - k) for k in range(m + 1)
    ]


def outcome_probs_oracle(
    m: int,
    n: int,
    state_a: BB84State,
    state_b: BB84State,
    survival: float,
    misalignment: float,
    dark_rate: float,
) -> tuple[float, float]:
    """Accepted-pattern probabilities for launched pulses, loss included."""
    plus = minus = 0.0
    loss_a = binom_row_oracle(m, survival)
    loss_b = binom_row_oracle(n, survival)
    for ka, wa in enumerate(loss_a):
        for kb, wb in enumerate(loss_b):
            p, q = relay_probs_oracle(ka, kb, state_a, state_b, misalignment, dark_rate)
            plus += wa * wb * p
            minus += wa * wb * q
    return plus, minus


def yield_cell_oracle(
    m: int,
    n: int,
    basis: Basis,
    survival: float,
    misalignment: float,
    dark_rate: float,
) -> tuple[float, float]:
    """One (m, n) cell of the ground-truth table, averaged over state pairs."""
    succ = wrong = 0.0
    for sa in BASIS_STATES[basis]:
        for sb in BASIS_STATES[basis]:
            plus, minus = outcome_probs_oracle(m, n, sa, sb, survival, misalignment, dark_rate)
            succ += 0.25 * (plus + minus)
            same_bit = STATE_BIT[sa] == STATE_BIT[sb]
            if basis is Basis.Z:
                if same_bit:
                    wrong += 0.25 * (plus + minus)
            else:
                wrong += 0.25 * (minus if same_bit else plus)
    return succ, (wrong / succ if succ > 0.0 else 0.0)


def pn_oracle(kind: DistributionKind, x: float, n: int) -> float:
    """Photon number weight in its plain textbook form; fine for small n."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if kind is DistributionKind.POISSON:
        return math.exp(-x) * x**n / math.factorial(n)
    return x**n / (1.0 + x) ** (n + 1)


def side_lists_oracle(spec: SourceSpec, cutoff: int) -> tuple[list[float], list[float], float]:
    """Interior weights, vacuum-row weights, and zero-intensity weight."""
    p = [pn_oracle(spec.kind, spec.intensity, m) for m in range(cutoff + 1)]
    if spec.trigger_class is TriggerClass.ALL:
        return list(p), list(p), 1.0
    eta = spec.heralding.efficiency
    d = spec.heralding.dark_rate
    if spec.trigger_class is TriggerClass.TRIGGERED:
        interior = [(1.0 - (1.0 - eta) ** m) * p[m] for m in range(cutoff + 1)]
        vac = [(1.0 - (1.0 - d) * (1.0 - eta) ** m) * p[m] for m in range(cutoff + 1)]
        return interior, vac, d
    interior = [(1.0 - eta) ** m * p[m] for m in range(cutoff + 1)]
    vac = [(1.0 - d) * (1.0 - eta) ** m * p[m] for m in range(cutoff + 1)]
    return interior, vac, 1.0 - d


def pair_coefficients(pair: tuple[SourceSpec, SourceSpec], cutoff: int) -> np.ndarray:
    """Products of the two sides' interior weights, index (m, n)."""
    wa = side_lists_oracle(pair[0], cutoff)[0]
    wb = side_lists_oracle(pair[1], cutoff)[0]
    return np.array([[a * b for b in wb] for a in wa])


def s11_gains(
    y11: float, mu_prime: float, eta: float, kind: DistributionKind = DistributionKind.POISSON
) -> tuple[float, float]:
    """Single-photon-pair gain inside the two heralded classes at mu_prime.

    Returns (triggered, non_triggered): the (1,1) interior coefficients
    eta^2 P_1^2 and (1-eta)^2 P_1^2 times the supplied yield; heralding
    dark counts do not enter interior coefficients.
    """
    if y11 < 0.0:
        raise ValueError(f"yield must be >= 0, got {y11}")
    p1 = pn_oracle(kind, mu_prime, 1)
    base = p1 * p1 * y11
    return (eta * eta * base, (1.0 - eta) * (1.0 - eta) * base)


def record_oracle(spec_a: SourceSpec, spec_b: SourceSpec, yields, errors) -> tuple[float, float]:
    """Gain and error-weighted gain of one record, by scalar loops."""
    cutoff = len(yields) - 1
    aw, av, a0 = side_lists_oracle(spec_a, cutoff)
    bw, bv, b0 = side_lists_oracle(spec_b, cutoff)
    gain = wrong = 0.0
    for m in range(1, cutoff + 1):
        for n in range(1, cutoff + 1):
            gain += aw[m] * bw[n] * yields[m][n]
            wrong += aw[m] * bw[n] * yields[m][n] * errors[m][n]
    for m in range(cutoff + 1):
        gain += b0 * av[m] * yields[m][0]
        wrong += b0 * av[m] * yields[m][0] * errors[m][0]
    for n in range(cutoff + 1):
        gain += a0 * bv[n] * yields[0][n]
        wrong += a0 * bv[n] * yields[0][n] * errors[0][n]
    gain -= a0 * b0 * yields[0][0]
    wrong -= a0 * b0 * yields[0][0] * errors[0][0]
    return gain, wrong


def single_pair_tables_reference(
    state_a: BB84State,
    state_b: BB84State,
    misalignment: float,
    dark_rate: float,
    cap_a: int,
    cap_b: int,
) -> tuple[np.ndarray, np.ndarray]:
    """optics._pair_tables as it was written for one state pair, before batching.

    Unlike the oracles above this is not independent: it is the library's
    own former arithmetic, kept so that the batched tables can be pinned
    to it bit for bit.
    """
    from mdiqkd.optics import _PATTERN_I, _PATTERN_J, _SQRT1_2, _pattern_terms, _rotated
    from mdiqkd.optics import _jones as jones

    theta = math.asin(math.sqrt(misalignment))
    jones_a = jones(state_a)
    jones_b = _rotated(jones(state_b), theta)
    u = np.array([jones_a[0], jones_a[1], jones_a[0], jones_a[1]]) * _SQRT1_2
    v = np.array([jones_b[0], jones_b[1], -jones_b[0], -jones_b[1]]) * _SQRT1_2
    coeff, alice, bob, starts, norm, cell, single = _pattern_terms(cap_a, cap_b)
    pow_u = u[:, None] ** np.arange(cap_a + 1)
    pow_v = v[:, None] ** np.arange(cap_b + 1)
    pair_u = (pow_u[_PATTERN_I, :, None] * pow_u[_PATTERN_J, None, :]).reshape(4, -1)
    pair_v = (pow_v[_PATTERN_I, :, None] * pow_v[_PATTERN_J, None, :]).reshape(4, -1)
    amps = np.add.reduceat(coeff * pair_u[:, alice] * pair_v[:, bob], starts, axis=1)
    shape = (cap_a + 1, cap_b + 1)
    size = shape[0] * shape[1]
    both = np.bincount(
        (cell + size * np.arange(4)[:, None]).ravel(),
        weights=(norm * amps * amps).ravel(),
        minlength=4 * size,
    ).reshape(4, *shape)
    alone = single * (pow_u * pow_u)[:, :, None] * (pow_v * pow_v)[:, None, :]
    empty = np.zeros(shape)
    empty[0, 0] = 1.0
    d = dark_rate
    probs = (1.0 - d) ** 2 * (
        both + d * (alone[_PATTERN_I] + alone[_PATTERN_J]) + d * d * empty
    )
    return probs[0] + probs[1], probs[2] + probs[3]
