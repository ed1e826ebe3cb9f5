"""Exact Fock-state model of the untrusted midpoint relay.

Alice and Bob each send number states of one BB84 polarization through a
lossy half-link into a Bell-state analyser: a 50/50 beamsplitter whose
two output ports each carry a polarizing splitter and two threshold
detectors.  A coincidence of exactly two detectors with orthogonal
polarizations announces a Bell outcome: same output port means Psi+,
opposite ports means Psi-.  Every other click pattern is discarded.

Each accepted pattern {i, j} is evaluated in closed form.  The other two
detectors must stay dark, so every photon sits in modes i and j; the
pattern's probability is the two-mode sum over how many photons land in
mode i, with the same signed amplitude terms a full four-mode expansion
would give those occupations, plus the single-mode and vacuum terms that
need dark clicks.  The numbers are exact up to float rounding.  Channel
loss commutes with the passive optics and is applied afterwards as
binomial thinning of the input photon numbers.

The sums are split by what they depend on.  Their terms' binomials,
exponents, group boundaries and Fock normalisations depend only on the
photon-count caps and are cached once per pair of caps.  The mode
amplitudes (state and misalignment) and the dark-count weights depend on
the relay; the tables are cached per relay and pair of bases.
Misalignment rotates only Bob's arm, so Alice's factors of those sums are
relay-independent and cached slot-major: groups sorted by how many terms
they keep, slot s the s-th term of every group with one.  Per relay one
take gathers Bob's powers and each slot adds into a prefix of the sums,
as np.add.reduceat sums a group (a0 plus its tail, left to right, or
pairwise at 8 terms) and np.bincount a cell (from 0.0, in n order).
Terms whose Alice factor is 0.0 (most of Z's) are dropped: a group keeps
all or at most one, and zeros only flip a zero's sign, which squaring
removes.  A link's Z and X tables share one thinning matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "SAFETY_CAP",
    "Basis",
    "BB84State",
    "BsmOutcome",
    "LinkSpec",
    "YieldTable",
    "thin",
    "bs_output",
    "bsm_outcome_distribution",
    "yield_table",
]

# hard limit on photons entering one Bell-state measurement, far beyond
# any cutoff a gain series needs
SAFETY_CAP = 16

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class BB84State(Enum):
    """Single-photon polarization states sent by the parties."""

    H = "H"
    V = "V"
    PLUS = "+"
    MINUS = "-"


class Basis(Enum):
    Z = "Z"
    X = "X"


BASIS_STATES = {
    Basis.Z: (BB84State.H, BB84State.V),
    Basis.X: (BB84State.PLUS, BB84State.MINUS),
}

# bit convention: first state of each basis encodes 0, second encodes 1
STATE_BIT = {
    BB84State.H: 0,
    BB84State.V: 1,
    BB84State.PLUS: 0,
    BB84State.MINUS: 1,
}

_BASIS_OF = {state: states for states in BASIS_STATES.values() for state in states}


class BsmOutcome(Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    FAIL = "fail"


@dataclass(frozen=True)
class LinkSpec:
    """Physical parameters of one symmetric link into the relay."""

    total_distance_km: float
    attenuation_db_per_km: float = 0.2
    relay_efficiency: float = 0.145
    relay_dark_rate: float = 3e-6
    misalignment: float = 0.015
    cutoff: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.total_distance_km < math.inf:
            raise ValueError(f"distance must be finite and >= 0, got {self.total_distance_km}")
        if not 0.0 <= self.attenuation_db_per_km < math.inf:
            raise ValueError(
                f"attenuation must be finite and >= 0, got {self.attenuation_db_per_km}"
            )
        if not 0.0 <= self.relay_efficiency <= 1.0:
            raise ValueError(f"relay efficiency must lie in [0, 1], got {self.relay_efficiency}")
        if not 0.0 <= self.relay_dark_rate <= 1.0:
            raise ValueError(f"relay dark rate must lie in [0, 1], got {self.relay_dark_rate}")
        if not 0.0 <= self.misalignment <= 1.0:
            raise ValueError(f"misalignment must lie in [0, 1], got {self.misalignment}")
        # what operator.index takes: numpy integers too, but no float
        if not (hasattr(type(self.cutoff), "__index__") and self.cutoff >= 1):
            raise ValueError(f"cutoff must be a positive integer, got {self.cutoff}")

    @property
    def survival(self) -> float:
        """Per-photon survival from one party to a relay detector.

        Combines half the total fibre length with the relay's detector
        efficiency.
        """
        fibre = 10.0 ** (-self.attenuation_db_per_km * (self.total_distance_km / 2.0) / 10.0)
        return self.relay_efficiency * fibre


@dataclass(frozen=True)
class YieldTable:
    """Success and error probabilities per launched photon pair (m, n).

    yields[m][n] is the probability that m photons from Alice and n from
    Bob (before loss) produce an accepted Bell announcement; errors[m][n]
    is the bit error fraction among those successes, averaged over the
    four equiprobable state pairs of the basis.
    """

    basis: Basis
    cutoff: int
    yields: np.ndarray
    errors: np.ndarray


def thin(m: int, survival: float) -> np.ndarray:
    """Binomial loss acting on an m-photon pulse.

    Returns the distribution over surviving counts k = 0..m as an array;
    thin(2, 1.0) is [0, 0, 1].
    """
    if m < 0:
        raise ValueError(f"photon number must be >= 0, got {m}")
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival must lie in [0, 1], got {survival}")
    return np.array(
        [math.comb(m, k) * survival**k * (1.0 - survival) ** (m - k) for k in range(m + 1)]
    )


_COUNTS = range(SAFETY_CAP + 1)  # C(m, k), 0.0 where k > m, and the photons lost, m - k (0 there)
_BINOMIALS = np.array([[math.comb(m, k) for k in _COUNTS] for m in _COUNTS], dtype=float)
_LOST = np.array([[max(m - k, 0) for k in _COUNTS] for m in _COUNTS])


# one slot: a link's two tables, built back to back, share one matrix
@lru_cache(maxsize=1)
def _thin_matrix(n_max: int, survival: float) -> np.ndarray:
    """Read-only matrix T with T[m, k] = P(k of m photons survive), rounded as thin rounds
    it, (C(m, k) s^k) (1 - s)^(m - k), with each power of s and of 1 - s taken once."""
    s_k = np.array([survival**k for k in range(n_max + 1)])
    t_j = np.array([(1.0 - survival) ** j for j in range(n_max + 1)])
    t_mat = _BINOMIALS[: n_max + 1, : n_max + 1] * s_k * t_j.take(_LOST[: n_max + 1, : n_max + 1])
    t_mat.flags.writeable = False
    return t_mat


def bs_output(j: int, k: int) -> dict[tuple[int, int], float]:
    """Output distribution of a 50/50 beamsplitter fed |j, k> of one polarization.

    Keys are output occupations (p, q) with p + q = j + k.  Two-photon
    interference is built in: bs_output(1, 1) puts zero weight on (1, 1).
    """
    if j < 0 or k < 0:
        raise ValueError(f"photon numbers must be >= 0, got ({j}, {k})")
    if j + k > SAFETY_CAP:
        raise ValueError(f"photon total {j + k} exceeds safety cap {SAFETY_CAP}")
    amps: dict[tuple[int, int], float] = {}
    total = j + k
    scale = 2.0 ** (-(total) / 2.0) / math.sqrt(math.factorial(j) * math.factorial(k))
    for p in range(total + 1):
        q = total - p
        coeff = 0
        for i in range(max(0, p - k), min(j, p) + 1):
            coeff += math.comb(j, i) * math.comb(k, p - i) * (-1) ** (k - p + i)
        if coeff:
            amps[(p, q)] = coeff * scale * math.sqrt(math.factorial(p) * math.factorial(q))
    out = {pq: a * a for pq, a in amps.items()}
    # drop float dust so impossible outcomes are reported as absent
    return {pq: v for pq, v in out.items() if v > 1e-30}


def _jones(state: BB84State) -> tuple[float, float]:
    if state is BB84State.H:
        return (1.0, 0.0)
    if state is BB84State.V:
        return (0.0, 1.0)
    if state is BB84State.PLUS:
        return (_SQRT1_2, _SQRT1_2)
    return (_SQRT1_2, -_SQRT1_2)


def _rotated(vec: tuple[float, float], theta: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return (c * vec[0] - s * vec[1], s * vec[0] + c * vec[1])


# detector modes are ordered (cH, cV, dH, dV); each accepted pattern is a
# pair of modes (i, j), the two Psi+ patterns first
_PATTERN_I = np.array([0, 2, 0, 1])
_PATTERN_J = np.array([1, 3, 3, 2])


@lru_cache(maxsize=None)
def _pattern_terms(cap_a: int, cap_b: int) -> tuple[np.ndarray, ...]:
    """Relay-independent part of the two-mode pattern sums up to the caps.

    One term per (k_a, k_b, n, l): n of the k = k_a + k_b photons land in
    mode i, 0 < n < k, and l of those n come from Alice.  Returns each
    term's binomials C(k_a, l) C(k_b, n - l) and the flat indices of its
    power pairs, (l, k_a - l) for Alice's amplitudes in modes (i, j) and
    (n - l, k_b - n + l) for Bob's; the start of each (k_a, k_b, n) group,
    its normalisation n! (k - n)! / (k_a! k_b!) and its flat (k_a, k_b)
    cell; and C(k, k_a) per cell, zero at k = 0, which weights the terms
    with every photon in one mode.
    """
    coeff, alice, bob, starts, norm, cell = [], [], [], [], [], []
    for ka in range(cap_a + 1):
        for kb in range(cap_b + 1):
            k = ka + kb
            for n in range(1, k):
                starts.append(len(coeff))
                norm.append(
                    math.factorial(n) * math.factorial(k - n)
                    / (math.factorial(ka) * math.factorial(kb))
                )
                cell.append(ka * (cap_b + 1) + kb)
                for l in range(max(0, n - kb), min(ka, n) + 1):
                    coeff.append(float(math.comb(ka, l) * math.comb(kb, n - l)))
                    alice.append(l * (cap_a + 1) + ka - l)
                    bob.append((n - l) * (cap_b + 1) + kb - n + l)
    single = np.array(
        [[float(math.comb(ka + kb, ka)) for kb in range(cap_b + 1)] for ka in range(cap_a + 1)]
    )
    single[0, 0] = 0.0
    out = (
        np.array(coeff),
        np.array(alice, dtype=np.intp),
        np.array(bob, dtype=np.intp),
        np.array(starts, dtype=np.intp),
        np.array(norm),
        np.array(cell, dtype=np.intp),
        single,
    )
    for arr in out:
        arr.flags.writeable = False
    return out


def _slot_layout(counts: np.ndarray, members: np.ndarray, n_b: int) -> tuple:
    """Items of counts[i] members, listed item by item, slot-major: items stably sorted by count,
    most first (counted, not argsorted); members by slot, slot s the s-th member of every item
    with more than s (a prefix); and each slot's (offset, length), each member n_b times."""
    sizes = (len(counts) - np.cumsum(np.bincount(counts))[:-1]).tolist()
    order = np.concatenate([np.flatnonzero(counts == c) for c in range(len(sizes), -1, -1)])
    first = np.cumsum(counts) - counts
    slotted = [members[first[order[:n]] + s] for s, n in enumerate(sizes)] or [members]
    slots = tuple((int(i) * n_b, n * n_b) for i, n in zip(np.cumsum([0, *sizes]), sizes))
    return order, np.concatenate(slotted), slots


def _running_sums(parts: list[np.ndarray]) -> np.ndarray:
    """Each item's slots summed left to right, as from 0.0 (but for the sign of a zero)."""
    out = parts[0].copy() if parts else np.zeros(0)
    for part in parts[1:]:
        out[: len(part)] += part
    return out


def _group_sums(parts: list[np.ndarray]) -> np.ndarray:
    """np.add.reduceat's sum of each group of at most 9 terms, from its slots: a0 plus the
    tail a1 + ... + a_{L-1}, summed left to right below 8 terms and at 8 in numpy's
    pairwise form ((a1 + a2) + (a3 + a4)) + ((a5 + a6) + (a7 + a8))."""
    amps, tail = _running_sums(parts[:1]), _running_sums(parts[1:8])
    if len(parts) == 9:
        a = [part[: len(parts[8])] for part in parts[1:]]
        tail[: len(a[0])] = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    amps[: len(tail)] += tail
    return amps


@lru_cache(maxsize=16)  # a sweep of photon counts beyond the cutoff builds one per pair of caps
def _term_plan(states_a: tuple[BB84State, ...], n_b: int, cap_a: int, cap_b: int):
    """_pair_tables' relay-independent half, slot-major (module docstring), read-only: each
    kept term's Alice factor per Bob state and its (pattern, power pair) row of Bob's pair_v,
    each group's norm, each bin's groups and flat entries, Alice's single-mode factors, slots.
    A group is an (Alice's state, Bob's state, pattern, (k_a, k_b, n)) sum of _pattern_terms,
    a bin an (Alice's state, Bob's state, pattern, k_a, k_b) entry."""
    coeff, alice, bob, starts, norm, cell, single = _pattern_terms(cap_a, cap_b)
    u = np.array([(x, y, x, y) for x, y in map(_jones, states_a)]) * _SQRT1_2
    pow_u = u[:, :, None] ** np.arange(cap_a + 1)
    pair_u = (pow_u[:, _PATTERN_I, :, None] * pow_u[:, _PATTERN_J, None, :]).reshape(len(u), 4, -1)
    terms = (coeff * pair_u.take(alice, axis=-1)).reshape(len(u) * 4, -1)
    counts = np.add.reduceat((terms != 0.0).astype(np.intp), starts, axis=-1)
    lengths = np.diff(starts, append=len(coeff))
    # slot sums are reduceat's only for groups of at most 9 terms keeping all or at most one
    if lengths.max(initial=0) > 9 or not ((counts == lengths) | (counts <= 1)).all():
        raise AssertionError(f"no exact slot layout for caps ({cap_a}, {cap_b})")
    n_groups, size, n_pairs = len(starts), (cap_a + 1) * (cap_b + 1), (cap_b + 1) ** 2
    counts, live, terms = counts.ravel(), np.flatnonzero(counts), terms.ravel()
    order, term, term_slots = _slot_layout(counts, np.flatnonzero(terms), n_b)
    per_bin = np.bincount(live // n_groups * size + cell[live % n_groups])
    bin_order, member, bin_slots = _slot_layout(per_bin, live, n_b)
    state_a, entry = np.divmod(bin_order[: np.count_nonzero(per_bin)], 4 * size)
    rank, by_b = np.empty_like(order), np.arange(n_b)
    rank[order] = np.arange(len(order))  # each group's place in the slot-major order
    plan = (
        np.repeat(terms.take(term), n_b),
        (np.arange(4)[:, None] * n_pairs + bob).ravel().take(term % (4 * len(coeff))),
        np.repeat(norm[order[: len(live)] % n_groups], n_b),
        (rank[member][:, None] * n_b + by_b).ravel(),
        (((state_a * n_b)[:, None] + by_b) * 4 * size + entry[:, None]).ravel(),
        single * (pow_u * pow_u)[:, None, :, :, None],
    )
    for arr in plan:
        arr.flags.writeable = False
    return plan + (term_slots, bin_slots)


# bounded: every relay setting adds one entry per pair of bases and caps,
# and a relay sweep never returns to an old setting
@lru_cache(maxsize=64)
def _pair_tables(
    states_a: tuple[BB84State, ...],
    states_b: tuple[BB84State, ...],
    misalignment: float,
    dark_rate: float,
    cap_a: int,
    cap_b: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Psi+/Psi- probabilities of every state pair for every surviving pair count up to the caps.

    plus[i, j, k_a, k_b] (minus likewise) is the chance that k_a photons of states_a[i]
    and k_b of states_b[j] announce Psi+; one array pass rounds as a pass per pair.

    Misalignment is modelled as a polarization rotation of Bob's arm by
    theta with sin(theta)^2 equal to the misalignment parameter.  These
    tables depend only on the relay, not on channel loss, so they are
    cached and reused across distances.

    Pattern (i, j) fires when no photon reaches the other two modes,
    their detectors stay dark, and each empty mode of the pair dark
    clicks: (1 - d)^2 [P_ij + d (P_i + P_j) + d^2 [k = 0]], where P_ij is
    the chance that both modes are occupied and P_i the chance that all
    k photons are in mode i.  The terms of P_ij come from _pattern_terms and
    Alice's factors from _term_plan; per relay, Bob's amplitude powers are gathered
    over its slot-major layout, and the slots are summed in np.add.reduceat's and
    np.bincount's orders (the module docstring says why that is exact).
    """
    theta = math.asin(math.sqrt(misalignment))
    # per state, the amplitudes on modes (cH, cV, dH, dV); Bob's port d picks up the minus sign
    jones_b = [_rotated(_jones(s), theta) for s in states_b]
    v = np.array([(x, y, -x, -y) for x, y in jones_b]) * _SQRT1_2
    plan = _term_plan(states_a, len(states_b), cap_a, cap_b)
    factors, rows, norm, bin_take, bins, alice_alone, term_slots, bin_slots = plan
    pow_v = v[:, :, None] ** np.arange(cap_b + 1)
    # per state and pattern, every product (power of mode i) * (power of mode j)
    pair_v = pow_v[:, _PATTERN_I, :, None] * pow_v[:, _PATTERN_J, None, :]
    # one row per (pattern, power pair), one column per state: each term takes its row
    terms = pair_v.reshape(len(v), -1).T.copy().take(rows, axis=0).ravel()
    terms *= factors  # in place: one term-sized temporary
    amps = _group_sums([terms[i : i + n] for i, n in term_slots])
    weights = (norm * amps * amps).take(bin_take)
    both = np.zeros((len(states_a), len(states_b), 4, cap_a + 1, cap_b + 1))
    both.ravel()[bins] = _running_sums([weights[i : i + n] for i, n in bin_slots])
    alone = alice_alone * (pow_v * pow_v)[None, :, :, None, :]
    d = dark_rate
    probs = both + d * (alone[:, :, _PATTERN_I] + alone[:, :, _PATTERN_J])
    probs[..., 0, 0] += d * d  # no photon: both modes dark click
    probs *= (1.0 - d) ** 2
    plus = probs[:, :, 0] + probs[:, :, 1]
    minus = probs[:, :, 2] + probs[:, :, 3]
    plus.flags.writeable = minus.flags.writeable = False
    return plus, minus


def bsm_outcome_distribution(
    m: int,
    n: int,
    alice_state: BB84State,
    bob_state: BB84State,
    link: LinkSpec,
) -> dict[BsmOutcome, float]:
    """Outcome distribution when Alice launches m photons and Bob launches n.

    Loss is applied as independent binomial thinning of each side before
    the relay; the fail probability is the exact complement of the two
    announced outcomes.
    """
    if m < 0 or n < 0:
        raise ValueError(f"photon numbers must be >= 0, got ({m}, {n})")
    if m + n > SAFETY_CAP:
        raise ValueError(f"photon total {m + n} exceeds safety cap {SAFETY_CAP}")
    # table entries do not depend on the caps, so counts within the cutoff
    # read the cutoff-sized entry of the states' bases (yield_table's when
    # they share one); the contiguous copy keeps the products below
    # rounding as on a table built for exactly these caps
    cap_a, cap_b = (
        (link.cutoff, link.cutoff) if max(m, n) <= link.cutoff <= SAFETY_CAP // 2 else (m, n)
    )
    i, j = STATE_BIT[alice_state], STATE_BIT[bob_state]
    plus_tab, minus_tab = (
        np.ascontiguousarray(tab[i, j, : m + 1, : n + 1])
        for tab in _pair_tables(
            _BASIS_OF[alice_state], _BASIS_OF[bob_state],
            link.misalignment, link.relay_dark_rate, cap_a, cap_b,
        )
    )
    ta, tb = thin(m, link.survival), thin(n, link.survival)
    p_plus = float(ta @ plus_tab @ tb)
    p_minus = float(ta @ minus_tab @ tb)
    return {
        BsmOutcome.PSI_PLUS: p_plus,
        BsmOutcome.PSI_MINUS: p_minus,
        BsmOutcome.FAIL: 1.0 - p_plus - p_minus,
    }


def yield_table(link: LinkSpec, basis: Basis) -> YieldTable:
    """Ground-truth yields and error fractions for all (m, n) up to the cutoff.

    State pairs within the basis are taken equiprobable.  In the Z basis
    both announcements imply anti-correlated bits, so every success from
    an equal-bit pair is an error.  In the X basis Psi- implies
    anti-correlated and Psi+ correlated bits, so equal-bit pairs count
    their Psi- successes as errors and unequal-bit pairs their Psi+ ones.
    """
    if link.cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 for a usable table, got {link.cutoff}")
    if 2 * link.cutoff > SAFETY_CAP:
        raise ValueError(
            f"cutoff {link.cutoff} needs up to {2 * link.cutoff} photons, cap is {SAFETY_CAP}"
        )
    n_max = link.cutoff
    succ = np.zeros((n_max + 1, n_max + 1))
    wrong = np.zeros((n_max + 1, n_max + 1))
    states = BASIS_STATES[basis]
    tables = _pair_tables(states, states, link.misalignment, link.relay_dark_rate, n_max, n_max)
    for i, sa in enumerate(states):
        for j, sb in enumerate(states):
            plus_tab, minus_tab = (tab[i, j] for tab in tables)
            succ += plus_tab
            succ += minus_tab
            same_bit = STATE_BIT[sa] == STATE_BIT[sb]
            if same_bit == (basis is Basis.Z):
                wrong += plus_tab
            if same_bit:
                wrong += minus_tab
    succ *= 0.25
    wrong *= 0.25
    t_mat = _thin_matrix(n_max, link.survival)
    yields = t_mat @ succ @ t_mat.T
    wrong_mixed = t_mat @ wrong @ t_mat.T
    errors = np.divide(
        wrong_mixed, np.maximum(yields, 1e-300), out=np.zeros_like(wrong_mixed), where=yields > 0
    )
    yields.flags.writeable = False
    errors.flags.writeable = False
    return YieldTable(basis=basis, cutoff=n_max, yields=yields, errors=errors)
