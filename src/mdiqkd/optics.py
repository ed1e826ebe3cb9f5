"""Exact Fock-state model of the untrusted midpoint relay.

Alice and Bob each send number states of one BB84 polarization through a
lossy half-link into a Bell-state analyser: a 50/50 beamsplitter whose
two output ports each carry a polarizing splitter and two threshold
detectors.  A coincidence of exactly two detectors with orthogonal
polarizations announces a Bell outcome: same output port means Psi+,
opposite ports means Psi-.  Every other click pattern is discarded.

Amplitudes are computed by dense multinomial expansion over the four
detector modes (cH, cV, dH, dV), so the numbers are exact up to float
rounding.  Channel loss commutes with the passive optics and is applied
afterwards as binomial thinning of the input photon numbers.

The expansion is split by what it depends on.  The mode compositions,
multinomial coefficients, the scatter of (Alice term, Bob term) products
onto joint occupations, and each occupation's Fock normalisation depend
only on the photon counts (k_a, k_b) and are cached once per pair of
counts.  The mode amplitudes (state and misalignment) and the dark-count
click weights depend on the relay and are computed per relay setting.
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

# hard limit on photons entering one Bell-state measurement; the dense
# expansion grows as (m+n)^3 terms and this is far beyond any cutoff a
# gain series needs
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
        if not self.total_distance_km >= 0.0:
            raise ValueError(f"distance must be >= 0, got {self.total_distance_km}")
        if not self.attenuation_db_per_km >= 0.0:
            raise ValueError(f"attenuation must be >= 0, got {self.attenuation_db_per_km}")
        if not 0.0 <= self.relay_efficiency <= 1.0:
            raise ValueError(f"relay efficiency must lie in [0, 1], got {self.relay_efficiency}")
        if not 0.0 <= self.relay_dark_rate <= 1.0:
            raise ValueError(f"relay dark rate must lie in [0, 1], got {self.relay_dark_rate}")
        if not 0.0 <= self.misalignment <= 1.0:
            raise ValueError(f"misalignment must lie in [0, 1], got {self.misalignment}")
        if int(self.cutoff) != self.cutoff or self.cutoff < 1:
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


def _binom_pmf(m: int, k: int, survival: float) -> float:
    """P(k of m photons survive), as C(m, k) s^k (1 - s)^(m - k); 0 for k > m."""
    if k > m:
        return 0.0
    return math.comb(m, k) * survival**k * (1.0 - survival) ** (m - k)


def thin(m: int, survival: float) -> np.ndarray:
    """Binomial loss acting on an m-photon pulse.

    Returns the distribution over surviving counts k = 0..m as an array;
    thin(2, 1.0) is [0, 0, 1].
    """
    if m < 0:
        raise ValueError(f"photon number must be >= 0, got {m}")
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival must lie in [0, 1], got {survival}")
    return np.array([_binom_pmf(m, k, survival) for k in range(m + 1)])


def _thin_matrix(n_max: int, survival: float) -> np.ndarray:
    """Matrix T with T[m, k] = P(k of m photons survive)."""
    return np.array(
        [[_binom_pmf(m, k, survival) for k in range(n_max + 1)] for m in range(n_max + 1)]
    )


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


@lru_cache(maxsize=None)
def _compositions(total: int) -> np.ndarray:
    """All ways to place `total` photons into the four detector modes."""
    rows = [
        (n0, n1, n2, n3)
        for n0 in range(total + 1)
        for n1 in range(total - n0 + 1)
        for n2 in range(total - n0 - n1 + 1)
        for n3 in (total - n0 - n1 - n2,)
    ]
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    arr.flags.writeable = False
    return arr


_FACT = np.array([float(math.factorial(i)) for i in range(SAFETY_CAP + 1)])


@lru_cache(maxsize=None)
def _multinomials(total: int) -> np.ndarray:
    """total! / (n0! n1! n2! n3!) for each row of _compositions(total)."""
    comps = _compositions(total)
    coeff = _FACT[total] / (
        _FACT[comps[:, 0]] * _FACT[comps[:, 1]] * _FACT[comps[:, 2]] * _FACT[comps[:, 3]]
    )
    coeff.flags.writeable = False
    return coeff


def _side_terms(count: int, amps: tuple[float, float, float, float]) -> np.ndarray:
    """Multinomial expansion of one party's count-photon creation operator.

    Returns the operator coefficient of each row of _compositions(count),
    without the final 1/sqrt(count!) normalisation.  The compositions and
    multinomial coefficients are cached per count; only the powers of the
    mode amplitudes are computed here, once per relay and party.
    """
    comps = _compositions(count)
    # numpy integer exponents select numpy's scalar power; Python's float
    # power and numpy's array power round some values differently in the
    # last bit, which would change the byte-stable CSV outputs
    powers = np.array([[amp**n for n in np.arange(count + 1)] for amp in amps])
    return (
        _multinomials(count)
        * powers[0, comps[:, 0]]
        * powers[1, comps[:, 1]]
        * powers[2, comps[:, 2]]
        * powers[3, comps[:, 3]]
    )


@lru_cache(maxsize=None)
def _pair_structure(k_a: int, k_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relay-independent scatter map from (Alice term, Bob term) to joint occupation.

    Returns, for every product of a row of _compositions(k_a) with a row
    of _compositions(k_b) (flattened, Alice major), the index of its
    joint four-mode occupation among the distinct ones; which modes each
    distinct occupation fills; and its Fock normalisation
    sqrt(prod n_i! / (k_a! k_b!)).  Keyed by the photon counts alone, so
    the cache holds at most one entry per pair within SAFETY_CAP however
    many relays are evaluated.
    """
    base = k_a + k_b + 1
    # the base-`base` digits of a joint occupation are the sum of the two
    # parties' digits, and no digit carries, so flat indices add
    place = base ** np.arange(3, -1, -1)
    flat = (_compositions(k_a) @ place)[:, None] + (_compositions(k_b) @ place)[None, :]
    keys, inverse = np.unique(flat.ravel(), return_inverse=True)
    occs = np.empty((keys.size, 4), dtype=np.int64)
    rem = keys
    for col in (3, 2, 1, 0):
        occs[:, col] = rem % base
        rem = rem // base
    norm = np.sqrt(_FACT[occs].prod(axis=1) / (_FACT[k_a] * _FACT[k_b]))
    # at most C(SAFETY_CAP + 3, 3) = 969 distinct occupations fit in uint16
    inverse = inverse.astype(np.uint16)
    occupied = occs > 0
    for arr in (inverse, occupied, norm):
        arr.flags.writeable = False
    return inverse, occupied, norm


# bounded: one entry per (k_a, k_b) for each dark rate, and the eight
# tables of one relay share its dark rate
@lru_cache(maxsize=256)
def _pattern_weights(k_a: int, k_b: int, dark_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Psi+ and Psi- click-pattern probabilities of every joint occupation of _pair_structure."""
    occupied = _pair_structure(k_a, k_b)[1]
    click = np.where(occupied, 1.0, dark_rate)
    quiet = 1.0 - click

    def exactly(a: int, b: int, c: int, d: int) -> np.ndarray:
        return click[:, a] * click[:, b] * quiet[:, c] * quiet[:, d]

    plus = exactly(0, 1, 2, 3) + exactly(2, 3, 0, 1)
    minus = exactly(0, 3, 1, 2) + exactly(1, 2, 0, 3)
    plus.flags.writeable = False
    minus.flags.writeable = False
    return plus, minus


def _pair_core(
    k_a: int,
    vals_a: np.ndarray,
    k_b: int,
    vals_b: np.ndarray,
    dark_rate: float,
) -> tuple[float, float]:
    """Bell-pattern probabilities for k_a and k_b photons hitting the relay.

    vals_a and vals_b are the parties' _side_terms for these counts.  The
    scatter onto joint occupations comes from the cached
    _pair_structure(k_a, k_b); only the amplitudes and the dark-count
    weights depend on the relay.
    """
    inverse, _, norm = _pair_structure(k_a, k_b)
    amps = np.bincount(inverse, weights=np.outer(vals_a, vals_b).ravel(), minlength=norm.size)
    # exactly cancelled occupations drop out of the sums, as in bs_output
    nz = np.flatnonzero(amps)
    if nz.size == 0:
        return 0.0, 0.0
    probs = (amps[nz] * norm[nz]) ** 2
    w_plus, w_minus = _pattern_weights(k_a, k_b, dark_rate)
    return float(probs @ w_plus[nz]), float(probs @ w_minus[nz])


# bounded: every relay setting adds one entry per state pair and caps, and
# a relay sweep never returns to an old setting
@lru_cache(maxsize=64)
def _pair_tables(
    state_a: BB84State,
    state_b: BB84State,
    misalignment: float,
    dark_rate: float,
    cap_a: int,
    cap_b: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Psi+/Psi- probabilities for every surviving pair count up to the caps.

    Misalignment is modelled as a polarization rotation of Bob's arm by
    theta with sin(theta)^2 equal to the misalignment parameter.  These
    tables depend only on the relay, not on channel loss, so they are
    cached and reused across distances.  Each party's side terms are
    expanded once per photon count and shared by every pair count; the
    relay-independent structure of each (k_a, k_b) comes from the
    _pair_structure cache.
    """
    theta = math.asin(math.sqrt(misalignment))
    jones_a = _jones(state_a)
    jones_b = _rotated(_jones(state_b), theta)
    # mode order (cH, cV, dH, dV); Bob's port picks up the minus sign
    amps_a = (
        jones_a[0] * _SQRT1_2,
        jones_a[1] * _SQRT1_2,
        jones_a[0] * _SQRT1_2,
        jones_a[1] * _SQRT1_2,
    )
    amps_b = (
        jones_b[0] * _SQRT1_2,
        jones_b[1] * _SQRT1_2,
        -jones_b[0] * _SQRT1_2,
        -jones_b[1] * _SQRT1_2,
    )
    terms_a = [_side_terms(ka, amps_a) for ka in range(cap_a + 1)]
    terms_b = [_side_terms(kb, amps_b) for kb in range(cap_b + 1)]
    plus = np.empty((cap_a + 1, cap_b + 1))
    minus = np.empty((cap_a + 1, cap_b + 1))
    for ka in range(cap_a + 1):
        for kb in range(cap_b + 1):
            plus[ka, kb], minus[ka, kb] = _pair_core(
                ka, terms_a[ka], kb, terms_b[kb], dark_rate
            )
    plus.flags.writeable = False
    minus.flags.writeable = False
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
    # table entries do not depend on the caps, so counts within the
    # cutoff read the cutoff-sized tables that yield_table caches; the
    # contiguous copy keeps the products below rounding as on a table
    # built for exactly these caps
    cap_a, cap_b = (
        (link.cutoff, link.cutoff) if max(m, n) <= link.cutoff <= SAFETY_CAP // 2 else (m, n)
    )
    plus_tab, minus_tab = (
        np.ascontiguousarray(tab[: m + 1, : n + 1])
        for tab in _pair_tables(
            alice_state, bob_state, link.misalignment, link.relay_dark_rate, cap_a, cap_b
        )
    )
    t = link.survival
    ta = thin(m, t)
    tb = thin(n, t)
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
    for sa in BASIS_STATES[basis]:
        for sb in BASIS_STATES[basis]:
            plus_tab, minus_tab = _pair_tables(
                sa, sb, link.misalignment, link.relay_dark_rate, n_max, n_max
            )
            succ += plus_tab
            succ += minus_tab
            same_bit = STATE_BIT[sa] == STATE_BIT[sb]
            if basis is Basis.Z:
                if same_bit:
                    wrong += plus_tab
                    wrong += minus_tab
            else:
                wrong += minus_tab if same_bit else plus_tab
    succ *= 0.25
    wrong *= 0.25
    t_mat = _thin_matrix(n_max, link.survival)
    yields = t_mat @ succ @ t_mat.T
    wrong_mixed = t_mat @ wrong @ t_mat.T
    errors = np.divide(
        wrong_mixed,
        np.maximum(yields, 1e-300),
        out=np.zeros_like(wrong_mixed),
        where=yields > 0,
    )
    yields.flags.writeable = False
    errors.flags.writeable = False
    return YieldTable(basis=basis, cutoff=n_max, yields=yields, errors=errors)
