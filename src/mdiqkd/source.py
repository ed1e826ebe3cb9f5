"""Photon-number statistics for the transmitters.

Each party carries either a weak coherent source (Poisson photon-number
distribution) or a heralded single-photon source built from a parametric
pair source (Poisson or thermal signal-arm distribution) plus a threshold
detector on the idler arm.  The heralding detector splits every pumped
pulse into a triggered and a non-triggered event class; the two class
weights sum to the plain distribution and are deliberately left
un-normalised so that downstream gain series stay linear in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

__all__ = [
    "DistributionKind",
    "TriggerClass",
    "HeraldingDetector",
    "SourceSpec",
    "photon_weight",
    "photon_row",
    "trigger_prob",
    "effective_weight",
    "damped_total",
    "class_total",
]


class DistributionKind(Enum):
    """Photon-number distribution family of the signal arm."""

    POISSON = "poisson"
    THERMAL = "thermal"


class TriggerClass(Enum):
    """Event class selected on the idler detector outcome.

    ALL means no post-selection at all (weak coherent sources, or a
    heralded source with the trigger record ignored).
    """

    TRIGGERED = "t"
    NON_TRIGGERED = "nt"
    ALL = "all"


@dataclass(frozen=True)
class HeraldingDetector:
    """Threshold detector on the idler arm.

    efficiency: probability that one idler photon produces a click.
    dark_rate: probability of a click on an empty idler pulse.
    """

    efficiency: float
    dark_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"heralding efficiency must lie in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_rate <= 1.0:
            raise ValueError(f"heralding dark rate must lie in [0, 1], got {self.dark_rate}")


@dataclass(frozen=True)
class SourceSpec:
    """One party's source configuration for a single record intensity."""

    kind: DistributionKind
    intensity: float
    heralding: Optional[HeraldingDetector] = None
    trigger_class: TriggerClass = TriggerClass.ALL

    def __post_init__(self) -> None:
        if not self.intensity >= 0.0:
            raise ValueError(f"intensity must be >= 0, got {self.intensity}")
        if self.heralding is None and self.trigger_class is not TriggerClass.ALL:
            raise ValueError("triggered/non-triggered classes need a heralding detector")


def photon_weight(kind: DistributionKind, intensity: float, n: int) -> float:
    """Probability of finding n photons in a pulse of mean photon number x.

    Poisson: exp(-x) x^n / n!.  Thermal: x^n / (1+x)^(n+1).  Evaluated in
    log space so large n stays finite instead of overflowing n!.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    return photon_row(kind, intensity, n)[n]


@lru_cache(maxsize=64)
def _log_factorials(cutoff: int) -> tuple[float, ...]:
    """log(n!) for n = 0..cutoff."""
    return tuple(math.lgamma(n + 1) for n in range(cutoff + 1))


def photon_row(kind: DistributionKind, intensity: float, cutoff: int) -> list[float]:
    """photon_weight(kind, intensity, n) for n = 0..cutoff; one log(x) for the row."""
    x = float(intensity)
    if not x >= 0.0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    if x == 0.0:
        return [1.0] + [0.0] * cutoff
    lx = math.log(x)
    if kind is DistributionKind.POISSON:
        return [math.exp(n * lx - x - lg) for n, lg in enumerate(_log_factorials(cutoff))]
    l1x = math.log1p(x)
    return [math.exp(n * lx - (n + 1) * l1x) for n in range(cutoff + 1)]


def damped_total(kind: DistributionKind, intensity: float, damping: float) -> float:
    """Closed form of sum_m damping^m P_m(x), the survival-weighted total.

    Poisson: exp(-(1-r) x).  Thermal: 1 / (1 + (1-r) x).  Used for exact
    truncation-tail certificates, with r typically (1 - eta).
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must lie in [0, 1], got {damping}")
    x = float(intensity)
    r = float(damping)
    if kind is DistributionKind.POISSON:
        return math.exp(-(1.0 - r) * x)
    return 1.0 / (1.0 + (1.0 - r) * x)


def trigger_prob(detector: HeraldingDetector, n: int) -> float:
    """Probability that the idler detector clicks given n idler photons.

    q_n = 1 - (1 - d) (1 - eta)^n.  The n = 0 case reduces to the dark
    rate d.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    return 1.0 - (1.0 - detector.dark_rate) * (1.0 - detector.efficiency) ** n


def effective_weight(source: SourceSpec, n: int) -> float:
    """Un-normalised weight of n-photon pulses within the source's event class.

    TRIGGERED gives q_n P_n, NON_TRIGGERED gives (1 - q_n) P_n, ALL gives
    P_n.  The first two sum to the third for every n.
    """
    p = photon_weight(source.kind, source.intensity, n)
    if source.trigger_class is TriggerClass.ALL:
        return p
    q = trigger_prob(source.heralding, n)
    if source.trigger_class is TriggerClass.TRIGGERED:
        return q * p
    return (1.0 - q) * p


def class_total(source: SourceSpec) -> float:
    """Closed-form total weight of the source's event class over all n."""
    if source.trigger_class is TriggerClass.ALL:
        return 1.0
    survival = damped_total(source.kind, source.intensity, 1.0 - source.heralding.efficiency)
    kept_dark = (1.0 - source.heralding.dark_rate) * survival
    if source.trigger_class is TriggerClass.TRIGGERED:
        return 1.0 - kept_dark
    return kept_dark
