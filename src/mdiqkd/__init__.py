"""Decoy-state MDI-QKD with heralded single-photon sources.

Four layers, each usable on its own:

* source: photon-number statistics and heralding trigger weights.
* optics: exact Fock-state model of the relay's Bell-state measurement,
  producing ground-truth yield tables.
* decoy: observable gains assembled from yields, and the estimator that
  inverts them into Y11 / e11 bounds.
* keyrate + runner: secret key rates per scenario, per-distance
  intensity optimization, config and CSV handling, CLI.

The package re-exports the names of the README's library sketch and the
scan entry points; everything else is imported from its module.
"""

from .source import DistributionKind, HeraldingDetector, SourceSpec, TriggerClass
from .optics import Basis, LinkSpec, yield_table
from .decoy import e11_upper_bound, gain_from_yields, side_weights, y11_lower_bound
from .keyrate import RatePoint, ScenarioKind, rate_for_scenario
from .runner import ConfigError, ScanConfig, main, optimize_mu_prime, scan

__version__ = "0.1.0"
