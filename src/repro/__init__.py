"""repro — a reproduction of "Quantifying the Threat of Sandwiching MEV on
Jito: A Measurement of Solana's Leading Validator Client" (IMC 2025).

The package is layered bottom-up:

- :mod:`repro.solana` / :mod:`repro.dex` / :mod:`repro.jito` — the chain,
  market, and validator-extension substrates, built from scratch;
- :mod:`repro.agents` / :mod:`repro.simulation` — the calibrated workload
  and campaign engine;
- :mod:`repro.explorer` / :mod:`repro.collector` — the measured API and the
  paper's collection methodology;
- :mod:`repro.core` — the paper's contribution: sandwich detection, loss
  quantification, defensive-bundling classification;
- :mod:`repro.baselines` / :mod:`repro.analysis` — comparisons and every
  table/figure of the evaluation;
- :mod:`repro.parallel` — the sharded multiprocess analysis engine,
  byte-identical to the serial pipeline at any job count;
- :mod:`repro.obs` — metrics, structured events, and the analysis stage
  profile across the whole pipeline (metrics deterministic under the sim
  clock).

Quickstart::

    from repro import MeasurementCampaign, AnalysisPipeline, small_scenario

    result = MeasurementCampaign(small_scenario()).run()
    report = AnalysisPipeline().analyze_campaign(result)
    print(report.headline.sandwich_count)
"""

from repro.collector import MeasurementCampaign
from repro.core import (
    AnalysisPipeline,
    DefensiveBundlingClassifier,
    DetectorSpec,
    LossQuantifier,
    SandwichDetector,
)
from repro.obs import NULL_REGISTRY, EventLog, MetricsRegistry
from repro.parallel import ParallelAnalysisEngine
from repro.simulation import (
    ScenarioConfig,
    SimulationEngine,
    paper_scenario,
    small_scenario,
)

__version__ = "1.1.0"

__all__ = [
    "AnalysisPipeline",
    "DefensiveBundlingClassifier",
    "DetectorSpec",
    "EventLog",
    "LossQuantifier",
    "MeasurementCampaign",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "ParallelAnalysisEngine",
    "SandwichDetector",
    "ScenarioConfig",
    "SimulationEngine",
    "__version__",
    "paper_scenario",
    "small_scenario",
]
