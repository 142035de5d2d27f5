"""The paper's core contribution: Sandwiching-MEV detection and analysis.

- :mod:`repro.core.trades` — trade extraction from transaction records
- :mod:`repro.core.criteria` — the five detection criteria (Section 3.2)
- :mod:`repro.core.detector` — :class:`SandwichDetector` and the
  :class:`DetectorSpec` every analysis path builds its stack from
- :mod:`repro.core.quantify` — victim-loss / attacker-gain quantification
- :mod:`repro.core.defensive` — defensive-bundling classification (3.3)
- :mod:`repro.core.aggregate` — daily series and headline statistics
- :mod:`repro.core.pipeline` — the end-to-end analysis pipeline
"""

from repro.core.criteria import (
    CRITERIA,
    BundleView,
    CriterionResult,
    evaluate_criteria,
)
from repro.core.defensive import DefensiveBundlingClassifier, DefensiveReport
from repro.core.detector import (
    DetectionStats,
    DetectorSpec,
    SandwichDetector,
    WindowedSandwichDetector,
)
from repro.core.events import SandwichEvent
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.core.quantify import LossQuantifier, QuantifiedSandwich
from repro.core.trades import TradeLeg, extract_trades, net_deltas_for

__all__ = [
    "CRITERIA",
    "AnalysisPipeline",
    "AnalysisReport",
    "BundleView",
    "CriterionResult",
    "DefensiveBundlingClassifier",
    "DefensiveReport",
    "DetectionStats",
    "DetectorSpec",
    "LossQuantifier",
    "QuantifiedSandwich",
    "SandwichDetector",
    "SandwichEvent",
    "WindowedSandwichDetector",
    "TradeLeg",
    "evaluate_criteria",
    "extract_trades",
    "net_deltas_for",
]
