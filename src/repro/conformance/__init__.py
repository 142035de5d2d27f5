"""Conformance testing for the detection pipeline.

Machine-checked equivalence across every way the pipeline can execute:

- :mod:`repro.conformance.scenarios` — deterministic synthetic campaigns;
- :mod:`repro.conformance.golden` — frozen golden-master fixtures with an
  explicit bless workflow;
- :mod:`repro.conformance.simulation` — simulator-preset recipes whose
  fixtures pin the simulator's own output;
- :mod:`repro.conformance.oracle` — the differential oracle that runs any
  two pipeline configurations and structurally diffs their results;
- :mod:`repro.conformance.metamorphic` — invariants relating transformed
  campaigns to their originals;
- :mod:`repro.conformance.canon` — canonical float/JSON forms golden
  digests are built on;
- :mod:`repro.conformance.selftest` — the ``repro selftest`` driver.

The oracle contract is documented in ``docs/TESTING.md``.
"""

from repro.conformance.canon import canon_float, canonical_json_bytes, digest, fmt_fixed
from repro.conformance.oracle import (
    DifferentialResult,
    PipelineConfig,
    ReportDiff,
    comparable_payload,
    default_configs,
    diff_reports,
    ensure_reports_identical,
    run_differential,
)
from repro.conformance.scenarios import CORPUS_SCENARIOS, SyntheticScenario
from repro.conformance.selftest import DEFAULT_SEEDS, SelftestReport, run_selftest

__all__ = [
    "CORPUS_SCENARIOS",
    "DEFAULT_SEEDS",
    "DifferentialResult",
    "PipelineConfig",
    "ReportDiff",
    "SelftestReport",
    "SyntheticScenario",
    "canon_float",
    "canonical_json_bytes",
    "comparable_payload",
    "default_configs",
    "diff_reports",
    "digest",
    "ensure_reports_identical",
    "fmt_fixed",
    "run_differential",
    "run_selftest",
]
