"""Columnar (struct-of-arrays) batch analysis over archive chunks.

The object path (:mod:`repro.core`) walks one Python object per bundle:
per-candidate SQL round-trips, per-record JSON parses, and per-criterion
function dispatch. This package re-expresses the same detection and
quantification over *columns*:

- :mod:`repro.columnar.blocks` — typed column blocks loaded from SQLite
  projections (:meth:`repro.archive.query.ArchiveQuery.bundle_columns`
  and friends);
- :mod:`repro.columnar.criteria` — paper criteria 2-5 evaluated as
  vectorized masks over a whole candidate block at once (criterion 1 is
  decided on the members' signers as the candidates are split);
- :mod:`repro.columnar.quantify` — victim-loss / attacker-gain lamport
  math on arrays, bit-identical to the scalar quantifier;
- :mod:`repro.columnar.engine` — the load and compute stages that
  :func:`repro.parallel.worker.load_task` and
  :func:`~repro.parallel.worker.compute_task` run for
  ``engine="columnar"`` tasks. They produce the parallel tier's
  :class:`~repro.parallel.worker.ChunkOutcome`, so the deterministic merge,
  the report builders, and the differential oracle all apply unchanged.

The object path stays the conformance reference: the oracle's acceptance
matrix holds the ``columnar`` column byte-identical to serial on every
golden scenario. numpy is an optional dependency — when it is absent the
package still imports (so the object path is never impacted) and the
engine raises :class:`~repro.errors.ConfigError` at use time.
"""

from __future__ import annotations

from importlib import util as _importlib_util

from repro.errors import ConfigError


def columnar_available() -> bool:
    """Whether the vectorized engine can run in this interpreter (numpy)."""
    return _importlib_util.find_spec("numpy") is not None


def require_columnar() -> None:
    """Raise :class:`ConfigError` when the columnar engine cannot run."""
    if not columnar_available():
        raise ConfigError(
            "the columnar engine requires numpy; install it or use "
            "--engine object"
        )


from repro.columnar.blocks import (  # noqa: E402  (gated re-exports)
    BundleBlock,
    CandidateBlock,
    TxFeatures,
)

__all__ = [
    "BundleBlock",
    "CandidateBlock",
    "TxFeatures",
    "columnar_available",
    "require_columnar",
]
