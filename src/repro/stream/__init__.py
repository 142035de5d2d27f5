"""repro.stream — the analyze-while-collecting streaming pipeline.

Collapses the repo's collect → archive → analyze sequence into one online
path: each collected batch is folded synchronously through a streaming
detector that judges candidates the moment their details complete, and
an incremental report builder that folds monotone deltas, so the final
report is ready the moment collection ends — byte-identical to the batch
pipeline over the same data (see ``docs/STREAMING.md``).
"""

from repro.stream.campaign import CollectorTap, StreamingCampaign
from repro.stream.deltas import IncrementalReportBuilder, ReportDelta
from repro.stream.detector import StreamingDetector
from repro.stream.events import StreamBatch
from repro.stream.pipeline import (
    analyze_archive_stream,
    archive_batches,
    fold_batches,
)

__all__ = [
    "CollectorTap",
    "IncrementalReportBuilder",
    "ReportDelta",
    "StreamBatch",
    "StreamingCampaign",
    "StreamingDetector",
    "analyze_archive_stream",
    "archive_batches",
    "fold_batches",
]
