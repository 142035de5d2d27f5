"""Stage-level wall-time accounting for the analyze read path.

Every chunk's work decomposes into the same taxonomy — :data:`STAGES` =
``load`` (SQLite projections), ``intern`` (column materialization and
code interning; zero on the object path), ``detect`` (mask evaluation /
detector scan), ``quantify`` (lamport math and classification), and
``merge`` (the parent's reduce plus report build). Workers stamp the
first four onto :class:`~repro.parallel.worker.ChunkOutcome.stage_seconds`;
the engine accumulates them into a :class:`StageProfile`, times ``merge``
itself via :class:`StageTimer`, and feeds every sample through the
``analyze_stage_seconds`` histogram in :mod:`repro.obs`.

The profile answers one question — *where does the wall time go?* — so
``repro analyze --profile`` can print the stage-breakdown table and the
benchmarks can persist the split into BENCH_PERF.json. Under ``--jobs``
the workers' stages run side by side and their seconds add up, so the sum
can exceed the run's elapsed time; shares are of stage-time, not of
wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: The canonical stage order for tables and persisted records.
STAGES = ("load", "intern", "detect", "quantify", "merge")


@dataclass
class StageProfile:
    """Accumulated per-stage seconds across every chunk of a run."""

    seconds: dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES}
    )
    chunks: int = 0

    def add(self, stage: str, elapsed: float) -> None:
        """Fold ``elapsed`` seconds into ``stage`` (unknown stages too)."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed

    def add_outcome(self, outcome) -> None:
        """Fold one chunk outcome's ``stage_seconds`` pairs in."""
        self.chunks += 1
        for stage, elapsed in getattr(outcome, "stage_seconds", ()):
            self.add(stage, elapsed)

    def total(self) -> float:
        """Total stage-seconds (can exceed wall time under overlap)."""
        return sum(self.seconds.values())

    def share(self, stage: str) -> float:
        """``stage``'s fraction of total stage-time (0.0 on an empty run)."""
        total = self.total()
        if total <= 0:
            return 0.0
        return self.seconds.get(stage, 0.0) / total

    def as_dict(self) -> dict:
        """The JSON-ready form persisted into BENCH_PERF.json records."""
        ordered = [s for s in STAGES if s in self.seconds] + [
            s for s in self.seconds if s not in STAGES
        ]
        return {
            "chunks": self.chunks,
            "total_stage_seconds": round(self.total(), 6),
            "stages": {
                stage: {
                    "seconds": round(self.seconds[stage], 6),
                    "share": round(self.share(stage), 4),
                }
                for stage in ordered
            },
        }

    def render_table(self) -> str:
        """The human-readable stage-breakdown table for ``--profile``."""
        ordered = [s for s in STAGES if s in self.seconds] + [
            s for s in self.seconds if s not in STAGES
        ]
        lines = [f"{'stage':<10} {'seconds':>10} {'share':>7}"]
        for stage in ordered:
            lines.append(
                f"{stage:<10} {self.seconds[stage]:>10.3f} "
                f"{self.share(stage) * 100:>6.1f}%"
            )
        lines.append(
            f"{'total':<10} {self.total():>10.3f} {'':>7} "
            f"({self.chunks} chunks)"
        )
        return "\n".join(lines)


class StageTimer:
    """``with StageTimer(profile, "merge"):`` — time a block into a stage.

    Also observes the sample through an optional histogram with a
    ``stage`` label, so engine-side stages land in the same
    ``analyze_stage_seconds`` series as worker-side ones.
    """

    def __init__(self, profile: StageProfile, stage: str, histogram=None):
        self._profile = profile
        self._stage = stage
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "StageTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._started
        self._profile.add(self._stage, elapsed)
        if self._histogram is not None:
            self._histogram.observe(elapsed, stage=self._stage)
