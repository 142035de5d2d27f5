"""Campaign checkpoint/resume: kill a campaign, continue it byte-identically.

The trick that makes exact resume cheap is that collection never feeds back
into the simulation — polling is read-only against the explorer. So a
checkpoint does not need to serialize the simulated world at all. It stores
only the *collector-side* state (poll cursor, detail-fetch worklist,
coverage estimator, per-client rate-limit budgets, metrics snapshot) plus
the archive's high-water marks, and resume proceeds by:

1. rolling the archive back to the checkpoint's high-water marks (a killed
   run keeps writing between its last checkpoint and the crash),
2. rebuilding the in-memory store from the archive in ``seq`` order,
3. replaying the deterministic simulation up to the checkpointed day with
   collection disabled (same seed, same RNG draws, same clock values),
4. restoring collector state and overwriting the metrics registry with the
   checkpointed snapshot,
5. continuing the day loop exactly where the killed run stopped.

Replay fidelity is verified, not assumed: the engine's root RNG fingerprint
and the sim clock are checked against values recorded at checkpoint time,
and any divergence raises instead of silently producing different numbers.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.archive.database import ArchiveDatabase
from repro.archive.store import ArchiveBundleStore
from repro.collector.campaign import CampaignResult, MeasurementCampaign
from repro.collector.detail_fetcher import DetailFetcherConfig
from repro.errors import ConfigError, StoreError
from repro.faults.plan import FaultPlan
from repro.obs.export import restore_snapshot_into
from repro.obs.registry import MetricsRegistry
from repro.simulation.config import ScenarioConfig
from repro.utils.serialization import dumps

#: Bump when the checkpoint payload layout changes; resume refuses
#: payloads from other versions rather than guessing.
CHECKPOINT_VERSION = 1

#: Sim-clock drift tolerated between replay and checkpoint before resume
#: refuses. Replay recomputes the same floats, so this is effectively an
#: equality check with room for benign last-bit noise.
_CLOCK_TOLERANCE_SECONDS = 1e-6


def scenario_fingerprint(scenario: ScenarioConfig) -> str:
    """Stable hash of a scenario's full configuration.

    Stored in every checkpoint so resume can refuse an archive produced
    under different parameters — replaying a different scenario would
    "succeed" while silently diverging from the killed run.
    """
    payload = dumps(scenario)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class CheckpointedCampaign:
    """A measurement campaign that persists resume points into an archive.

    Runs the same day loop as :class:`MeasurementCampaign.run`, saving a
    checkpoint into the archive every ``checkpoint_every_days`` days (and
    always after the final day). :meth:`resume` continues a killed run from
    its latest checkpoint with byte-identical analysis output.
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        archive: ArchiveDatabase | str | Path,
        checkpoint_every_days: int = 1,
        fetcher_config: DetailFetcherConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if checkpoint_every_days < 1:
            raise ConfigError("checkpoint_every_days must be >= 1")
        self.scenario = scenario
        self.checkpoint_every_days = checkpoint_every_days
        registry = MetricsRegistry()
        self.store = ArchiveBundleStore(archive, metrics=registry)
        self.campaign = MeasurementCampaign(
            scenario,
            fetcher_config=fetcher_config,
            metrics=registry,
            store=self.store,
            fault_plan=fault_plan,
        )
        self.start_day = 0

    # --- checkpoint capture ------------------------------------------------

    def _capture_payload(self, completed_days: int) -> dict:
        engine = self.campaign.engine
        payload = self._base_payload(engine, completed_days)
        if self.campaign.faults is not None:
            # Per-endpoint call counters restore the injector's RNG
            # schedule; the accumulated log restores its integrity
            # accounting. The plan fingerprint guards against resuming
            # under a different fault schedule.
            payload["faults"] = {
                "plan_fingerprint": self.campaign.faults.plan.fingerprint(),
                "state": self.campaign.faults.state(),
            }
        return payload

    def _base_payload(self, engine, completed_days: int) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "completed_days": completed_days,
            "sim_time": engine.clock.now(),
            "seed": self.scenario.seed,
            "scenario_fingerprint": scenario_fingerprint(self.scenario),
            "store": {
                "bundle_seq": self.store.database.max_seq("bundles"),
                "detail_seq": self.store.database.max_seq("transactions"),
            },
            "poller": self.campaign.poller.state(),
            "fetcher": self.campaign.fetcher.state(),
            "coverage": self.campaign.coverage.state(),
            "explorer": self.campaign.service.state(),
            "rng": {"engine_root": engine.rng.state_fingerprint()},
            "metrics": self.campaign.metrics.snapshot(),
        }

    def _save_checkpoint(
        self, completed_days: int, finished: bool = False
    ) -> int:
        # Flush first so the captured high-water marks cover everything
        # collected so far; the payload (including its metrics snapshot)
        # is then self-consistent with the archive's committed contents.
        self.store.flush(trigger="checkpoint")
        payload = self._capture_payload(completed_days)
        if finished:
            payload["finished"] = True
        return self.store.save_checkpoint(
            payload, completed_days, payload["sim_time"]
        )

    # --- the run loop ------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run (or continue) the campaign, checkpointing between days."""
        days = self.scenario.days
        engine = self.campaign.engine
        for day in range(self.start_day, days):
            engine.run_day(day)
            completed = day + 1
            if completed % self.checkpoint_every_days == 0 or completed == days:
                self._save_checkpoint(completed)
        result = self.campaign.finalize()
        # A final marker checkpoint records completion (and the post-drain
        # collector state) so resume can refuse already-finished archives.
        self._save_checkpoint(days, finished=True)
        return result

    # --- resume ------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        scenario: ScenarioConfig,
        archive: ArchiveDatabase | str | Path,
        checkpoint_every_days: int = 1,
        fetcher_config: DetailFetcherConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> "CheckpointedCampaign":
        """Rebuild a killed campaign from an archive's latest checkpoint.

        The caller must supply the same scenario (and fault plan, if one
        was injected) as the original run; the checkpoint's scenario and
        plan fingerprints enforce this.

        Raises:
            StoreError: if the archive holds no checkpoint, the campaign
                already finished, or deterministic replay diverges from the
                checkpointed RNG/clock state.
            ConfigError: on scenario or checkpoint-version mismatch.
        """
        self = cls(
            scenario,
            archive,
            checkpoint_every_days=checkpoint_every_days,
            fetcher_config=fetcher_config,
            fault_plan=fault_plan,
        )
        payload = self.store.latest_checkpoint()
        if payload is None:
            raise StoreError(
                f"archive {self.store.database.path} holds no checkpoint "
                "to resume from"
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"checkpoint version {payload.get('version')!r} is not "
                f"supported (expected {CHECKPOINT_VERSION})"
            )
        if payload.get("finished"):
            raise StoreError(
                "campaign in this archive already finished; nothing to resume"
            )
        expected = scenario_fingerprint(scenario)
        if payload.get("scenario_fingerprint") != expected:
            raise ConfigError(
                "scenario does not match the one this archive was "
                "collected under (fingerprint "
                f"{payload.get('scenario_fingerprint')} != {expected})"
            )

        # 1-2: roll the archive back to the checkpoint, rebuild the store.
        self.store.truncate_after(
            int(payload["store"]["bundle_seq"]),
            int(payload["store"]["detail_seq"]),
        )
        self.store.load_memory_state()

        # 3: deterministic replay of the simulation, collection off.
        completed = int(payload["completed_days"])
        self.campaign.collect_enabled = False
        self.campaign.engine.run_days(0, completed)
        self.campaign.collect_enabled = True

        clock_now = self.campaign.engine.clock.now()
        if abs(clock_now - float(payload["sim_time"])) > _CLOCK_TOLERANCE_SECONDS:
            raise StoreError(
                f"replay clock {clock_now} diverged from checkpoint "
                f"sim_time {payload['sim_time']}"
            )
        fingerprint = self.campaign.engine.rng.state_fingerprint()
        if fingerprint != payload["rng"]["engine_root"]:
            raise StoreError(
                "replayed engine RNG state does not match the checkpoint "
                f"({fingerprint} != {payload['rng']['engine_root']}); "
                "the archive was not produced by this code/scenario"
            )

        # 4: restore collector-side state and the metrics registry.
        self.campaign.poller.restore_state(payload["poller"])
        self.campaign.fetcher.restore_state(payload["fetcher"])
        self.campaign.coverage.restore_state(payload["coverage"])
        self.campaign.service.restore_state(payload["explorer"])
        faults_payload = payload.get("faults")
        if faults_payload is not None:
            if self.campaign.faults is None:
                raise ConfigError(
                    "checkpoint was collected under fault injection; "
                    "resume requires the same fault plan"
                )
            expected_plan = self.campaign.faults.plan.fingerprint()
            if faults_payload.get("plan_fingerprint") != expected_plan:
                raise ConfigError(
                    "fault plan does not match the one this archive was "
                    "collected under (fingerprint "
                    f"{faults_payload.get('plan_fingerprint')} != "
                    f"{expected_plan})"
                )
            self.campaign.faults.restore_state(faults_payload["state"])
        elif self.campaign.faults is not None:
            raise ConfigError(
                "archive was collected without fault injection; resume "
                "must not introduce a fault plan"
            )
        restore_snapshot_into(self.campaign.metrics, payload["metrics"])
        self.store.note_resumed_checkpoint(float(payload["sim_time"]))

        self.start_day = completed
        return self
