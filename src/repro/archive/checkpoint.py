"""Campaign checkpoint/resume: kill a campaign, continue it byte-identically.

A campaign is a pure function of its scenario and fault plan: the same
seed replays the same simulation, the same polls, fetches and injected
faults at the same sim times, and the same archive flushes. So a
checkpoint stores no collector state, only what checks a replay: the
completed day count, the sim clock, the engine's root RNG fingerprint,
the scenario and fault-plan fingerprints and the archive's high-water
marks. Resume proceeds by:

1. replaying days ``0 … completed-1`` with collection on, from an empty
   in-memory store, flushing for a checkpoint after each day the archive
   holds one for. The archive already holds every row the replay
   collects, so a flush that would add one is rolled back and refused;
2. checking the replay at the checkpointed day: the sim clock, the RNG
   fingerprint, and the bundle and detail counts against the archive's
   rows at or below its marks;
3. rolling the archive back to those marks (a killed run keeps writing
   between its last checkpoint and the crash);
4. continuing the day loop where the killed run stopped.

Collector, explorer, fault-injector and metrics state is then the
uninterrupted run's, because the same code computed it from the same
inputs. A refused resume leaves the archive's rows as it found them.
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
from repro.obs.registry import MetricsRegistry
from repro.simulation.config import ScenarioConfig
from repro.utils.serialization import dumps

#: Bump when the checkpoint payload layout changes; resume refuses
#: payloads from other versions rather than guessing.
CHECKPOINT_VERSION = 2

#: Payload versions resume reads. A version 1 payload holds every
#: version 2 field, beside collector state that resume does not read.
_READABLE_VERSIONS = (1, CHECKPOINT_VERSION)

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

    # --- checkpoints and the day loop ------------------------------------

    def _payload(self, completed_days: int, finished: bool) -> dict:
        """What checks a replay of this run through ``completed_days``."""
        engine = self.campaign.engine
        payload = {
            "version": CHECKPOINT_VERSION,
            "completed_days": completed_days,
            "sim_time": engine.clock.now(),
            "seed": self.scenario.seed,
            "scenario_fingerprint": scenario_fingerprint(self.scenario),
            "store": {
                "bundle_seq": self.store.database.max_seq("bundles"),
                "detail_seq": self.store.database.max_seq("transactions"),
            },
            "rng": {"engine_root": engine.rng.state_fingerprint()},
        }
        if self.campaign.faults is not None:
            # Guards against resuming under a different fault schedule.
            payload["faults"] = {
                "plan_fingerprint": self.campaign.faults.plan.fingerprint()
            }
        if finished:
            payload["finished"] = True
        return payload

    def _save_checkpoint(
        self, completed_days: int, finished: bool = False
    ) -> int | None:
        # Flush first so the captured high-water marks cover everything
        # collected so far.
        self.store.flush(trigger="checkpoint")
        payload = self._payload(completed_days, finished)
        return self.store.save_checkpoint(
            payload, completed_days, payload["sim_time"]
        )

    def _run_day(self, day: int, checkpoint_days: set[int]) -> None:
        """Run one day, then checkpoint if ``checkpoint_days`` holds it."""
        self.campaign.engine.run_day(day)
        if day + 1 in checkpoint_days:
            self._save_checkpoint(day + 1)

    def run(self) -> CampaignResult:
        """Run (or continue) the campaign, checkpointing between days."""
        days = self.scenario.days
        every = self.checkpoint_every_days
        checkpoint_days = set(range(every, days + 1, every)) | {days}
        for day in range(self.start_day, days):
            self._run_day(day, checkpoint_days)
        result = self.campaign.finalize()
        # A final marker checkpoint records completion so resume can
        # refuse already-finished archives.
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
                already finished, or the replay diverges from the
                checkpoint or from the archive's rows.
            ConfigError: on a scenario, fault-plan or checkpoint-version
                mismatch.
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
        if payload.get("version") not in _READABLE_VERSIONS:
            raise ConfigError(
                f"checkpoint version {payload.get('version')!r} is not "
                f"supported (expected one of {_READABLE_VERSIONS})"
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
        self._check_fault_plan(payload.get("faults"))
        self._replay(payload)
        self.store.truncate_after(
            int(payload["store"]["bundle_seq"]),
            int(payload["store"]["detail_seq"]),
        )
        self.start_day = int(payload["completed_days"])
        return self

    def _check_fault_plan(self, faults_payload: dict | None) -> None:
        """Refuse a fault plan other than the one the archive ran under."""
        if faults_payload is None:
            if self.campaign.faults is not None:
                raise ConfigError(
                    "archive was collected without fault injection; resume "
                    "must not introduce a fault plan"
                )
            return
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

    def _replay(self, payload: dict) -> None:
        """Rerun the checkpointed days as they first ran, then check them.

        The archive already holds every row the replay collects, so the
        store refuses any flush that would add one. A replayed day flushes
        for a checkpoint wherever the archive holds one, whatever the
        cadence of this run.
        """
        conn = self.store.database.connection
        archived_days = {
            row[0]
            for row in conn.execute("SELECT completed_days FROM checkpoints")
        }
        self.store.replaying = True
        for day in range(int(payload["completed_days"])):
            self._run_day(day, archived_days)
        self.store.replaying = False

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
        archived = tuple(
            conn.execute(
                f"SELECT COUNT(*) FROM {table} WHERE seq <= ?",
                (int(payload["store"][mark]),),
            ).fetchone()[0]
            for table, mark in (
                ("bundles", "bundle_seq"),
                ("transactions", "detail_seq"),
            )
        )
        replayed = (len(self.store), self.store.detail_count())
        if replayed != archived:
            raise StoreError(
                f"replay collected {replayed[0]} bundles and {replayed[1]} "
                f"details, but the archive holds {archived[0]} and "
                f"{archived[1]} at its checkpoint"
            )
