"""Stage-level profiling: taxonomy, accumulation, rendering, CLI surface.

Pins the stage taxonomy (:data:`~repro.obs.profile.STAGES`), the
:class:`StageProfile` arithmetic the ``--profile`` table and
BENCH_PERF.json records are built from, and the engine-level
invariants: every run profiles load/detect/quantify/merge, the columnar
path adds intern, and the object path leaves intern at zero.
"""

import re

import pytest

from repro.parallel import ParallelAnalysisEngine
from repro.obs.profile import STAGES, StageProfile, StageTimer
from tests.parallel.test_engine import DESCRIPTORS
from tests.parallel.helpers import build_archive


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("stage-profile") / "archive.db"
    build_archive(path, DESCRIPTORS)
    return path


class TestStageProfile:
    def test_taxonomy_is_the_documented_order(self):
        assert STAGES == ("load", "intern", "detect", "quantify", "merge")

    def test_add_and_shares(self):
        profile = StageProfile()
        profile.add("load", 3.0)
        profile.add("detect", 1.0)
        assert profile.total() == pytest.approx(4.0)
        assert profile.share("load") == pytest.approx(0.75)
        assert profile.share("merge") == 0.0

    def test_empty_profile_has_zero_shares(self):
        profile = StageProfile()
        assert profile.total() == 0.0
        assert all(profile.share(stage) == 0.0 for stage in STAGES)

    def test_add_outcome_folds_stage_pairs(self):
        class Outcome:
            stage_seconds = (("load", 0.5), ("detect", 0.25))

        profile = StageProfile()
        profile.add_outcome(Outcome())
        profile.add_outcome(Outcome())
        assert profile.chunks == 2
        assert profile.seconds["load"] == pytest.approx(1.0)
        assert profile.seconds["detect"] == pytest.approx(0.5)

    def test_as_dict_shape(self):
        profile = StageProfile()
        profile.add("load", 1.0)
        payload = profile.as_dict()
        assert set(payload) == {"chunks", "total_stage_seconds", "stages"}
        assert list(payload["stages"]) == list(STAGES)
        assert payload["stages"]["load"]["share"] == 1.0

    def test_render_table_lists_every_stage_and_total(self):
        profile = StageProfile()
        profile.add("load", 2.0)
        profile.chunks = 3
        table = profile.render_table()
        for stage in STAGES:
            assert stage in table
        assert "total" in table
        assert "(3 chunks)" in table

    def test_unknown_stage_is_kept(self):
        profile = StageProfile()
        profile.add("mystery", 1.0)
        assert "mystery" in profile.as_dict()["stages"]
        assert "mystery" in profile.render_table()


class TestStageTimer:
    def test_timer_without_histogram(self):
        profile = StageProfile()
        with StageTimer(profile, "load"):
            pass
        assert profile.seconds["load"] > 0.0


class TestEngineProfile:
    def _analyze(self, archive, engine_kind):
        engine = ParallelAnalysisEngine(
            archive, jobs=1, chunk_size=5, engine=engine_kind
        )
        engine.analyze(persist=False)
        profile = engine.stage_profile
        engine.database.close()
        return profile

    def test_object_run_profiles_load_detect_quantify_merge(self, archive):
        profile = self._analyze(archive, "object")
        assert profile.chunks > 0
        for stage in ("load", "detect", "quantify", "merge"):
            assert profile.seconds[stage] > 0.0
        # The object path has no interning stage.
        assert profile.seconds["intern"] == 0.0

    def test_columnar_run_adds_the_intern_stage(self, archive):
        profile = self._analyze(archive, "columnar")
        for stage in STAGES:
            assert profile.seconds[stage] > 0.0

    def test_profile_resets_between_analyze_calls(self, archive):
        engine = ParallelAnalysisEngine(archive, jobs=1, chunk_size=5)
        engine.analyze(persist=False)
        first = engine.stage_profile.chunks
        engine.analyze(persist=False)
        assert engine.stage_profile.chunks == first
        engine.database.close()


class TestProfileCli:
    def test_profile_flag_prints_stage_breakdown(self, archive, capsys):
        from repro.cli import main

        capsys.readouterr()
        code = main(
            [
                "analyze",
                "--store",
                str(archive),
                "--jobs",
                "1",
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stage breakdown" in out
        assert "load" in out
        assert "merge" in out

    def test_profile_flag_prints_incremental_breakdown(self, archive, capsys):
        from repro.cli import main

        capsys.readouterr()
        code = main(
            [
                "analyze",
                "--store",
                str(archive),
                "--incremental",
                "--jobs",
                "1",
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stage breakdown" in out
        # The delta runs the chunk stages; the rebuild is its own row.
        assert re.search(r"^\s*load\s", out, re.MULTILINE)
        assert not re.search(r"^\s*delta\s", out, re.MULTILINE)
        assert re.search(r"^\s*rebuild\s", out, re.MULTILINE)
