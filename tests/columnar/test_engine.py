"""The columnar analyzer against the object worker, outcome for outcome."""

import pytest

pytest.importorskip("numpy")

from repro.archive.database import ArchiveDatabase  # noqa: E402
from repro.archive.incremental import IncrementalAnalyzer  # noqa: E402
from repro.columnar.engine import require_columnar_spec  # noqa: E402
from repro.conformance.scenarios import (  # noqa: E402
    CORPUS_SCENARIOS,
    generate_rows,
    selftest_scenario,
    write_archive,
)
from repro.errors import ConfigError  # noqa: E402
from repro.parallel.chunks import ChunkTask, DetectorSpec  # noqa: E402
from repro.parallel.engine import ParallelAnalysisEngine  # noqa: E402
from repro.parallel.merge import report_bytes  # noqa: E402
from tests.columnar.helpers import (  # noqa: E402
    KINDS,
    build_archive,
    both_outcomes,
    outcome_key,
)

pytestmark = pytest.mark.columnar


def test_chunk_outcomes_identical_on_every_descriptor_kind(tmp_path):
    descriptors = [(kind, i % 3, 90_000 + i) for i, kind in enumerate(KINDS)]
    path = build_archive(tmp_path / "kinds.db", descriptors)
    obj, col = both_outcomes(path)
    assert outcome_key(obj) == outcome_key(col)
    assert col.stats.bundles_detected > 0
    assert col.pending_detail_ids  # the undetailed3 bundle stays pending


def test_chunk_outcomes_identical_under_criterion_ablation(tmp_path):
    descriptors = [(kind, 0, 200_000) for kind in KINDS]
    path = build_archive(tmp_path / "ablate.db", descriptors)
    for skipped in ("same_attacker_distinct_victim", "attacker_net_gain"):
        spec = DetectorSpec(
            skip_criteria=frozenset({skipped}), usd_per_sol=150.0
        )
        obj, col = both_outcomes(path, spec=spec)
        assert outcome_key(obj) == outcome_key(col)


def test_worklist_tasks_match_object_path(tmp_path):
    descriptors = [("sandwich", 0, 100_000), ("undetailed3", 1, 50_000)]
    path = build_archive(tmp_path / "worklist.db", descriptors)
    database = ArchiveDatabase(path, read_only=True)
    from repro.archive.query import ArchiveQuery

    ids = [
        row[0]
        for row in database.connection.execute(
            "SELECT bundle_id FROM bundles ORDER BY seq DESC"
        )
    ]
    database.close()
    del ArchiveQuery  # imported for parity with helpers; not needed here
    obj, col = both_outcomes(path, bundle_ids=tuple(ids + ["missing-id"]))
    assert outcome_key(obj) == outcome_key(col)


def test_full_reports_byte_identical_on_corpus_scenarios(tmp_path):
    for scenario in CORPUS_SCENARIOS:
        rows = generate_rows(scenario)
        obj_path = write_archive(rows, tmp_path / f"{scenario.name}-o.db")
        col_path = write_archive(rows, tmp_path / f"{scenario.name}-c.db")
        obj_engine = ParallelAnalysisEngine(obj_path, jobs=1, chunk_size=32)
        col_engine = ParallelAnalysisEngine(
            col_path, jobs=1, chunk_size=32, engine="columnar"
        )
        assert report_bytes(obj_engine.analyze(persist=False)) == report_bytes(
            col_engine.analyze(persist=False)
        ), scenario.name
        obj_engine.database.close()
        col_engine.database.close()


def test_columnar_multiplies_with_jobs_sharding(tmp_path):
    rows = generate_rows(selftest_scenario(77, bundles=90))
    serial_path = write_archive(rows, tmp_path / "serial.db")
    sharded_path = write_archive(rows, tmp_path / "sharded.db")
    serial = ParallelAnalysisEngine(serial_path, jobs=1, chunk_size=16)
    sharded = ParallelAnalysisEngine(
        sharded_path, jobs=2, chunk_size=16, engine="columnar"
    )
    assert report_bytes(serial.analyze(persist=False)) == report_bytes(
        sharded.analyze(persist=False)
    )
    serial.database.close()
    sharded.database.close()


def test_incremental_columnar_matches_object(tmp_path):
    rows = generate_rows(selftest_scenario(13, bundles=80))
    reports = {}
    for engine in ("object", "columnar"):
        path = write_archive(rows, tmp_path / f"inc-{engine}.db")
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), engine=engine, chunk_size=16
        )
        reports[engine] = analyzer.analyze().report
        analyzer.database.close()
    from repro.conformance.oracle import ensure_reports_identical

    ensure_reports_identical(
        reports["object"], reports["columnar"], mode="contract"
    )


def test_windowed_spec_is_rejected_up_front(tmp_path):
    spec = DetectorSpec(kind="windowed")
    with pytest.raises(ConfigError, match="standard length-three"):
        require_columnar_spec(spec)
    with pytest.raises(ConfigError, match="standard length-three"):
        ParallelAnalysisEngine(
            ArchiveDatabase(tmp_path / "w.db"), spec=spec, engine="columnar"
        )


def test_unknown_engine_names_are_rejected(tmp_path):
    database = ArchiveDatabase(tmp_path / "e.db")
    with pytest.raises(ConfigError, match="engine"):
        ParallelAnalysisEngine(database, engine="simd")
    with pytest.raises(ConfigError, match="engine"):
        IncrementalAnalyzer(database, engine="simd")
    task = ChunkTask(
        index=0,
        spec=DetectorSpec(),
        bundle_ids=("b",),
        engine="simd",
    )
    with pytest.raises(ConfigError, match="engine"):
        task.validate()


def test_missing_numpy_yields_actionable_config_error(monkeypatch):
    import repro.columnar as columnar

    monkeypatch.setattr(
        columnar, "columnar_available", lambda: False
    )
    with pytest.raises(ConfigError, match="--engine object"):
        columnar.require_columnar()
