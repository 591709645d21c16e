"""Process-pool regression suite: pickling, spawn contexts, failures,
and one pool per run.

The :class:`~repro.exec.ProcessPool` ships tasks across a pickle
boundary, so everything the precompute phase closes over must survive
``pickle.dumps`` — including under the ``spawn`` start method, where the
worker is a from-scratch interpreter that re-imports ``repro`` (the
macOS/Windows default, exercised here explicitly so a fork-only Linux
CI cannot hide a spawn regression). The differential grid in
``tests/test_exec_equivalence.py`` proves whole runs byte-identical;
this module pins the sharp edges individually.
"""

import multiprocessing
import pickle

import pytest

from repro.core.enrichment import AnnotateShardTask, ScanShardTask
from repro.exec import (
    ExecutionPolicy,
    ProcessPool,
    SerialPool,
    make_pool,
    shard,
)
from repro.faults import build_fault_plan
from repro.nlp.annotator import MessageAnnotator
from repro.obs import Telemetry
from repro.serve import IntakeService, LoadSpec, ServeConfig
from repro.stream import StreamSession
from repro.world.scenario import ScenarioConfig


def _square(value):
    """Module-level on purpose: process-pool tasks must be picklable."""
    return value * value


def _explode_on_odd(value):
    if value % 2:
        raise RuntimeError(f"task-{value}")
    return value


# -- pickling regressions ------------------------------------------------------


@pytest.mark.parametrize("profile", ["none", "flaky", "outage"])
def test_fault_plan_round_trips_through_pickle(profile):
    plan = build_fault_plan(profile, seed=7)
    restored = pickle.loads(pickle.dumps(plan))
    assert type(restored) is type(plan)
    assert restored.seed == plan.seed
    assert restored.profile == plan.profile
    assert len(restored.rules) == len(plan.rules)


def test_shard_tasks_are_picklable():
    annotate = AnnotateShardTask(MessageAnnotator())
    assert pickle.loads(pickle.dumps(annotate)) is not None
    scan = ScanShardTask(frozenset({"evil.test"}))
    restored = pickle.loads(pickle.dumps(scan))
    assert restored._known_bad_hosts == frozenset({"evil.test"})


# -- spawn-context regression --------------------------------------------------


def test_process_pool_under_spawn_context_matches_serial():
    """``spawn`` workers start with an empty interpreter: every task,
    argument, and result must round-trip through pickle and re-import.
    One pool, both shard-task kinds, results compared against inline."""
    annotator = MessageAnnotator()
    texts = ["Your N3tfl!x account is on hold", "URGENT: verify your bank"]
    urls = ["http://evil.test/login", "https://short.test/x"]
    annotate = AnnotateShardTask(annotator)
    scan = ScanShardTask(frozenset({"evil.test"}))
    with ProcessPool(2, mp_context=multiprocessing.get_context(
            "spawn")) as pool:
        annotated = pool.map(annotate, shard(texts, pool.workers))
        scanned = pool.map(scan, shard(urls, pool.workers))
    assert annotated == SerialPool().map(annotate, shard(texts, 2))
    assert scanned == SerialPool().map(scan, shard(urls, 2))


# -- merge and failure semantics -----------------------------------------------


def test_process_pool_merges_in_submission_order():
    with ProcessPool(4) as pool:
        assert pool.map(_square, range(20)) == [i * i for i in range(20)]
        stats = pool.stats()
    assert stats["kind"] == "ProcessPool"
    assert stats["tasks"] == 20


def test_process_pool_reraises_lowest_indexed_failure():
    with ProcessPool(4) as pool:
        with pytest.raises(RuntimeError) as excinfo:
            pool.map(_explode_on_odd, [0, 4, 7, 3, 9])
    # Index 2 (value 7) is the first failing submission, regardless of
    # which worker finished first.
    assert str(excinfo.value) == "task-7"


def test_make_pool_selects_backend_by_width():
    with make_pool(4) as pool:
        assert isinstance(pool, ProcessPool)
    # One worker never pays pool overhead.
    assert isinstance(make_pool(1), SerialPool)
    with pytest.raises(ValueError):
        ProcessPool(0)


# -- one pool per run ----------------------------------------------------------


@pytest.fixture
def shipped(monkeypatch):
    """Counts what the run hands to ProcessPool.map: subjects, and the
    most worker processes alive after any map."""
    counts = {"subjects": 0, "live": 0}
    original = ProcessPool.map

    def counting_map(self, fn, items):
        items = list(items)
        counts["subjects"] += sum(len(chunk) for chunk in items)
        results = original(self, fn, items)
        counts["live"] = max(counts["live"],
                             len(multiprocessing.active_children()))
        return results

    monkeypatch.setattr(ProcessPool, "map", counting_map)
    return counts


def _telemetry(world):
    return Telemetry.create(clock=world.clock)


def _assert_one_pool_per_run(telemetry, shipped, workers):
    pools = telemetry.exec_snapshot["pools"]
    assert [(p["label"], p["kind"]) for p in pools] == \
        [("enrichment", "ProcessPool")]
    assert shipped["live"] <= workers
    assert multiprocessing.active_children() == []
    # Only subjects the cache lacked were shipped, each once.
    services = telemetry.cache_snapshot["services"]
    assert shipped["subjects"] == (services["openai"]["stores"]
                                   + services["virustotal"]["stores"])


def test_serve_batches_share_one_pool(shipped):
    service = IntakeService.create(
        ScenarioConfig(seed=7, n_campaigns=4),
        load=LoadSpec(profile="steady", requests=150, reporters=20, seed=3),
        config=ServeConfig(batch_size=8),
        execution=ExecutionPolicy(workers=2),
        telemetry_factory=_telemetry,
    )
    service.run()
    assert 20 <= service.state.batches <= 30
    _assert_one_pool_per_run(service.telemetry, shipped, workers=2)


def test_stream_epochs_share_one_pool(shipped):
    session = StreamSession.create(
        ScenarioConfig(seed=7, n_campaigns=5), epochs=3,
        execution=ExecutionPolicy(workers=2), telemetry_factory=_telemetry)
    session.run()
    assert session.state.committed_epochs == 3
    _assert_one_pool_per_run(session.telemetry, shipped, workers=2)
