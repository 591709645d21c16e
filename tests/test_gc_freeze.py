"""The execution engine freezes the heap for a run (``repro.exec.engine``).

Two properties make that safe, and both are pinned here:

* **The collector cannot change an output.** A run's fingerprint is the
  same whether the engine freezes the heap, the collector walks
  everything (freeze and unfreeze patched to no-ops, as before the
  engine froze), or the collector is disabled for the whole run. The
  source guard at the end keeps it that way: nothing in ``src/`` can
  observe a collection (no weak references, no finalizers, no ``gc``
  calls outside the engine).
* **The freeze is owned.** The ``with`` block that froze is the block
  that thaws, on a normal exit and on any ``BaseException``; a block
  entered while something is already frozen leaves the heap alone, so
  a caller's frozen objects stay frozen and an outer run keeps its
  freeze. After a run, what was alive before it is collectable again.
"""

import gc
import re
import weakref
from pathlib import Path

import pytest

from repro.core.pipeline import run_pipeline
from repro.errors import SimulatedCrash
from repro.exec import ExecutionEngine
from repro.faults import build_fault_plan
from repro.faults.plan import CrashPoint, FaultPlan
from repro.stream import StreamSession
from repro.world.scenario import ScenarioConfig, build_world

from tests.fingerprints import canonical_fingerprint, fingerprint_run

_SCENARIO = ScenarioConfig(seed=7, n_campaigns=10)
_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _noop() -> None:
    return None


def _batch_fingerprint() -> str:
    run = run_pipeline(build_world(_SCENARIO),
                       fault_plan=build_fault_plan("flaky",
                                                   seed=_SCENARIO.seed))
    return fingerprint_run(run)


def _stream_fingerprint() -> str:
    session = StreamSession.create(_SCENARIO, epochs=2)
    state = session.run()
    return canonical_fingerprint(
        state.as_pipeline_run(session.world, session.config))


def _fingerprints_per_arm(monkeypatch, make_fingerprint):
    """The fingerprint as shipped, with the collector walking the whole
    heap, and with the collector off for the whole run."""
    prints = {"frozen": make_fingerprint()}
    with monkeypatch.context() as patch:
        patch.setattr(gc, "freeze", _noop)
        patch.setattr(gc, "unfreeze", _noop)
        prints["walked"] = make_fingerprint()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        prints["disabled"] = make_fingerprint()
    finally:
        if was_enabled:
            gc.enable()
    return prints


@pytest.fixture(autouse=True)
def _thawed_heap():
    """Every test starts and ends with nothing frozen."""
    assert gc.get_freeze_count() == 0
    yield
    assert gc.get_freeze_count() == 0


class TestCollectorIsUnobservable:
    def test_batch_fingerprint_is_equal_across_collector_arms(
            self, monkeypatch):
        prints = _fingerprints_per_arm(monkeypatch, _batch_fingerprint)
        assert prints["walked"] == prints["frozen"]
        assert prints["disabled"] == prints["frozen"]

    def test_stream_fingerprint_is_equal_across_collector_arms(
            self, monkeypatch):
        prints = _fingerprints_per_arm(monkeypatch, _stream_fingerprint)
        assert prints["walked"] == prints["frozen"]
        assert prints["disabled"] == prints["frozen"]

    def test_src_gives_the_collector_nothing_to_observe(self):
        engine = _SRC / "exec" / "engine.py"
        gc_use = re.compile(r"\bgc\.|\bimport gc\b|\bfrom gc\b")
        offenders = []
        for path in sorted(_SRC.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            name = str(path.relative_to(_SRC))
            if "weakref" in text:
                offenders.append(f"{name}: weakref")
            if "__del__" in text:
                offenders.append(f"{name}: __del__")
            if path != engine and gc_use.search(text):
                offenders.append(f"{name}: gc")
        assert offenders == []


class TestEngineOwnsTheFreeze:
    def test_block_freezes_and_thaws(self):
        with ExecutionEngine():
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_a_failing_pool_close_still_thaws(self, monkeypatch):
        engine = ExecutionEngine()

        def close() -> None:
            raise RuntimeError("pool refused to close")

        monkeypatch.setattr(engine, "close", close)
        with pytest.raises(RuntimeError, match="refused"):
            with engine:
                pass
        assert gc.get_freeze_count() == 0

    def test_run_pipeline_freezes_once_and_thaws_once(self, monkeypatch):
        calls = []
        freeze, unfreeze = gc.freeze, gc.unfreeze

        def spy_freeze() -> None:
            calls.append("freeze")
            freeze()

        def spy_unfreeze() -> None:
            calls.append("unfreeze")
            unfreeze()

        monkeypatch.setattr(gc, "freeze", spy_freeze)
        monkeypatch.setattr(gc, "unfreeze", spy_unfreeze)
        run_pipeline(build_world(_SCENARIO))
        assert calls == ["freeze", "unfreeze"]
        assert gc.get_freeze_count() == 0

    def test_a_crash_escaping_run_pipeline_thaws(self):
        plan = build_fault_plan("flaky", seed=_SCENARIO.seed).extended(
            CrashPoint("whois", 2))
        with pytest.raises(SimulatedCrash):
            run_pipeline(build_world(_SCENARIO), fault_plan=plan)
        assert gc.get_freeze_count() == 0

    def test_a_crash_escaping_a_stream_thaws(self):
        session = StreamSession.create(
            _SCENARIO, epochs=2,
            fault_plan=FaultPlan().extended(CrashPoint("whois", 2, epoch=1)))
        with pytest.raises(SimulatedCrash):
            session.run()
        assert session.state.committed_epochs == 1
        assert gc.get_freeze_count() == 0

    def test_a_callers_frozen_objects_stay_frozen(self):
        marker = ["frozen by the caller"]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_pipeline(build_world(_SCENARIO))
            assert gc.get_freeze_count() == frozen
            assert not any(obj is marker for obj in gc.get_objects())
        finally:
            gc.unfreeze()

    def test_a_cycle_alive_before_a_run_is_collectable_after_it(self):
        class Node:
            pass

        node = Node()
        node.self = node
        alive = weakref.ref(node)
        run_pipeline(build_world(_SCENARIO))
        del node
        gc.collect()
        assert alive() is None
