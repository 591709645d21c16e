"""The kill/resume differential harness: one table of the durable kinds.

A differential check compares a killed-then-resumed run against an
uninterrupted one. Every durable kind — a batch run journaled by
``repro.checkpoint``, a stream, a serve and an investigation session —
is one :class:`Workload` row: how to start a run (fresh, or durable in
a directory with a kill in its fault plan), how to resume one from its
directory, and how to read the finished run's fingerprint and its
per-service charged-call totals. The fingerprints are the existing
ones: :func:`tests.fingerprints.fingerprint_run` for batch, the stream
state's own, :func:`repro.serve.serve_fingerprint` and
:func:`repro.investigate.fleet_fingerprint`.

:func:`baseline` runs each uninterrupted result once per test session
and caches it under the run identity (scenario, fault plan, execution
policy, as the identity codec writes them) plus the workload's shape;
tests must treat a cached result as read-only. :func:`kill_then_resume`
runs the crashed arm and fails when its kill never fires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.checkpoint import CheckpointSession, resume_pipeline
from repro.checkpoint.identity import (
    faults_to_dict,
    policy_to_dict,
    scenario_to_dict,
)
from repro.core.pipeline import run_pipeline
from repro.errors import SimulatedCrash
from repro.exec import ExecutionPolicy
from repro.faults import CrashPoint, FaultPlan
from repro.investigate import fleet_fingerprint, run_investigation
from repro.investigate import charged_calls as fleet_charged_calls
from repro.serve import IntakeService, serve_fingerprint
from repro.serve import charged_calls as serve_charged_calls
from repro.stream import StreamSession
from repro.world.scenario import ScenarioConfig, build_world

from tests.fingerprints import charged_calls_from_services, fingerprint_run


@dataclass(frozen=True)
class Workload:
    """One durable kind, as the differential checks drive it."""

    name: str
    #: ``start(scenario, plan, policy, directory=None, **shape)`` runs to
    #: completion (or to the kill its plan holds) and returns the result.
    start: Callable[..., Any]
    #: ``resume(directory)`` finishes a killed run; returns the result.
    resume: Callable[..., Any]
    fingerprint: Callable[[Any], str]
    charged: Callable[[Any], Dict[str, int]]


def _start_batch(scenario, plan, policy, directory=None, *,
                 kill_after_writes=None, telemetry=None):
    checkpoint = (None if directory is None else CheckpointSession.record(
        directory, kill_after_writes=kill_after_writes))
    return run_pipeline(build_world(scenario), telemetry=telemetry,
                        fault_plan=plan, execution=policy,
                        checkpoint=checkpoint)


def _resume_batch(directory, *, telemetry=None):
    return resume_pipeline(directory, telemetry=telemetry)


#: The world-owned metered services a batch run charges (its openai
#: endpoint is built per run, so its meter is not on the world).
_WORLD_SERVICES = ("hlr", "whois", "crtsh", "passivedns", "ipinfo",
                   "virustotal", "gsb")


def _batch_charged(run) -> Dict[str, int]:
    return {name: getattr(run.world, name).meter.snapshot()["used"]
            for name in _WORLD_SERVICES}


def _start_stream(scenario, plan, policy, directory=None, *, epochs):
    session = StreamSession.create(scenario, epochs=epochs, fault_plan=plan,
                                   execution=policy, stream_dir=directory)
    session.run()
    return session


def _resume_stream(directory):
    session = StreamSession.load(directory)
    session.run()
    return session


def _start_serve(scenario, plan, policy, directory=None, *, load, config):
    service = IntakeService.create(scenario, load=load, config=config,
                                   fault_plan=plan, execution=policy,
                                   serve_dir=directory)
    service.run()
    return service


def _resume_serve(directory, *, kill_at: Optional[CrashPoint] = None):
    service = IntakeService.load(directory, kill_at=kill_at)
    service.run()
    return service


def _start_investigation(scenario, plan, policy, directory=None, *,
                         playbook="full-funnel", sample=None):
    return run_investigation(scenario, playbook=playbook, sample=sample,
                             execution=policy, fault_plan=plan,
                             invest_dir=directory)


def _resume_investigation(directory):
    return run_investigation(invest_dir=directory, resume=True)


BATCH = Workload("batch", _start_batch, _resume_batch, fingerprint_run,
                 _batch_charged)
STREAM = Workload("stream", _start_stream, _resume_stream,
                  lambda session: session.state.fingerprint(),
                  lambda session: charged_calls_from_services(
                      session.services))
SERVE = Workload("serve", _start_serve, _resume_serve, serve_fingerprint,
                 serve_charged_calls)
INVESTIGATE = Workload(
    "investigate", _start_investigation, _resume_investigation,
    lambda outcome: fleet_fingerprint(outcome.report, outcome.world),
    lambda outcome: fleet_charged_calls(outcome.world))

_BASELINES: Dict[str, Any] = {}


def baseline(workload: Workload, scenario: ScenarioConfig,
             faults: Optional[FaultPlan],
             policy: Optional[ExecutionPolicy], **shape) -> Any:
    """The uninterrupted run, computed once per test session (read-only)."""
    key = json.dumps({
        "workload": workload.name,
        "scenario": scenario_to_dict(scenario),
        "faults": faults_to_dict(faults, rules=True),
        "execution": None if policy is None else policy_to_dict(policy),
        "shape": shape,
    }, sort_keys=True, default=repr)
    if key not in _BASELINES:
        _BASELINES[key] = workload.start(scenario, faults, policy, **shape)
    return _BASELINES[key]


def kill_then_resume(workload: Workload, directory: Path,
                     scenario: ScenarioConfig, faults: Optional[FaultPlan],
                     policy: Optional[ExecutionPolicy], *,
                     kill: Union[CrashPoint, int], **shape) -> Any:
    """Start ``workload`` durable in ``directory``, kill it, resume it.

    ``kill`` is a :class:`CrashPoint` added to ``faults``; for batch it
    may instead be a journal write count, after which the journal kills
    the run. Returns the resumed result; raises ``AssertionError`` when
    the kill never fired, since a run that was never interrupted proves
    nothing.
    """
    if isinstance(kill, CrashPoint):
        plan, extra = (faults or FaultPlan()).extended(kill), {}
    else:
        assert workload is BATCH, "only a batch journal counts writes"
        plan, extra = faults, {"kill_after_writes": kill}
    try:
        workload.start(scenario, plan, policy, directory, **extra, **shape)
    except SimulatedCrash:
        pass
    else:
        raise AssertionError(f"{workload.name}: kill {kill!r} never fired")
    return workload.resume(directory)


def journal_writes(scenario: ScenarioConfig, faults: Optional[FaultPlan],
                   policy: Optional[ExecutionPolicy], directory: Path):
    """Journal a batch run to completion: the run and its write count,
    the range a journal-write kill can land in."""
    session = CheckpointSession.record(directory)
    run = run_pipeline(build_world(scenario), fault_plan=faults,
                       execution=policy, checkpoint=session)
    return run, session.journal.writes
