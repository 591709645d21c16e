"""Resuming a crashed run from its journal: ``resume_pipeline``.

A resume rebuilds the run's inputs *from the manifest*, read back
through :mod:`repro.checkpoint.identity` — the world from its scenario
(world construction is a pure function of the scenario config), the
fault plan from its recorded profile, the execution policy from its
recorded knobs — then hands a resume-mode
:class:`~repro.checkpoint.session.CheckpointSession` to the ordinary
:func:`~repro.core.pipeline.run_pipeline`. Nothing about the pipeline's
control flow is forked for resumption; the session supplies restored
stage payloads and replayed lookups where the journal has them and lets
the run continue live where it does not.

Crash points are deliberately stripped: the resumed plan is the crashed
plan minus :class:`~repro.faults.CrashPoint` rules, so the run does not
re-crash at the same call index (and the manifest fingerprint, computed
over the crash-free plan, still matches).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import CheckpointError
from ..exec import ExecutionPolicy
from ..faults import FaultPlan
from ..world.scenario import build_world
from .identity import identity_from_dict
from .session import CheckpointSession


def resume_pipeline(
    checkpoint_dir,
    *,
    config=None,
    telemetry=None,
    telemetry_factory: Optional[Callable[[Any], Any]] = None,
    fault_plan: Optional[FaultPlan] = None,
    execution: Optional[ExecutionPolicy] = None,
):
    """Resume a crashed checkpointed run; returns the completed
    :class:`~repro.core.pipeline.PipelineRun`.

    ``config``/``fault_plan``/``execution`` default to the manifest's
    own values and, when passed explicitly, are still validated against
    the manifest fingerprints (a mismatch raises
    :class:`~repro.errors.CheckpointMismatch`). ``telemetry_factory``
    lets a caller build telemetry against the *rebuilt* world's clock
    (the CLI does); it is ignored when ``telemetry`` is given directly.
    """
    from ..core.pipeline import run_pipeline  # local: breaks import cycle

    session = CheckpointSession.resume(checkpoint_dir)
    scenario, plan, policy = identity_from_dict(session.manifest)
    if fault_plan is not None:
        plan = fault_plan.without_crash_points()
    if execution is not None:
        policy = execution
    if plan is None:
        raise CheckpointError(
            "the crashed run used a hand-built fault plan the manifest "
            "cannot reconstruct; pass the same plan via fault_plan="
        )
    world = build_world(scenario)
    if telemetry is None and telemetry_factory is not None:
        telemetry = telemetry_factory(world)
    return run_pipeline(
        world,
        config=config,
        telemetry=telemetry,
        fault_plan=plan,
        execution=policy,
        checkpoint=session,
    )
