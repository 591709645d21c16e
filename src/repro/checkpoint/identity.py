"""The run identity every durable directory records, written one way.

A durable run is rebuilt at resume time from what it wrote down: the
scenario its world came from, the fault plan it ran under and the
execution policy that scheduled it. Each part has one to-dict/from-dict
pair here. The batch checkpoint manifest and the ``STREAM.json``,
``SERVE.json`` and ``INVESTIGATE.json`` manifests all write and read
through them, so a field added to :class:`ScenarioConfig` or
:class:`ExecutionPolicy` reaches every manifest at once.

The readers refuse what they cannot rebuild exactly. A missing, unknown
or ill-typed field raises :class:`~repro.errors.CheckpointError` rather
than falling back to a default: a default is how a resumed run ends up
on a different world or pool than the run it continues.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import CheckpointError, ConfigurationError
from ..exec import ExecutionPolicy
from ..faults import FaultPlan, build_fault_plan
from ..world.scenario import ScenarioConfig


def _from_fields(cls, payload: Any, what: str,
                 decode: Callable[[dataclasses.Field, Any], Any]):
    """``cls`` built from exactly its dataclass fields in ``payload``."""
    fields = dataclasses.fields(cls)
    try:
        unknown = sorted(set(payload) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown fields {unknown}")
        return cls(**{f.name: decode(f, payload[f.name]) for f in fields})
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"manifest {what} is unusable: {exc}")


def scenario_to_dict(scenario: ScenarioConfig) -> Dict[str, Any]:
    """Every :class:`ScenarioConfig` field, dates as ISO strings."""
    payload = dataclasses.asdict(scenario)
    return {name: value.isoformat() if isinstance(value, dt.date) else value
            for name, value in payload.items()}


def _decode_scenario_field(field: dataclasses.Field, value: Any) -> Any:
    # Every field has a default, and its type is the field's type.
    if isinstance(field.default, dt.date):
        return dt.date.fromisoformat(value)
    return type(field.default)(value)


def scenario_from_dict(payload: Any) -> ScenarioConfig:
    return _from_fields(ScenarioConfig, payload, "scenario",
                        _decode_scenario_field)


def faults_to_dict(plan: Optional[FaultPlan], *,
                   rules: bool = False) -> Dict[str, Any]:
    """The crash-free plan as its profile and seed.

    A crashed run and its resume differ only in where the crash lands,
    so crash points are never part of the identity. ``rules`` adds the
    plan's rule description, which the checkpoint identity compares:
    a hand-built plan has no profile, and its rules are all that tells
    two of them apart.
    """
    survivable = plan.without_crash_points() if plan is not None else None
    if survivable is not None and survivable.is_empty \
            and survivable.profile is None:
        # A profile-less plan with no rules left (say, the bare plan a
        # crash point was grafted onto) injects nothing, whatever its
        # seed: it is the same run as no plan at all.
        survivable = None
    payload: Dict[str, Any] = {
        "profile": survivable.profile if survivable is not None else None,
        "seed": survivable.seed if survivable is not None else 0,
    }
    if rules:
        payload["rules"] = (survivable.describe() if survivable is not None
                            else "none")
    return payload


def plan_from_dict(payload: Dict[str, Any]) -> Optional[FaultPlan]:
    """The named plan a manifest records; None when it names no profile
    (no plan, or a hand-built one the caller must supply itself)."""
    profile = payload.get("profile")
    if profile is None:
        return None
    return build_fault_plan(profile, seed=int(payload.get("seed", 0)))


def policy_to_dict(policy: ExecutionPolicy) -> Dict[str, Any]:
    """Every :class:`ExecutionPolicy` field."""
    return dataclasses.asdict(policy)


def policy_from_dict(payload: Any) -> ExecutionPolicy:
    return _from_fields(ExecutionPolicy, payload, "execution policy",
                        lambda field, value: value)


def identity_to_dict(scenario: ScenarioConfig, plan: Optional[FaultPlan],
                     policy: ExecutionPolicy) -> Dict[str, Any]:
    """A session manifest's identity keys: scenario, faults, execution."""
    return {"scenario": scenario_to_dict(scenario),
            "faults": faults_to_dict(plan),
            "execution": policy_to_dict(policy)}


def identity_from_dict(manifest: Dict[str, Any]) -> Tuple[
        ScenarioConfig, Optional[FaultPlan], ExecutionPolicy]:
    return (scenario_from_dict(manifest.get("scenario")),
            plan_from_dict(manifest.get("faults") or {}),
            policy_from_dict(manifest.get("execution")))
