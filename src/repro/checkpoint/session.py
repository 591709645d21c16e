"""Checkpoint sessions: what the pipeline talks to.

A :class:`CheckpointSession` is the single object
:func:`~repro.core.pipeline.run_pipeline` interacts with. In **record**
mode it writes the manifest, appends a barrier after each completed
stage, and appends one lookup record (outcome + changed-state delta)
per enrichment service call. In **resume** mode it restores the journal
in three steps:

1. *Stage barriers* — collection/curation results come back from their
   pickled snapshots and the barrier's full state dict is applied, so
   skipped stages cost nothing and leave the world exactly as the
   crashed run left it.
2. *Effect fast-forward* — the journaled lookups' state deltas are
   merged (later records win) and applied once, jumping meters, clock,
   breakers, and fault-proxy counters to the crash instant *without*
   re-executing anything: zero duplicate charges, by construction.
3. *Ordered replay* — the enricher consults :meth:`replay_lookup`
   before every guarded call; journaled outcomes (values and gaps) are
   returned verbatim in order. The pipeline's call order is
   deterministic, so a sequence mismatch means the journal belongs to a
   different run and raises :class:`~repro.errors.CheckpointError`.
   When the cursor runs dry the run continues live, appending new
   records to the same journal.

:data:`NULL_CHECKPOINT` is the no-op twin for un-checkpointed runs, so
the pipeline carries no conditionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import CheckpointError, CheckpointMismatch
from .codec import decode_value, encode_value, fingerprint
from .identity import faults_to_dict, policy_to_dict, scenario_to_dict
from .journal import RunJournal, code_fingerprint
from .state import StateRegistry

#: Barrier stage names in pipeline order, mapped to snapshot filenames.
STAGE_SNAPSHOTS = {"collection": "collection.pkl",
                   "curation": "curation.pkl"}

#: Manifest keys that must match between a journal and a resume.
_MANIFEST_IDENTITY = ("scenario", "pipeline_config", "faults", "execution",
                      "code")


@dataclass(frozen=True)
class ReplayedLookup:
    """One journaled enrichment outcome handed back to the enricher."""

    outcome: str  # "value" | "gap"
    value: Any = None
    gap: Optional[Dict[str, Any]] = None


def build_manifest(scenario, config, fault_plan, policy,
                   *, cli: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The identity record binding a journal to exactly one run.

    Scenario, faults and execution policy go through
    :mod:`repro.checkpoint.identity`; the faults carry the crash-free
    plan's rule description too, so a crashed run and its resume,
    which differ only in where the crash lands, still match.
    """
    manifest: Dict[str, Any] = {
        "scenario": scenario_to_dict(scenario),
        "pipeline_config": fingerprint({
            "keywords": list(config.keywords),
            "windows": str(config.windows),
            "vision_miss_rate": config.vision_miss_rate,
        }),
        "faults": faults_to_dict(fault_plan, rules=True),
        "execution": policy_to_dict(policy),
        "code": code_fingerprint(),
    }
    if cli is not None:
        manifest["cli"] = cli
    return manifest


def _manifest_mismatches(stored: Dict[str, Any],
                         current: Dict[str, Any]) -> List[str]:
    problems = []
    for key in _MANIFEST_IDENTITY:
        if stored.get(key) != current.get(key):
            problems.append(
                f"{key}: journal has {stored.get(key)!r}, "
                f"this run has {current.get(key)!r}"
            )
    return problems


class NullCheckpoint:
    """The do-nothing session an un-checkpointed run carries."""

    active = False
    mode = "off"

    def restore_stage(self, stage: str) -> None:
        return None

    def stage_barrier(self, stage: str, payload: Any) -> None:
        pass

    def begin_enrichment(self) -> None:
        pass

    def enrichment_journal(self) -> None:
        """The enricher's hook; None keeps its hot path branch-free."""
        return None

    def complete(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_CHECKPOINT = NullCheckpoint()


class CheckpointSession:
    """One run's live connection to its journal (record or resume)."""

    active = True

    def __init__(self, journal: RunJournal, mode: str):
        if mode not in ("record", "resume"):
            raise ValueError(f"unknown checkpoint mode {mode!r}")
        self.journal = journal
        self.mode = mode
        self._registry: Optional[StateRegistry] = None
        self._cli: Optional[Dict[str, Any]] = None
        self._last_state: Dict[str, Dict[str, Any]] = {}
        self._restored_stages: List[str] = []
        self._barriers_written = 0
        self._replayed = 0
        self._recorded = 0
        # Resume-mode partitions of the recovered records.
        self._barriers: Dict[str, Dict[str, Any]] = {}
        self._lookups: List[Dict[str, Any]] = []
        self._completed = False
        self._cursor = 0
        for record in journal.records:
            if record["type"] == "barrier":
                self._barriers[record["stage"]] = record
            elif record["type"] == "lookup":
                self._lookups.append(record)
            elif record["type"] == "complete":
                self._completed = True

    # -- construction ---------------------------------------------------------

    @classmethod
    def record(cls, directory, *,
               kill_after_writes: Optional[int] = None,
               cli: Optional[Dict[str, Any]] = None) -> "CheckpointSession":
        session = cls(RunJournal.create(directory,
                                        kill_after_writes=kill_after_writes),
                      "record")
        session._cli = cli
        return session

    @classmethod
    def resume(cls, directory) -> "CheckpointSession":
        return cls(RunJournal.load(directory), "resume")

    @property
    def manifest(self) -> Dict[str, Any]:
        if self.journal.manifest is None:
            raise CheckpointError("session has no manifest yet")
        return self.journal.manifest

    # -- pipeline integration -------------------------------------------------

    def bind(self, *, registry: StateRegistry, scenario, config, fault_plan,
             policy) -> None:
        """Couple the session to one concrete run: write the manifest
        (record) or verify the journal belongs to this run (resume)."""
        self._registry = registry
        manifest = build_manifest(scenario, config, fault_plan, policy,
                                  cli=self._cli)
        if self.mode == "record":
            self.journal.write_manifest(manifest)
            return
        problems = _manifest_mismatches(self.journal.manifest, manifest)
        if problems:
            raise CheckpointMismatch(
                "refusing to resume: the journal was written by a "
                "different run — " + "; ".join(problems)
            )

    def restore_stage(self, stage: str) -> Optional[Any]:
        """The stage's snapshotted payload, or None when it must run."""
        record = self._barriers.get(stage)
        if self.mode != "resume" or record is None:
            return None
        payload = self.journal.load_snapshot(record)
        assert self._registry is not None
        self._registry.restore(record["state"])
        self._restored_stages.append(stage)
        return payload

    def stage_barrier(self, stage: str, payload: Any) -> None:
        """Journal one freshly-completed stage (snapshot first, then the
        barrier record — the record is the commit point)."""
        if stage in self._barriers:  # resumed past it; already durable
            return
        assert self._registry is not None
        reference = self.journal.write_snapshot(
            STAGE_SNAPSHOTS.get(stage, f"{stage}.pkl"), payload)
        self.journal.append({"type": "barrier", "stage": stage,
                             "state": self._registry.capture(), **reference})
        self._barriers_written += 1

    def begin_enrichment(self) -> None:
        """Arm lookup journaling: fast-forward journaled effects (resume)
        and seed the delta baseline for subsequent records."""
        assert self._registry is not None
        if self.mode == "resume" and self._lookups:
            merged: Dict[str, Dict[str, Any]] = {}
            for record in self._lookups:
                merged.update(record["effects"])
            if merged:
                self._registry.restore(merged)
        self._last_state = self._registry.capture()

    def enrichment_journal(self) -> "CheckpointSession":
        return self

    # -- the enricher-facing journal interface --------------------------------

    def replay_lookup(self, service: str, field_name: str,
                      subject: str) -> Optional[ReplayedLookup]:
        """The next journaled outcome, or None once the journal is spent.

        The enricher's call order is deterministic, so the journal must
        agree record-by-record; disagreement means the journal was
        written by a different run (or the code changed under it) and
        continuing would silently produce wrong results.
        """
        if self.mode != "resume" or self._cursor >= len(self._lookups):
            return None
        record = self._lookups[self._cursor]
        expected = (record["service"], record["field"], record["subject"])
        if expected != (service, field_name, subject):
            raise CheckpointError(
                f"journal out of sync at lookup {self._cursor}: journal "
                f"has {expected!r}, the pipeline asked for "
                f"{(service, field_name, subject)!r}"
            )
        self._cursor += 1
        self._replayed += 1
        if record["outcome"] == "gap":
            return ReplayedLookup(outcome="gap", gap=dict(record["gap"]))
        return ReplayedLookup(outcome="value",
                              value=decode_value(record["value"]))

    def record_lookup(self, service: str, field_name: str, subject: str, *,
                      value: Any = None,
                      gap: Optional[Dict[str, Any]] = None) -> None:
        """Journal one live lookup outcome with its state delta."""
        assert self._registry is not None
        current = self._registry.capture()
        effects = StateRegistry.diff(self._last_state, current)
        self._last_state = current
        record: Dict[str, Any] = {
            "type": "lookup", "service": service, "field": field_name,
            "subject": subject, "effects": effects,
        }
        if gap is not None:
            record["outcome"] = "gap"
            record["gap"] = gap
        else:
            record["outcome"] = "value"
            record["value"] = encode_value(value)
        self.journal.append(record)
        self._recorded += 1

    # -- completion / reporting -----------------------------------------------

    def complete(self) -> None:
        if not self._completed:
            self.journal.append({"type": "complete"})

    def close(self) -> None:
        self.journal.close()

    def stats(self) -> Dict[str, Any]:
        """Checkpoint accounting for the telemetry layer."""
        return {
            "mode": self.mode,
            "stages_restored": list(self._restored_stages),
            "barriers_written": self._barriers_written,
            "lookups_replayed": self._replayed,
            "lookups_recorded": self._recorded,
            "journal_writes": self.journal.writes,
            "journal_recovered": self.journal.recovered,
        }
