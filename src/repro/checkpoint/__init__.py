"""Durable checkpoint/resume: crash-safe pipeline runs.

A checkpointed run writes a **run journal** — an fsync'd append-only
JSONL write-ahead log plus per-stage snapshot files — under a batch
run's ``--run-dir``. After a hard process death (a real one, or a
:class:`~repro.faults.CrashPoint` / journal kill-point injecting
:class:`~repro.errors.SimulatedCrash`), ``repro resume`` /
:func:`resume_pipeline` completes the run with **byte-identical**
results to a never-crashed run, performing zero duplicate charged
service calls: completed stages come back from snapshots, completed
enrichment lookups are replayed from the journal, and all effectful
state (sim clock, meters, breakers, fault-proxy call counters) is
restored from journaled state deltas rather than re-executed.

Layers, bottom-up:

* :mod:`repro.checkpoint.codec` — value serialisation and config
  fingerprints.
* :mod:`repro.checkpoint.identity` — the run-identity codec: scenario,
  fault plan and execution policy to and from manifest dicts, shared
  by every durable directory (batch, stream, serve, investigate).
* :mod:`repro.checkpoint.state` — :class:`StateRegistry`: capture /
  diff / restore of every restorable run object under stable keys.
* :mod:`repro.checkpoint.journal` — :class:`RunJournal`: the durable
  manifest + WAL + snapshots, with truncate-to-valid-prefix recovery.
* :mod:`repro.checkpoint.session` — :class:`CheckpointSession`: the
  record/resume orchestration the pipeline talks to.
* :mod:`repro.checkpoint.resume` — :func:`resume_pipeline`: rebuild a
  run from its manifest and finish it.
"""

from .codec import (
    canonical_json,
    decode_value,
    encode_value,
    fingerprint,
)
from .journal import (
    JOURNAL_FORMAT,
    JOURNAL_NAME,
    MANIFEST_NAME,
    CheckpointWarning,
    RunJournal,
    code_fingerprint,
)
from .session import (
    NULL_CHECKPOINT,
    CheckpointSession,
    NullCheckpoint,
    ReplayedLookup,
    build_manifest,
)
from .state import StateRegistry, build_state_registry
from .resume import resume_pipeline

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "NULL_CHECKPOINT",
    "CheckpointSession",
    "CheckpointWarning",
    "NullCheckpoint",
    "ReplayedLookup",
    "RunJournal",
    "StateRegistry",
    "build_manifest",
    "build_state_registry",
    "canonical_json",
    "code_fingerprint",
    "decode_value",
    "encode_value",
    "fingerprint",
    "resume_pipeline",
]
