"""The durable run journal: manifest + JSONL write-ahead log + snapshots.

Layout of a batch run's ``--run-dir``::

    MANIFEST.json     run identity: format, scenario, config/fault/code
                      fingerprints, execution policy, CLI argv
    journal.jsonl     the WAL: one JSON record per line, fsync'd per
                      append — ``barrier`` (stage done, snapshot ref +
                      full state), ``lookup`` (one enrichment outcome +
                      changed-state delta), ``complete``
    collection.pkl    pickled CollectionResult (referenced by a barrier)
    curation.pkl      pickled (SmishingDataset, CurationStats)

Write-ahead discipline: a snapshot file is written and fsync'd *before*
the journal record that references it, so the record's presence in the
log is the commit point — a crash between the two leaves an orphaned
snapshot the next resume ignores, never a dangling reference.

Recovery reads the longest valid prefix: the scan stops at the first
partial line, malformed record, or barrier whose snapshot is missing or
checksum-mismatched, warns (:class:`CheckpointWarning`), and truncates
the file there so subsequent appends extend a consistent log. Dropping
a suffix is always safe — it is exactly equivalent to having crashed a
few writes earlier.

``kill_after_writes`` is the test harness's kill switch: the journal
raises :class:`~repro.errors.SimulatedCrash` immediately after its Nth
durable append, letting the differential harness park a crash at every
write boundary a real ``kill -9`` could land on.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro

from ..errors import CheckpointError, ConfigurationError, SimulatedCrash
from .codec import canonical_json

MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.jsonl"
JOURNAL_FORMAT = 1

#: Record types a valid journal line may carry.
RECORD_TYPES = ("barrier", "lookup", "complete")


class CheckpointWarning(UserWarning):
    """A journal needed recovery (tail dropped) — resume is still exact."""


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + bytes).

    A journal written by different code must not be resumed: replay
    equivalence assumes the resumed process computes exactly what the
    crashed one would have. Computed once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(directory: Path) -> None:
    # Directory fsync makes freshly-created files durable; not all
    # platforms allow opening a directory — best-effort there.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _validate_record(record: Any) -> bool:
    if not isinstance(record, dict):
        return False
    kind = record.get("type")
    if kind not in RECORD_TYPES:
        return False
    if kind == "barrier":
        return all(key in record for key in ("stage", "file", "sha256",
                                             "state"))
    if kind == "lookup":
        return (all(key in record for key in ("service", "field", "subject",
                                              "outcome", "effects"))
                and record["outcome"] in ("value", "gap"))
    return True


class RunJournal:
    """Append-only, fsync'd journal for one checkpointed pipeline run."""

    def __init__(self, directory: Path, *,
                 kill_after_writes: Optional[int] = None):
        self.directory = Path(directory)
        self.kill_after_writes = kill_after_writes
        self.manifest: Optional[Dict[str, Any]] = None
        #: Records recovered from disk (resume mode); [] for a fresh run.
        self.records: List[Dict[str, Any]] = []
        #: Appends performed by *this* process (the kill counter).
        self.writes = 0
        #: Whether load-time recovery dropped a corrupt tail.
        self.recovered = False
        self._handle = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, directory, *,
               kill_after_writes: Optional[int] = None) -> "RunJournal":
        """Start a fresh journal in an empty (or new) directory."""
        path = Path(directory)
        if path.exists() and not path.is_dir():
            raise ConfigurationError(
                f"checkpoint dir {path} exists and is not a directory"
            )
        path.mkdir(parents=True, exist_ok=True)
        if not os.access(path, os.W_OK):
            raise ConfigurationError(f"checkpoint dir {path} is not writable")
        existing = sorted(p.name for p in path.iterdir())
        if existing:
            if MANIFEST_NAME in existing:
                raise ConfigurationError(
                    f"checkpoint dir {path} already contains a run journal; "
                    f"resume it with `repro resume {path}` "
                    f"or choose an empty directory"
                )
            raise ConfigurationError(
                f"checkpoint dir {path} is not empty "
                f"(found {', '.join(existing[:5])}); refusing to mix a run "
                f"journal into unrelated files"
            )
        return cls(path, kill_after_writes=kill_after_writes)

    @classmethod
    def load(cls, directory) -> "RunJournal":
        """Open an existing journal, recovering its longest valid prefix."""
        path = Path(directory)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise CheckpointError(
                f"no run journal at {path}: {MANIFEST_NAME} is missing"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable manifest at {manifest_path}: "
                                  f"{exc}")
        if not isinstance(manifest, dict) \
                or manifest.get("format") != JOURNAL_FORMAT:
            raise CheckpointError(
                f"unsupported journal format "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r} "
                f"(this code writes format {JOURNAL_FORMAT})"
            )
        journal = cls(path)
        journal.manifest = manifest
        journal.records, valid_bytes, dropped = journal._scan()
        journal_path = path / JOURNAL_NAME
        if dropped:
            warnings.warn(
                f"run journal {journal_path} needed recovery ({dropped}); "
                f"resuming from the last valid record — equivalent to a "
                f"crash a few writes earlier, results are unaffected",
                CheckpointWarning,
                stacklevel=2,
            )
            with open(journal_path, "r+b") as handle:
                handle.truncate(valid_bytes)
                _fsync_file(handle)
            journal.recovered = True
        return journal

    def _scan(self) -> Tuple[List[Dict[str, Any]], int, str]:
        """The longest valid record prefix, its byte length, and why the
        scan stopped early ('' when the whole file is valid)."""
        journal_path = self.directory / JOURNAL_NAME
        records: List[Dict[str, Any]] = []
        valid_bytes = 0
        if not journal_path.exists():
            return records, valid_bytes, ""
        with open(journal_path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    return records, valid_bytes, "partial final record"
                try:
                    record = json.loads(line)
                except ValueError:
                    return records, valid_bytes, "malformed record"
                if not _validate_record(record):
                    return records, valid_bytes, "unrecognised record"
                if record["type"] == "barrier":
                    snapshot = self.directory / record["file"]
                    if not snapshot.is_file():
                        return (records, valid_bytes,
                                f"missing snapshot {record['file']}")
                    digest = hashlib.sha256(
                        snapshot.read_bytes()).hexdigest()
                    if digest != record["sha256"]:
                        return (records, valid_bytes,
                                f"corrupt snapshot {record['file']}")
                records.append(record)
                valid_bytes += len(line)
        return records, valid_bytes, ""

    # -- writes ---------------------------------------------------------------

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        payload = dict(manifest)
        payload["format"] = JOURNAL_FORMAT
        path = self.directory / MANIFEST_NAME
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
            _fsync_file(handle)
        _fsync_dir(self.directory)
        self.manifest = payload

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record; the harness's kill switch fires
        *after* the write completes (a real crash between fsync and the
        next instruction)."""
        if self._handle is None:
            self._handle = open(self.directory / JOURNAL_NAME, "ab")
        self._handle.write(canonical_json(record).encode("utf-8") + b"\n")
        _fsync_file(self._handle)
        self.writes += 1
        if (self.kill_after_writes is not None
                and self.writes >= self.kill_after_writes):
            raise SimulatedCrash(
                f"journal kill-point: process death after write "
                f"{self.writes}",
                service="journal",
                at_call=self.writes,
            )

    def write_snapshot(self, name: str, payload: Any) -> Dict[str, Any]:
        """Durably write one pickled stage snapshot; returns the
        ``{file, sha256, bytes}`` reference its barrier record embeds."""
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.directory / name
        with open(path, "wb") as handle:
            handle.write(raw)
            _fsync_file(handle)
        _fsync_dir(self.directory)
        return {"file": name, "sha256": hashlib.sha256(raw).hexdigest(),
                "bytes": len(raw)}

    def load_snapshot(self, record: Dict[str, Any]) -> Any:
        path = self.directory / record["file"]
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read snapshot {path}: {exc}")
        if hashlib.sha256(raw).hexdigest() != record["sha256"]:
            raise CheckpointError(
                f"snapshot {path} does not match its journaled checksum"
            )
        return pickle.loads(raw)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def read_manifest(directory) -> Dict[str, Any]:
        """The manifest alone (for `repro resume`'s argv reconstruction)."""
        manifest_path = Path(directory) / MANIFEST_NAME
        if not manifest_path.is_file():
            raise CheckpointError(
                f"no run journal at {directory}: {MANIFEST_NAME} is missing"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable manifest at {manifest_path}: "
                                  f"{exc}")
        if not isinstance(manifest, dict):
            raise CheckpointError(f"malformed manifest at {manifest_path}")
        return manifest
