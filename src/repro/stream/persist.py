"""Crash-safe session directories: atomic writers and the snapshot store.

Every durable session artefact — a ``STREAM.json``, ``SERVE.json`` or
``INVESTIGATE.json`` manifest and the pickled session state — is
written with the same discipline the run journal uses: write to a temp file in the same directory, ``fsync`` the file,
atomically rename over the target, then ``fsync`` the directory so the
rename itself is durable. A crash at any instant leaves either the old
artefact or the new one, never a torn mixture.

:class:`SnapshotStore` is the one manifest + ``state.pkl`` protocol the
stream, serve and investigate sessions share; each keeps only its own
manifest fields and state payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..errors import CheckpointError, ConfigurationError

#: The state file every snapshot store commits.
STATE_NAME = "state.pkl"


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def atomic_write_json(path: Path, payload: Any) -> None:
    """Durably replace ``path`` with ``payload`` rendered as JSON."""
    rendered = json.dumps(payload, indent=2, sort_keys=True, default=str)
    _atomic_write_bytes(Path(path), rendered.encode("utf-8"))


def atomic_write_pickle(path: Path, payload: Any) -> str:
    """Durably replace ``path`` with pickled ``payload``.

    Returns the payload's SHA-256 hex digest so the caller can bind the
    pickle to its manifest (a half-written or swapped state file is
    detected at load time, not silently trusted).
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    _atomic_write_bytes(Path(path), blob)
    return hashlib.sha256(blob).hexdigest()


def read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_pickle(path: Path, *, expected_sha256: Optional[str]) -> Any:
    """Load a pickled artefact after verifying its digest."""
    with open(path, "rb") as handle:
        blob = handle.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != expected_sha256:
        raise CheckpointError(
            f"state file {path} does not match its manifest digest "
            f"(expected {str(expected_sha256)[:12]}…, got {digest[:12]}…); "
            f"the session directory is corrupt"
        )
    return pickle.loads(blob)


class SnapshotStore:
    """One session directory: a JSON manifest bound to a ``state.pkl``.

    * :meth:`create` refuses a directory that already holds the
      manifest, then makes the directory and writes the manifest before
      any work, so a crash at any instant leaves a loadable directory.
    * :meth:`commit` writes the pickle, then the manifest recording its
      SHA-256: the manifest's rename is the commit point.
    * :meth:`load` fails on a missing manifest or another version and
      verifies the pickle against the recorded digest before unpickling.

    Every manifest carries ``version``, ``state_file`` and
    ``state_sha256`` beside the session kind's own fields.
    """

    def __init__(self, directory, manifest_name: str, version: int):
        self.directory = Path(directory)
        self.manifest_name = manifest_name
        self.version = version
        #: Digest of the last committed (or loaded) state; None before
        #: the first commit.
        self.state_sha256: Optional[str] = None

    def create(self, fields: Dict[str, Any]) -> None:
        if (self.directory / self.manifest_name).exists():
            raise ConfigurationError(
                f"{self.directory} already holds a session "
                f"({self.manifest_name}); finish it with `repro resume "
                f"{self.directory}`"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.write_manifest(fields)

    def load(self) -> Tuple[Dict[str, Any], Any]:
        """The manifest and the committed state (None before the first
        commit)."""
        path = self.directory / self.manifest_name
        if not path.is_file():
            raise CheckpointError(
                f"{self.directory} holds no {self.manifest_name}")
        manifest = read_json(path)
        version = manifest.get("version") if isinstance(manifest, dict) \
            else None
        if version != self.version:
            raise CheckpointError(
                f"{self.manifest_name} version {version!r} is not "
                f"supported (want {self.version})"
            )
        if not manifest.get("state_file"):
            return manifest, None
        payload = read_pickle(self.directory / manifest["state_file"],
                              expected_sha256=manifest.get("state_sha256"))
        self.state_sha256 = manifest["state_sha256"]
        return manifest, payload

    def commit(self, payload: Any, fields: Dict[str, Any]) -> None:
        self.state_sha256 = atomic_write_pickle(self.directory / STATE_NAME,
                                                payload)
        self.write_manifest(fields)

    def write_manifest(self, fields: Dict[str, Any]) -> None:
        """Rewrite the manifest around the last committed state."""
        atomic_write_json(self.directory / self.manifest_name, {
            **fields,
            "version": self.version,
            "state_file": STATE_NAME if self.state_sha256 else None,
            "state_sha256": self.state_sha256,
        })
