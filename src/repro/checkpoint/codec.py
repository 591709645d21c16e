"""Serialisation for the run journal: values and fingerprints.

The journal stores two shapes of data and each gets the narrowest
codec that round-trips it exactly:

* **Lookup values** — arbitrary service results (records, scan reports,
  enums, dataclasses). Pickled and base64-wrapped so they embed in a
  JSONL record. Pickle is safe here because a journal is a local file
  the same code version wrote (the manifest's code fingerprint rejects
  anything else before a value is ever decoded).
* **Fingerprints** — SHA-256 over canonical JSON; used by the manifest
  to detect config drift between a crashed run and its resume.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from typing import Any, Dict

from ..errors import CheckpointError

# -- canonical JSON + fingerprints --------------------------------------------


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, str() fallback
    for non-JSON leaves (dates, paths, enums)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- lookup values ------------------------------------------------------------


def encode_value(value: Any) -> Dict[str, str]:
    """A JSON-embeddable envelope for one lookup result."""
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return {"pickle": base64.b64encode(raw).decode("ascii")}


def decode_value(envelope: Dict[str, str]) -> Any:
    try:
        raw = base64.b64decode(envelope["pickle"])
        return pickle.loads(raw)
    except (KeyError, TypeError, ValueError, pickle.UnpicklingError) as exc:
        raise CheckpointError(f"journal value cannot be decoded: {exc}")
