"""Deterministic parallel execution: pools, memoisation, and the engine.

``repro.exec`` lets the pipeline shard the enrichment precompute
per-unique-subject across a :class:`WorkerPool` (serial at one worker,
processes above) and memoise its per-(service, subject) values in an
:class:`EnrichmentCache`, while guaranteeing the resulting
:class:`~repro.core.pipeline.PipelineRun` is byte-identical to the
sequential uncached run — the argument lives in
:mod:`repro.exec.engine`'s docstring and is enforced by
``tests/test_exec_equivalence.py``.
"""

from .cache import EnrichmentCache
from .engine import SEQUENTIAL, ExecutionEngine, ExecutionPolicy
from .pool import (
    ProcessPool,
    SerialPool,
    WorkerPool,
    make_pool,
    shard,
)

__all__ = [
    "EnrichmentCache",
    "ExecutionEngine",
    "ExecutionPolicy",
    "ProcessPool",
    "SEQUENTIAL",
    "SerialPool",
    "WorkerPool",
    "make_pool",
    "shard",
]
