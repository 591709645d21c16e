"""The deterministic execution engine: policy, pools, and the cache.

:class:`ExecutionPolicy` is the user-facing knob (``--workers N``,
``--no-cache``); :class:`ExecutionEngine` turns it into concrete
resources for one pipeline run — one worker pool for the parallel
precompute, serial at one worker and processes above, and an unbounded
:class:`~repro.exec.cache.EnrichmentCache` value memo — and owns
their lifecycle (the engine is a context manager; the pool it built is
shut down on exit).

The equivalence argument, stated once
=====================================

The headline guarantee is that for any seed, fault plan, and worker
count, the :class:`~repro.core.pipeline.PipelineRun` is byte-identical
to the sequential uncached run. The engine earns that by splitting work
into two phases with very different rules:

* **Parallel phases are pure.** Enrichment precompute shards
  per-unique-subject and calls only the *uncharged, unfaulted* compute
  paths of the deterministic simulators — no meter, no clock, no fault
  proxy, no retries — filling the cache with values any schedule would
  produce identically.
* **Effectful phases are serial.** Everything that charges a meter,
  consults a fault rule, advances the clock, retries, or trips a
  breaker runs on the main thread in exactly the order the sequential
  pipeline uses. Collection is one of them: it runs forum by forum, in
  the canonical ``_COLLECTORS`` order, on the calling thread under every
  policy. A cached value changes *what is computed* inside a service
  call, never whether the call happens, so call indices, meter charges,
  backoff, and gap timestamps are untouched.

Nothing here takes a lock: workers share no mutable state, and the
cache, the pool accounting and every service are touched only by the
calling thread, so the simulated services stay concurrency-unaware.

The same phase split is what makes checkpoint/resume exact
(:mod:`repro.checkpoint`): the parallel phases are pure, so a resumed
run simply re-executes them (the precompute refills an identical cache
from the restored dataset), while the serial effects replay is the only
place state mutates between barriers — which is why journaling one
record per guarded lookup, with a changed-state delta, reconstructs a
crashed run bit-for-bit under any worker count.

The frozen heap
===============

A run's world is built before the engine is entered and stays alive
through the whole run: about 310,000 GC-tracked objects at 480
campaigns, none of them garbage (a clean run creates no cyclic garbage;
``gc.collect()`` after a 480-campaign run finds 0 unreachable objects),
yet every full collection walked them all. So the ``with`` block calls
``gc.freeze()`` on entry, moving everything alive into the permanent
generation, and ``gc.unfreeze()`` on exit; the collector walks only
what the run allocates (GC per 480-campaign job with its report fell
from 0.57–1.22 s to 0.14–0.42 s on a 2-CPU host). The block that froze
is the one that thaws, after its pool closes, on any exit,
:class:`~repro.errors.SimulatedCrash` included; a block entered while
anything is frozen does nothing, so a caller's or an outer run's frozen
objects stay frozen, and a test session's worlds become collectable
again after each run. The collector is frozen out, not disabled:
disabling it would leave any cycle a later change creates uncollected
until the run ends, for the intake service its whole life. Nothing in
``src/`` can observe a collection: no weak references, no finalizers,
no ``gc`` call outside this module (``tests/test_gc_freeze.py``).
Rejected: ``__slots__`` on the record types (Python 3.9 has no
``dataclass(slots=True)``, hand-written slots collide with field
defaults, a frozen slotted dataclass fails to unpickle, and with the
world frozen slots would only save memory); pausing the collector in
``build_world`` (0.21–0.61 s of GC per build, but that is set-up time,
outside the engine); re-freezing at the stage barriers (0.07–0.09 s per
world, not worth an API).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from .cache import EnrichmentCache
from .pool import WorkerPool, make_pool


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one pipeline run schedules and memoises its work.

    The default — one worker, cache on — is safe everywhere: the cache
    only deduplicates pure compute, so enabling it never changes a run's
    outputs (that is the engine's proven guarantee, not an aspiration).
    """

    #: 1 runs serially; N > 1 runs the precompute in N worker processes.
    workers: int = 1
    #: Memoise per-(service, subject) enrichment lookups.
    cache: bool = True
    #: Selects nothing: ``workers`` alone picks the pool. Kept, and
    #: accepting only ``"process"``, for callers that still name it.
    pool: str = "process"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.pool != "process":
            raise ConfigurationError(
                f"pool must be 'process', got {self.pool!r}"
            )

    def describe(self) -> str:
        """One-line summary for logs, manifests, and `repro resume`."""
        return f"workers={self.workers} cache={'on' if self.cache else 'off'}"


#: The reference semantics every other policy must be equivalent to.
SEQUENTIAL = ExecutionPolicy(workers=1, cache=False)


class ExecutionEngine:
    """Builds and owns the pool + cache for one pipeline run, and
    freezes the heap while the run is inside its ``with`` block."""

    def __init__(self, policy: Optional[ExecutionPolicy] = None):
        self.policy = policy or ExecutionPolicy()
        self._pool: Optional[WorkerPool] = None
        #: Task accounting of pools already closed — :meth:`stats` keeps
        #: reporting them after the engine context exits.
        self._retired_stats: List[Dict[str, Any]] = []
        #: Whether this engine's ``with`` block froze the heap, and so
        #: owns the unfreeze (see the module docstring).
        self._froze = False

    # -- resources ------------------------------------------------------------

    def build_cache(self) -> Optional[EnrichmentCache]:
        """A fresh cache per run, or None when the policy disables it."""
        return EnrichmentCache() if self.policy.cache else None

    def enrichment_pool(self) -> WorkerPool:
        """The run's one pool for the precompute shards: built on the
        first call, returned by every later one until the engine closes."""
        if self._pool is None:
            self._pool = make_pool(self.policy.workers)
            self._pool.label = "enrichment"
        return self._pool

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Per-pool task/busy accounting (the live and retired pools)."""
        pools = self._retired_stats + (
            [self._pool.stats()] if self._pool is not None else [])
        return {
            "policy": self.policy.describe(),
            "pools": pools,
            "tasks": sum(int(p["tasks"]) for p in pools),
            "busy_seconds": sum(float(p["busy_seconds"]) for p in pools),
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._retired_stats.append(self._pool.stats())
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        self._froze = gc.get_freeze_count() == 0
        if self._froze:
            gc.freeze()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.close()
        finally:
            if self._froze:
                gc.unfreeze()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionEngine(workers={self.policy.workers}, "
                f"cache={self.policy.cache})")


__all__ = ["ExecutionPolicy", "ExecutionEngine", "SEQUENTIAL"]
