"""Worker pools with a canonical-merge guarantee.

A :class:`WorkerPool` runs a batch of independent tasks and returns the
results **in task-submission order**, no matter which worker finished
first. That canonical merge is the property the deterministic execution
engine (:mod:`repro.exec.engine`) builds on: as long as each task is a
pure function of its input (no shared mutable state), the merged output
of ``ProcessPool(4)`` is byte-identical to :class:`SerialPool`.

Two implementations share the interface, and :func:`make_pool` picks
between them by worker count alone:

* :class:`SerialPool` — runs tasks inline, one after another. The
  reference semantics; zero overhead, zero concurrency.
* :class:`ProcessPool` — a ``concurrent.futures`` process pool. Results
  are gathered by submission index; a task that raises re-raises the
  exception of the *lowest-indexed* failing task (again independent of
  completion order, so failures are deterministic too). Tasks and
  their results cross a pickle boundary, so callers must hand it
  module-level callables or picklable task objects — never closures
  over live services, meters, or locks.

There is no thread pool: every service here is an in-process
simulator, so threads have no I/O wait to overlap, and under the GIL
they only add overhead to the pure-Python precompute.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerPool:
    """Interface: run tasks, merge results in canonical (input) order.

    Pools also keep per-worker task accounting (task count, busy wall
    seconds) for the performance observatory — timing is observational
    only and never feeds back into scheduling, so it cannot perturb the
    canonical merge. Both pools record it on the calling thread (a
    worker process's timing travels back with its result), so the
    accounting needs no lock.
    """

    #: How many tasks may run concurrently (1 for serial pools).
    workers: int = 1
    #: Display label set by its owner (the engine's is "enrichment").
    label: str = "pool"

    def __init__(self) -> None:
        self.tasks = 0
        self.busy_seconds = 0.0
        self._per_worker: Dict[str, Dict[str, float]] = {}

    def _record_task(self, worker: str, seconds: float) -> None:
        self.tasks += 1
        self.busy_seconds += seconds
        slot = self._per_worker.setdefault(
            worker, {"tasks": 0, "busy_seconds": 0.0})
        slot["tasks"] += 1
        slot["busy_seconds"] += seconds

    def stats(self) -> Dict[str, object]:
        """Task accounting for the observatory's exec snapshot."""
        return {
            "label": self.label,
            "kind": type(self).__name__,
            "workers": self.workers,
            "tasks": self.tasks,
            "busy_seconds": self.busy_seconds,
            "per_worker": {name: dict(slot) for name, slot
                           in sorted(self._per_worker.items())},
        }

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (no-op for serial pools)."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialPool(WorkerPool):
    """Inline execution in submission order — the reference semantics."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        results: List[R] = []
        for item in items:
            started = time.perf_counter()
            try:
                results.append(fn(item))
            finally:
                self._record_task("worker-0",
                                  time.perf_counter() - started)
        return results


def _timed_call(fn: Callable[[T], R], item: T) -> tuple:
    """Worker-side wrapper: run one task, report who ran it for how long.

    Module-level on purpose — it must be picklable for the process pool.
    Timing happens inside the worker (the parent cannot observe a child's
    busy time), and the accounting triple travels back with the result.
    """
    started = time.perf_counter()
    result = fn(item)
    return (result, multiprocessing.current_process().name,
            time.perf_counter() - started)


class ProcessPool(WorkerPool):
    """Process-backed pool: true multi-core, same canonical merge.

    ``mp_context`` selects the multiprocessing start method; the default
    prefers ``fork`` (cheap startup) and falls back to ``spawn`` where
    fork is unavailable. Passing ``spawn`` explicitly reproduces
    macOS/Windows semantics on any platform — the regression tests do,
    to prove every task survives a from-scratch interpreter.
    """

    def __init__(self, workers: int,
                 mp_context: Optional[multiprocessing.context.BaseContext] = None):
        super().__init__()
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.workers = workers
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
        self._executor = ProcessPoolExecutor(max_workers=workers,
                                             mp_context=mp_context)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        futures = [self._executor.submit(_timed_call, fn, item)
                   for item in items]
        # Gather in submission order. Waiting on futures[0] first is
        # fine: every future completes regardless of which we await, and
        # the lowest-indexed failure is re-raised deterministically.
        results: List[R] = []
        error: BaseException | None = None
        for future in futures:
            try:
                result, worker, seconds = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                error = error or exc
            else:
                self._record_task(worker, seconds)
                results.append(result)
        if error is not None:
            raise error
        return results

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def make_pool(workers: int) -> WorkerPool:
    """:class:`SerialPool` at one worker, :class:`ProcessPool` above."""
    if workers <= 1:
        return SerialPool()
    return ProcessPool(workers)


def shard(items: Sequence[T], shards: int) -> List[List[T]]:
    """Split ``items`` into at most ``shards`` balanced round-robin chunks.

    Submitting one *chunk* per worker instead of one future per item
    keeps executor overhead negligible when items are many and cheap
    (the enrichment precompute has thousands of sub-millisecond tasks).
    Round-robin keeps the chunks within one item of each other in size.
    Order within and across chunks is deterministic, so any consumer
    that merges canonically is unaffected by the chunking.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return [list(items[i::shards]) for i in range(min(shards, len(items)))]
