"""The degradation controller: the service's overload state machine.

Backpressure from the enrichment tier has to change the service's
*behaviour*, not just a dashboard colour. The controller folds four
signals into one mode:

* **queue watermarks** — depth at or above the high watermark latches
  ``shedding`` (reject new submissions with retry-after hints) until
  depth falls back to the low watermark. The hysteresis gap prevents
  mode flapping at the boundary.
* **circuit breakers** — any enrichment breaker not CLOSED means the
  tier is failing or still probing its way back; the service runs
  ``degraded`` (annotate-only: accepted reports get the cheap,
  cache-friendly annotation pass now and skip the expensive per-URL /
  per-sender battery). The breaker's half-open probe/success counters
  make the reason string distinguish "recovering" from "still failing".
* **meter budgets** — a metered service whose remaining lifetime quota
  falls under :data:`QUOTA_FLOOR` would burn its last calls on a backlog;
  degrade before it hits zero.
* **quarantine pressure** — an optional hostile-input signal from the
  sanitizer (:mod:`repro.core.quarantine`): when a recent batch was
  mostly diverted, the intake is likely under a coordinated poisoning
  attempt and enrichment spend is throttled to annotate-only until the
  stream runs clean again.

Precedence: ``draining > shedding > degraded > healthy``. Every change
is a :class:`ModeTransition` with the simulated time and the reason —
the mode history is a research artefact (`repro stats` renders it), not
a log line.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

from ..resilience.breaker import BreakerState

#: Degrade when a metered service's remaining quota fraction dips under
#: this floor.
QUOTA_FLOOR = 0.1


class ServeMode(str, enum.Enum):
    """What the intake service is currently willing to do."""

    HEALTHY = "healthy"      # accept and fully enrich
    DEGRADED = "degraded"    # accept, annotate-only enrichment
    SHEDDING = "shedding"    # reject new work until backlog clears
    DRAINING = "draining"    # shutting down: reject new, finish queued


@dataclass(frozen=True)
class ModeTransition:
    """One mode change, with its cause, on the simulated clock."""

    at: float
    from_mode: str
    to_mode: str
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class DegradationController:
    """Derives the mode from queue depth, breakers, and meter budgets."""

    def __init__(self, clock, *, high_watermark: int, low_watermark: int,
                 breakers: Dict[str, Any], meters: Dict[str, Any],
                 quarantine_pressure: Optional[
                     Callable[[], Optional[str]]] = None):
        if low_watermark >= high_watermark:
            raise ValueError("low watermark must sit below the high one")
        self.clock = clock
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._breakers = breakers
        #: The meters with a quota, in name order. A quota is fixed when
        #: its service is built; the breaker dict, by contrast, gains
        #: entries during a run and is read live.
        self._quota_meters = [(name, meters[name]) for name in sorted(meters)
                              if meters[name].quota is not None]
        #: Optional hostile-input signal: returns a reason string while
        #: the sanitizer is diverting an abnormal share of accepted
        #: reports (a poisoning attempt in progress), None when calm.
        self._quarantine_pressure = quarantine_pressure
        self.mode = ServeMode.HEALTHY
        self.transitions: List[ModeTransition] = []
        self._shed_latched = False
        self._draining = False

    # -- signal evaluation ----------------------------------------------------

    def _pressure(self) -> Optional[str]:
        """A reason string when the enrichment tier is under pressure.

        Every call polls every signal. The breakers are scanned in dict
        order, and only when one is not closed are the names compared,
        so the reason still names the first such breaker by name."""
        for breaker in self._breakers.values():
            if breaker.state is not BreakerState.CLOSED:
                name = min(key for key, other in self._breakers.items()
                           if other.state is not BreakerState.CLOSED)
                breaker = self._breakers[name]
                return (f"breaker {name} {breaker.state.value} "
                        f"({breaker.half_open_probes} probes, "
                        f"{breaker.half_open_successes} ok)")
        for name, meter in self._quota_meters:
            remaining = meter.remaining_quota
            if remaining / meter.quota < QUOTA_FLOOR:
                return (f"{name} quota nearly exhausted "
                        f"({remaining}/{meter.quota} left)")
        if self._quarantine_pressure is not None:
            return self._quarantine_pressure()
        return None

    def refresh(self, queue_depth: int) -> ServeMode:
        """Re-derive the mode; records a transition when it changes."""
        if queue_depth >= self.high_watermark:
            self._shed_latched = True
        elif queue_depth <= self.low_watermark:
            self._shed_latched = False
        if self._draining:
            target, reason = ServeMode.DRAINING, "drain requested"
        elif self._shed_latched:
            target, reason = ServeMode.SHEDDING, None
        else:
            reason = self._pressure()
            target = (ServeMode.HEALTHY if reason is None
                      else ServeMode.DEGRADED)
        if target is not self.mode:
            # Refresh runs on every dispatch; only a transition needs the
            # queue-depth reasons, so they are formatted here.
            if target is ServeMode.SHEDDING:
                reason = (f"queue depth {queue_depth} breached high "
                          f"watermark {self.high_watermark}")
            elif target is ServeMode.HEALTHY:
                reason = (f"recovered: queue depth {queue_depth} at/below "
                          f"low watermark {self.low_watermark}, enrichment "
                          f"tier clear")
            self.transitions.append(ModeTransition(
                at=round(self.clock.now, 3),
                from_mode=self.mode.value,
                to_mode=target.value,
                reason=reason,
            ))
            self.mode = target
        return self.mode

    # -- drain lifecycle ------------------------------------------------------

    def begin_drain(self, queue_depth: int) -> None:
        self._draining = True
        self.refresh(queue_depth)

    def end_drain(self) -> None:
        self._draining = False
        self.refresh(0)

    # -- checkpoint support ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode.value,
            "shed_latched": self._shed_latched,
            "draining": self._draining,
            "transitions": [t.to_dict() for t in self.transitions],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.mode = ServeMode(state["mode"])
        self._shed_latched = bool(state["shed_latched"])
        self._draining = bool(state["draining"])
        self.transitions = [ModeTransition(**payload)
                            for payload in state["transitions"]]
