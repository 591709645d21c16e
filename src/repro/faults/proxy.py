"""Fault-injecting proxies: chaos in front of unsuspecting services.

A :class:`FaultProxy` wraps any forum or enrichment service object and
consults a :class:`~repro.faults.plan.FaultPlan` before forwarding each
public method call. The wrapped service never knows: attribute reads and
writes pass through (collectors set ``service.query_time``, read
``service.meter``, take ``len(service)``), and a fault raised by the
plan means the underlying method — and therefore its meter charge —
never runs, exactly like a network failure in front of a real API.

The proxy owns the per-instance call counter the plan's call-indexed
rules (bursts, error rates) key on, so determinism needs no global
state. Methods in ``exclude`` are forwarded unwrapped — free local
helpers (scrape-date planning, world-side ingestion) are not requests
and must not draw faults.
"""

from __future__ import annotations

from typing import Optional, Set

import dataclasses

from ..core.enrichment import EnrichmentServices
from ..forums.base import Post, SearchPage
from .plan import CorruptPayload, FaultPlan

#: Service methods that are not API requests: world-side ingestion and
#: pure client-side planning. Injecting faults there would fail code
#: paths that never touch the (simulated) network.
DEFAULT_EXCLUDE: Set[str] = {
    "add_post", "add_posts", "delete_post", "register_apk",
    "weekly_scrape_dates", "snapshot", "meters",
}


class FaultProxy:
    """Transparent wrapper injecting a plan's faults ahead of each call."""

    _INTERNAL = ("_target", "_plan", "_service", "_clock", "_exclude",
                 "_calls", "_corrupters")

    def __init__(self, target, plan: FaultPlan, *,
                 service: Optional[str] = None, clock=None,
                 exclude: Optional[Set[str]] = None):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(
            self, "_service",
            service if service is not None else target.meter.service,
        )
        resolved_clock = clock if clock is not None else target.meter.clock
        if resolved_clock is None:
            raise ValueError(
                "FaultProxy needs a clock (the target's meter has none)"
            )
        object.__setattr__(self, "_clock", resolved_clock)
        object.__setattr__(
            self, "_exclude",
            DEFAULT_EXCLUDE if exclude is None else set(exclude),
        )
        object.__setattr__(self, "_calls", 0)
        object.__setattr__(self, "_corrupters", tuple(
            rule for rule in plan.rules_for(self._service)
            if isinstance(rule, CorruptPayload)
        ))

    # -- introspection (tests) ------------------------------------------------

    @property
    def fault_target(self):
        """The wrapped service object."""
        return self._target

    @property
    def fault_calls(self) -> int:
        """How many wrapped calls have been intercepted so far."""
        return self._calls

    # -- checkpoint support ---------------------------------------------------

    def state_dict(self) -> dict:
        return {"calls": self._calls}

    def restore_state(self, state: dict) -> None:
        """Jump the per-instance call counter to a journaled value so
        call-indexed rules (bursts, error rates) resume exactly where the
        crashed run left off."""
        object.__setattr__(self, "_calls", int(state["calls"]))

    # -- transparent forwarding -----------------------------------------------

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        if (name.startswith("_") or name in self._exclude
                or not callable(attr)):
            return attr

        def wrapped(*args, **kwargs):
            index = self._calls
            object.__setattr__(self, "_calls", index + 1)
            self._plan.apply(self._service, index, self._clock)
            result = attr(*args, **kwargs)
            if self._corrupters:
                result = self._corrupt_result(index, result)
            return result

        wrapped.__name__ = getattr(attr, "__name__", name)
        return wrapped

    # -- payload corruption (CorruptPayload rules) ----------------------------

    def _corrupt_posts(self, index: int, posts):
        corrupted = []
        for position, post in enumerate(posts):
            if isinstance(post, Post) and any(
                    rule.hits(self._plan, index, position)
                    for rule in self._corrupters):
                # Never mutate the world's shared post objects — the
                # collector gets a mangled *copy*, like a real bad read.
                rule = next(r for r in self._corrupters
                            if r.hits(self._plan, index, position))
                post = dataclasses.replace(
                    post, body=rule.corrupt_body(post.body))
            corrupted.append(post)
        return corrupted

    def _corrupt_result(self, index: int, result):
        """Apply CorruptPayload rules to any post-shaped return value."""
        if isinstance(result, SearchPage):
            return SearchPage(posts=self._corrupt_posts(index, result.posts),
                              next_cursor=result.next_cursor)
        if isinstance(result, list) and any(
                isinstance(item, Post) for item in result):
            return self._corrupt_posts(index, result)
        if isinstance(result, Post):
            return self._corrupt_posts(index, [result])[0]
        return result

    def __setattr__(self, name: str, value) -> None:
        if name in self._INTERNAL:
            object.__setattr__(self, name, value)
        else:
            setattr(self._target, name, value)

    def __len__(self) -> int:
        return len(self._target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultProxy({self._service!r}, {self._target!r})"


def wrap_if_planned(service_obj, plan: FaultPlan, *, name: str, clock):
    """Wrap one service when the plan targets it, else pass it through."""
    if plan.affects(name):
        return FaultProxy(service_obj, plan, service=name, clock=clock)
    return service_obj


def inject_faults(services: EnrichmentServices, forums,
                  plan: Optional[FaultPlan], *, clock):
    """Wrap every planned-for service/forum; untouched ones pass through.

    Returns ``(services, forums)`` — new containers, original objects
    shared for every service the plan does not mention, so no plan or an
    empty one is free and the world object is never mutated.
    """
    if plan is None or plan.is_empty:
        return services, forums
    wrapped_services = EnrichmentServices(**{
        field: wrap_if_planned(
            getattr(services, field), plan,
            name=getattr(services, field).meter.service, clock=clock,
        )
        for field in ("hlr", "whois", "crtsh", "passivedns", "ipinfo",
                      "virustotal", "gsb", "openai")
    })
    wrapped_forums = {
        forum: wrap_if_planned(service_obj, plan, name=forum.value,
                               clock=clock)
        for forum, service_obj in forums.items()
    }
    return wrapped_services, wrapped_forums
