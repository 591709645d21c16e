"""Restorable run state: capture, diff, and restore as flat dicts.

Everything that mutates between two enrichment lookups — the sim clock,
service and forum meters, fault-proxy call counters, circuit breakers —
exposes ``state_dict()`` / ``restore_state()``. A :class:`StateRegistry`
aggregates them under stable string keys so the journal can write one
flat ``{key: state}`` mapping per barrier and a *changed-keys-only*
delta per lookup record, and a resume can put every piece back exactly.
The stream, serve and investigate sessions capture and restore their
committed state through the same registry.

Restores are silent by design: no observer fires, no telemetry counter
increments. The charges and transitions being restored already happened
(and were already counted) in the crashed run; the resumed run's
telemetry counts only the work *it* performs — which is exactly what
the zero-duplicate-charge acceptance check measures.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import CheckpointError
from ..faults.proxy import FaultProxy
from ..resilience.breaker import CircuitBreaker

#: State keys use ``<kind>:<name>`` so a restore can route by prefix.
CLOCK_KEY = "clock"
METER_PREFIX = "meter:"
FORUM_METER_PREFIX = "forum-meter:"
PROXY_PREFIX = "proxy:"
BREAKER_PREFIX = "breaker:"


class StateRegistry:
    """Keyed capture/restore over every restorable object in one run.

    Breakers are special: :class:`~repro.core.enrichment.Enricher`
    creates them lazily per service, so they are registered as a pair of
    callables — ``live()`` returning the current ``{service: breaker}``
    dict (for capture) and ``provider(service)`` creating-or-returning
    one (for restore).
    """

    def __init__(self) -> None:
        self._objects: Dict[str, Any] = {}
        self._breaker_provider: Optional[Callable[[str], Any]] = None
        self._breakers_live: Optional[Callable[[], Dict[str, Any]]] = None

    def register(self, key: str, obj: Any) -> None:
        if not hasattr(obj, "state_dict") or not hasattr(obj, "restore_state"):
            raise CheckpointError(
                f"object for state key {key!r} is not restorable "
                f"(needs state_dict/restore_state): {obj!r}"
            )
        self._objects[key] = obj

    def register_breakers(self, provider: Callable[[str], Any],
                          live: Callable[[], Dict[str, Any]]) -> None:
        self._breaker_provider = provider
        self._breakers_live = live

    # -- capture / diff -------------------------------------------------------

    def capture(self) -> Dict[str, Dict[str, Any]]:
        state = {key: obj.state_dict()
                 for key, obj in self._objects.items()}
        if self._breakers_live is not None:
            for name, breaker in self._breakers_live().items():
                state[BREAKER_PREFIX + name] = breaker.state_dict()
        return state

    @staticmethod
    def diff(previous: Dict[str, Dict[str, Any]],
             current: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
        """The keys whose state changed between two captures."""
        return {key: value for key, value in current.items()
                if previous.get(key) != value}

    # -- restore --------------------------------------------------------------

    def restore(self, state: Dict[str, Dict[str, Any]]) -> None:
        for key, value in state.items():
            obj = self._objects.get(key)
            if obj is not None:
                obj.restore_state(value)
            elif key.startswith(BREAKER_PREFIX):
                if self._breaker_provider is None:
                    raise CheckpointError(
                        f"cannot restore {key!r}: no breaker provider "
                        f"registered"
                    )
                self._breaker_provider(
                    key[len(BREAKER_PREFIX):]).restore_state(value)
            elif key.startswith(PROXY_PREFIX):
                # A journaled proxy with no live counterpart: the crashed
                # run had a CrashPoint forcing a proxy onto a service the
                # resumed (crash-stripped) plan leaves unwrapped. The
                # counter only feeds call-indexed rules, and that service
                # has none left — dropping the key is exact, not lossy.
                continue
            else:
                raise CheckpointError(
                    f"journal carries state for unknown key {key!r}; "
                    f"the journal does not match this run"
                )


def build_state_registry(clock, services, forums, breakers,
                         telemetry) -> StateRegistry:
    """Wire one run's restorable objects into a registry.

    ``services``/``forums`` are the containers the run calls through:
    every :class:`FaultProxy` among them is registered, so passing the
    unwrapped containers registers none. Which proxies count is thus the
    caller's choice: a batch run and a stream epoch pass their injected
    containers, serve its lifetime-wrapped battery, and a stream session
    its bare ones (its proxies are rebuilt every epoch). ``breakers`` is
    the live ``{service: breaker}`` dict the enricher fills lazily; a
    restore creates missing breakers into it exactly as the enricher
    would.
    """
    registry = StateRegistry()
    registry.register(CLOCK_KEY, clock)
    for name, meter in services.meters().items():
        registry.register(METER_PREFIX + name, meter)
    for forum, forum_service in forums.items():
        registry.register(FORUM_METER_PREFIX + forum.value,
                          forum_service.meter)
        if isinstance(forum_service, FaultProxy):
            registry.register(PROXY_PREFIX + forum.value, forum_service)
    for field_name in ("hlr", "whois", "crtsh", "passivedns", "ipinfo",
                       "virustotal", "gsb", "openai"):
        service_obj = getattr(services, field_name)
        if isinstance(service_obj, FaultProxy):
            registry.register(
                PROXY_PREFIX + service_obj.meter.service, service_obj)

    def breaker(name: str) -> CircuitBreaker:
        if name not in breakers:
            breakers[name] = CircuitBreaker(
                name, clock, observer=telemetry.breaker_hook())
        return breakers[name]

    registry.register_breakers(breaker, lambda: dict(breakers))
    return registry
