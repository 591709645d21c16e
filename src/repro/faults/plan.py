"""Deterministic fault plans: *what* fails, *when*, and *how*.

A :class:`FaultPlan` is a seeded, immutable description of the failures
to inject in front of services — the chaos-engineering analogue of the
real incidents the paper survived (§3.1). Four rule kinds compose:

* :class:`TransientBurst` — the service's calls ``after_calls`` ..
  ``after_calls + count - 1`` (0-based, counted per wrapped instance)
  fail with a retryable outage. Models a mid-run blip; because retries
  re-invoke the call, a burst of *n* consumes *n* attempts, not *n*
  distinct requests.
* :class:`OutageWindow` — every call while the simulated clock is in
  ``[start, end)`` fails. Retry backoff advances the clock, so callers
  with a :class:`~repro.resilience.RetryPolicy` ride out short windows
  and gap through long ones. ``permanent=True`` models a shutdown the
  way the Twitter academic API died: not retryable.
* :class:`ErrorRate` — each call fails independently with probability
  ``rate``, decided by a stable hash of ``(seed, service, call index)``
  — deterministic across runs, different across calls.
* :class:`InjectedLatency` — every call first advances the simulated
  clock by ``seconds`` (slow service, not a failing one).

Determinism: rules hold no state; the per-service call index lives in
the :class:`~repro.faults.proxy.FaultProxy` and the only randomness is
`stable_hash`, so two runs with the same seed and plan inject byte-
identical fault sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..errors import ConfigurationError, ServiceUnavailable, SimulatedCrash
from ..utils.rng import stable_hash


@dataclass(frozen=True)
class TransientBurst:
    """``count`` consecutive failing calls starting at ``after_calls``."""

    service: str
    after_calls: int
    count: int

    def check(self, plan: "FaultPlan", index: int, clock) -> None:
        if self.after_calls <= index < self.after_calls + self.count:
            raise ServiceUnavailable(
                f"{self.service}: injected transient fault "
                f"(call {index}, burst of {self.count})",
                service=self.service,
            )


@dataclass(frozen=True)
class OutageWindow:
    """The service is down while the sim clock is in ``[start, end)``."""

    service: str
    start: float
    end: float
    permanent: bool = False

    def check(self, plan: "FaultPlan", index: int, clock) -> None:
        if self.start <= clock.now < self.end:
            raise ServiceUnavailable(
                f"{self.service}: injected outage "
                f"(t={clock.now:.1f} in [{self.start:.0f}, {self.end:.0f}))",
                service=self.service,
                permanent=self.permanent,
            )


@dataclass(frozen=True)
class ErrorRate:
    """Each call independently fails with probability ``rate``."""

    service: str
    rate: float

    def check(self, plan: "FaultPlan", index: int, clock) -> None:
        draw = stable_hash(
            f"fault:{plan.seed}:{self.service}:{index}"
        ) / 2 ** 32
        if draw < self.rate:
            raise ServiceUnavailable(
                f"{self.service}: injected error (call {index})",
                service=self.service,
            )


@dataclass(frozen=True)
class InjectedLatency:
    """Every call costs ``seconds`` of simulated time before it runs."""

    service: str
    seconds: float

    def check(self, plan: "FaultPlan", index: int, clock) -> None:
        clock.advance(self.seconds)


@dataclass(frozen=True)
class CrashPoint:
    """Hard process death at event ``at_call`` (0-based) of a phase.

    Every durable run takes its injected kill as one of these rules.
    The phase, ``service``, names what the run counts: a service's or a
    forum's calls in batch and stream runs (``whois``, ``Reddit``, ...,
    counted by the fault proxy), ``arrival`` in a serve run and ``scan``
    in an investigation. Only a stream reads ``epoch``: each epoch runs
    under the crash points whose ``epoch`` is its index.

    Unlike every other rule this raises
    :class:`~repro.errors.SimulatedCrash` — a ``BaseException`` that no
    retry policy, breaker, or enrichment guard catches — so the run dies
    exactly as it would under ``kill -9``, mid-pipeline, with only the
    checkpoint journal left behind. The proxy's call counter increments
    *before* the plan is consulted and meter charges happen *after*, so
    a crash never lands mid-charge: the journal is always consistent.
    """

    service: str
    at_call: int
    epoch: int = 0

    def check(self, plan: "FaultPlan", index: int, clock) -> None:
        if index == self.at_call:
            raise SimulatedCrash(
                f"simulated process crash at {self.service}:{index}",
                service=self.service,
                at_call=index,
            )


@dataclass(frozen=True)
class CorruptPayload:
    """Silently corrupt a fraction of the posts a forum call returns.

    Unlike every other rule this one never *fails* the call — the
    request succeeds, the meter charges, and the collector receives
    mangled data without knowing: bodies truncated mid-URL with
    replacement characters spliced in, the way real scrapes decay when
    an upstream changes encoding. The per-post draw is a stable hash of
    ``(seed, service, call index, position)``, so two runs with the
    same plan corrupt byte-identical posts. The corruption happens on
    *copies* — the world's own post objects are never touched.

    Not part of any named ``--faults`` profile: pair it with the
    ``--hostile`` world packs or hand-built plans in tests to prove the
    quarantine layer catches corruption the collector cannot see.
    """

    service: str
    rate: float
    seed_salt: str = "corrupt"

    def check(self, plan: "FaultPlan", index: int, clock) -> None:
        return None  # corruption applies to results, never the call

    def hits(self, plan: "FaultPlan", index: int, position: int) -> bool:
        draw = stable_hash(
            f"{self.seed_salt}:{plan.seed}:{self.service}:{index}:{position}"
        ) / 2 ** 32
        return draw < self.rate

    def corrupt_body(self, body: str) -> str:
        """Deterministic mangling: truncate at a third and splice in
        U+FFFD replacement characters (classic encoding rot)."""
        cut = max(1, len(body) // 3)
        return body[:cut] + "���" + body[cut:cut + 7]


FaultRule = object  # any of the six rule dataclasses above


class FaultPlan:
    """An immutable, seeded set of fault rules keyed by service name.

    Service names match the wire-level names used everywhere else in the
    repo: ``meter.service`` for enrichment services ("hlr", "whois",
    "gsb", ...) and ``Forum.value`` for forums ("Twitter", "Reddit", ...).
    """

    def __init__(self, seed: int = 0, rules: Iterable[FaultRule] = (),
                 profile: Optional[str] = None):
        self.seed = seed
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        #: Provenance: the named profile this plan was built from (set by
        #: :func:`build_fault_plan`), or None for hand-built plans. The
        #: checkpoint manifest records it so ``repro resume`` can rebuild
        #: the same plan without re-specifying ``--faults``.
        self.profile = profile
        for rule in self.rules:
            if not hasattr(rule, "service") or not hasattr(rule, "check"):
                raise ConfigurationError(
                    f"not a fault rule: {rule!r}"
                )

    @property
    def is_empty(self) -> bool:
        return not self.rules

    def affects(self, service: str) -> bool:
        return any(rule.service == service for rule in self.rules)

    def rules_for(self, service: str) -> Tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.service == service)

    def apply(self, service: str, index: int, clock) -> None:
        """Consult every rule for one call; crashes first, then latency,
        then failures.

        ``index`` is the 0-based per-instance call counter maintained by
        the proxy. Raises the first matching failure. Crash points are
        consulted before everything else: a process death at call N
        preempts whatever soft fault the profile would have injected at
        the same index (otherwise an ErrorRate firing at exactly N would
        shadow the one index the crash matches and the kill would never
        happen).
        """
        rules = self.rules_for(service)
        for rule in rules:
            if isinstance(rule, CrashPoint):
                rule.check(self, index, clock)
        for rule in rules:
            if isinstance(rule, InjectedLatency):
                rule.check(self, index, clock)
        for rule in rules:
            if not isinstance(rule, (CrashPoint, InjectedLatency)):
                rule.check(self, index, clock)

    def extended(self, *extra: FaultRule) -> "FaultPlan":
        """A new plan with ``extra`` rules appended (same seed/profile).

        The CLI uses this to graft a :class:`CrashPoint` onto a named
        profile (``--kill-at``) without disturbing the profile's rules.
        """
        return FaultPlan(seed=self.seed, rules=self.rules + tuple(extra),
                         profile=self.profile)

    def without_crash_points(self) -> "FaultPlan":
        """The plan minus any :class:`CrashPoint` rules.

        Two uses: the checkpoint manifest fingerprints the *survivable*
        fault plan (a crashed run and its resume intentionally differ in
        crash points), and ``repro resume`` strips them so the resumed
        run does not re-crash at the same call index.
        """
        kept = tuple(r for r in self.rules if not isinstance(r, CrashPoint))
        if len(kept) == len(self.rules):
            return self
        return FaultPlan(seed=self.seed, rules=kept, profile=self.profile)

    def crash_points(self) -> Tuple[CrashPoint, ...]:
        return tuple(r for r in self.rules if isinstance(r, CrashPoint))

    def crash_point(self, phase: str) -> Optional[CrashPoint]:
        """The first crash point on ``phase``, or None."""
        return next((r for r in self.crash_points() if r.service == phase),
                    None)

    def describe(self) -> str:
        """One-line summary for span attributes and logs."""
        if self.is_empty:
            return "none"
        return "; ".join(
            f"{type(rule).__name__}({rule.service})" for rule in self.rules
        )


#: The CLI's named chaos profiles (``--faults PROFILE``).
FAULT_PROFILES = ("none", "flaky", "outage")


def build_fault_plan(profile: Optional[str], *, seed: int = 0) -> FaultPlan:
    """The named chaos profiles behind the ``--faults`` CLI flag.

    * ``none``  — empty plan (the default; zero injection overhead).
    * ``flaky`` — independent transient error rates on several
      enrichment services plus a Reddit error rate and a crt.sh burst:
      lots of retries, a handful of gaps, no lasting outage.
    * ``outage``— one mid-run outage: VirusTotal is down for the first
      240 simulated seconds (retry backoff rides the clock past the
      window, so late URLs recover), plus a passive-DNS burst.
    """
    if profile is None or profile == "none":
        return FaultPlan(seed=seed, profile="none")
    if profile == "flaky":
        return FaultPlan(seed=seed, profile="flaky", rules=(
            ErrorRate("whois", 0.20),
            ErrorRate("gsb", 0.10),
            ErrorRate("virustotal", 0.10),
            TransientBurst("crtsh", after_calls=10, count=6),
            InjectedLatency("openai", 0.02),
            ErrorRate("Reddit", 0.15),
        ))
    if profile == "outage":
        return FaultPlan(seed=seed, profile="outage", rules=(
            OutageWindow("virustotal", start=0.0, end=240.0),
            TransientBurst("spamhaus-pdns", after_calls=25, count=40),
        ))
    raise ConfigurationError(
        f"unknown fault profile {profile!r}; choose from {FAULT_PROFILES}"
    )
