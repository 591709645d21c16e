"""Declarative investigation playbooks (§6 generalised).

A :class:`Playbook` is an ordered list of :class:`PlaybookStep`\\ s — the
protocol an analyst would follow by hand when chasing one reported URL:
resolve the shortener while it is still alive, check the name still
resolves, fetch the landing page with different device profiles, walk the
funnel submitting synthetic PII, capture any payload, and submit its hash
for scanning. The :class:`~repro.investigate.investigator.Investigator`
interprets a playbook against the world's service simulators.

Two presets ship:

* ``case-study`` — the exact §6 protocol, which
  :func:`repro.investigate.fleet.run_case_study` runs over the §6 sample.
* ``full-funnel`` — the case-study protocol plus funnel navigation:
  follow redirects, submit synthetic PII into credential and payment/OTP
  forms, so multi-step kits are walked to the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..errors import ConfigurationError

#: Every operation an interpreter knows how to execute.
STEP_OPS: Tuple[str, ...] = (
    "resolve_shortener",
    "check_dns",
    "fetch",
    "follow_redirects",
    "submit_form",
    "download_payload",
    "hash_and_scan",
)


@dataclass(frozen=True)
class PlaybookStep:
    """One step: an operation plus its parameters.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so
    steps are hashable, picklable, and equal whatever order their
    parameters were given in.
    """

    op: str
    params: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.op not in STEP_OPS:
            raise ConfigurationError(
                f"unknown playbook op {self.op!r}; expected one of {STEP_OPS}"
            )

    @classmethod
    def make(cls, op: str, **params: str) -> "PlaybookStep":
        return cls(op=op, params=tuple(sorted(params.items())))

    def param(self, key: str, default: str = "") -> str:
        for name, value in self.params:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class Playbook:
    """A named, ordered investigation protocol."""

    name: str
    description: str
    steps: Tuple[PlaybookStep, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigurationError(
                f"playbook {self.name!r} has no steps"
            )


def _case_study_steps() -> Tuple[PlaybookStep, ...]:
    return (
        PlaybookStep.make("resolve_shortener"),
        PlaybookStep.make("check_dns"),
        PlaybookStep.make("fetch", device="desktop"),
        PlaybookStep.make("fetch", device="android"),
        PlaybookStep.make("download_payload"),
        PlaybookStep.make("hash_and_scan"),
    )


#: The built-in presets ``repro investigate --playbook`` accepts.
PLAYBOOKS: Dict[str, Playbook] = {
    "case-study": Playbook(
        name="case-study",
        description="The exact §6 protocol: shortener, DNS, dual-device "
                    "fetch, payload capture, hash-and-scan.",
        steps=_case_study_steps(),
    ),
    "full-funnel": Playbook(
        name="full-funnel",
        description="§6 protocol plus funnel navigation: follow redirects "
                    "and feed synthetic PII through credential and "
                    "payment/OTP forms.",
        steps=(
            PlaybookStep.make("resolve_shortener"),
            PlaybookStep.make("check_dns"),
            PlaybookStep.make("fetch", device="desktop"),
            PlaybookStep.make("fetch", device="android"),
            PlaybookStep.make("follow_redirects"),
            PlaybookStep.make("submit_form", pii="synthetic"),
            PlaybookStep.make("download_payload"),
            PlaybookStep.make("hash_and_scan"),
        ),
    ),
}


def get_playbook(name: str) -> Playbook:
    """Look up a preset by name, with a helpful error."""
    playbook = PLAYBOOKS.get(name)
    if playbook is None:
        raise ConfigurationError(
            f"unknown playbook {name!r}; choose from "
            f"{tuple(sorted(PLAYBOOKS))}"
        )
    return playbook
