"""The playbook interpreter: navigate one reported URL's scam funnel.

An :class:`Investigator` executes a playbook's steps against picklable,
*uncharged* substrates — the shortener link table, the DNS zone database
and the web host — producing a :class:`FunnelProbe` per URL. Probes are
pure functions of ``(playbook, url, date)``: no meter is charged, no
clock advances, no shared state mutates. That purity is what lets the
fleet runner shard probes across worker processes and stay
byte-identical (the same split the enrichment engine uses); everything
charged — VirusTotal file submissions — happens later, serially, in
canonical order.

Each executed step is recorded as a :class:`StepTrace` (op, detail,
outcome) for the evidence chain of custody and the Investigations
table's step counts. A step is not timed: no clock runs while a probe
executes, so there is no latency to report.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..net.dns import DnsZoneDatabase
from ..net.url import RedirectChain, Url
from ..services.shorteners import ShortenerResolver, shortener_for_url
from ..services.webhost import ApkPayload, WebHostService
from ..types import DeviceProfile
from .playbook import Playbook, PlaybookStep

#: Synthetic PII a ``submit_form`` step feeds into funnel forms. Values
#: are obviously fake — the point is exercising the kit's flow, exactly
#: like the honey credentials active-measurement studies submit.
SYNTHETIC_PII = {
    "full_name": "Alex Sample",
    "username": "alex.sample",
    "password": "correct-horse-battery",
    "card_number": "4111111111111111",
    "card_expiry": "12/29",
    "otp_code": "000000",
}

_DEVICES = {
    "desktop": DeviceProfile.DESKTOP,
    "android": DeviceProfile.ANDROID,
}


@dataclass(frozen=True)
class StepTrace:
    """One executed playbook step, for the chain of custody."""

    op: str
    detail: str
    outcome: str  # "ok" | "skipped" | "terminal"


@dataclass(frozen=True)
class FunnelProbe:
    """Everything the pure navigation of one URL observed."""

    index: int  # canonical position in the fleet's record order
    record_id: str
    original: Url
    on: dt.date
    shortener: Optional[str] = None
    shortener_dead: bool = False
    nxdomain: bool = False
    resolved: Optional[Url] = None
    desktop_kind: str = "dead"
    android_kind: str = "dead"
    chain: Optional[RedirectChain] = None
    apk: Optional[ApkPayload] = None
    funnel_depth: int = 0
    device_gate: str = "any"
    pages_visited: Tuple[str, ...] = ()
    forms_submitted: Tuple[str, ...] = ()
    wants_scan: bool = False
    steps: Tuple[StepTrace, ...] = ()

    @property
    def outcome(self) -> str:
        """One word classifying how far down the funnel the probe got."""
        if self.shortener_dead:
            return "shortener_dead"
        if self.nxdomain:
            return "nxdomain"
        if self.android_kind == "dead" and self.desktop_kind == "dead":
            return "dead_host"
        if self.apk is not None:
            return "apk_download"
        if "payment_otp" in self.forms_submitted:
            return "pii_harvested"
        if "credential_form" in self.forms_submitted:
            return "credentials_harvested"
        if self.pages_visited and self.funnel_depth > 1 and \
                len(self.pages_visited) < self.funnel_depth:
            return "device_gated"
        return "phishing_page"


@dataclass
class _ProbeDraft:
    """Mutable scratch state while the steps execute."""

    index: int
    record_id: str
    original: Url
    on: dt.date
    shortener: Optional[str] = None
    shortener_dead: bool = False
    nxdomain: bool = False
    resolved: Optional[Url] = None
    desktop_kind: str = "dead"
    android_kind: str = "dead"
    chain: Optional[RedirectChain] = None
    apk: Optional[ApkPayload] = None
    funnel_depth: int = 0
    device_gate: str = "any"
    pages_visited: List[str] = field(default_factory=list)
    forms_submitted: List[str] = field(default_factory=list)
    wants_scan: bool = False
    steps: List[StepTrace] = field(default_factory=list)
    terminated: bool = False

    def freeze(self) -> FunnelProbe:
        return FunnelProbe(
            index=self.index,
            record_id=self.record_id,
            original=self.original,
            on=self.on,
            shortener=self.shortener,
            shortener_dead=self.shortener_dead,
            nxdomain=self.nxdomain,
            resolved=self.resolved,
            desktop_kind=self.desktop_kind,
            android_kind=self.android_kind,
            chain=self.chain,
            apk=self.apk,
            funnel_depth=self.funnel_depth,
            device_gate=self.device_gate,
            pages_visited=tuple(self.pages_visited),
            forms_submitted=tuple(self.forms_submitted),
            wants_scan=self.wants_scan,
            steps=tuple(self.steps),
        )


class Investigator:
    """Interprets playbooks over the world's uncharged substrates.

    Holds only picklable plain-data objects, so a whole investigator can
    cross a process-pool boundary inside a shard task.
    """

    def __init__(
        self,
        playbook: Playbook,
        *,
        resolver: ShortenerResolver,
        webhost: WebHostService,
        zones: DnsZoneDatabase,
    ):
        self.playbook = playbook
        self._resolver = resolver
        self._webhost = webhost
        self._zones = zones

    # -- step implementations -------------------------------------------------

    def _trace(self, draft: _ProbeDraft, step: PlaybookStep, detail: str,
               outcome: str) -> None:
        draft.steps.append(StepTrace(op=step.op, detail=detail,
                                     outcome=outcome))

    def _resolve_shortener(self, draft: _ProbeDraft,
                           step: PlaybookStep) -> None:
        service = shortener_for_url(draft.original)
        if service is None:
            draft.resolved = draft.original
            self._trace(draft, step, "not shortened", "skipped")
            return
        draft.shortener = service
        target = self._resolver.try_resolve(draft.original, draft.on)
        if target is None:
            draft.shortener_dead = True
            draft.terminated = True
            self._trace(draft, step, f"{service}: link dead", "terminal")
            return
        draft.resolved = target
        self._trace(draft, step, f"{service} -> {target.host}", "ok")

    def _check_dns(self, draft: _ProbeDraft, step: PlaybookStep) -> None:
        host = draft.resolved.host if draft.resolved else draft.original.host
        alive = any(
            record.alive_on(draft.on)
            for record in self._zones.records_for(host)
        )
        if not alive:
            draft.nxdomain = True
            draft.terminated = True
            self._trace(draft, step, f"NXDOMAIN: {host}", "terminal")
            return
        self._trace(draft, step, f"{host} resolves", "ok")

    def _fetch(self, draft: _ProbeDraft, step: PlaybookStep) -> None:
        device_name = step.param("device", "android")
        device = _DEVICES[device_name]
        target = draft.resolved if draft.resolved else draft.original
        result = self._webhost.fetch(target, device, draft.on)
        if device is DeviceProfile.DESKTOP:
            draft.desktop_kind = result.content_kind
        else:
            draft.android_kind = result.content_kind
            draft.chain = result.chain
            if result.is_apk_download:
                draft.apk = result.apk
        self._trace(draft, step,
                    f"{device_name}: {result.content_kind}", "ok")

    def _follow_redirects(self, draft: _ProbeDraft,
                          step: PlaybookStep) -> None:
        target = draft.resolved if draft.resolved else draft.original
        host = target.host
        depth = self._webhost.funnel_depth(host)
        gate = self._webhost.funnel_gate(host)
        draft.funnel_depth = depth
        draft.device_gate = gate
        hops = len(draft.chain) if draft.chain is not None else 1
        if depth and self._webhost.host_alive_on(host, draft.on):
            draft.pages_visited.append("landing")
        self._trace(draft, step,
                    f"{hops} hop(s), funnel depth {depth}, gate {gate}",
                    "ok")

    def _submit_form(self, draft: _ProbeDraft, step: PlaybookStep) -> None:
        target = draft.resolved if draft.resolved else draft.original
        host = target.host
        if draft.apk is not None:
            # The Android branch already ended in a drive-by download;
            # there is no form flow past an APK push.
            self._trace(draft, step, "drive-by ended the funnel", "skipped")
            return
        depth = self._webhost.funnel_depth(host)
        submitted = 0
        for page_index in range(1, depth):
            page = self._webhost.funnel_page(host, page_index)
            if page is None or not page.has_form:
                break
            fields = {name: SYNTHETIC_PII.get(name, "synthetic")
                      for name in page.form_fields}
            submission = self._webhost.submit_form(
                host, page_index, fields, DeviceProfile.ANDROID, draft.on
            )
            if not submission.accepted:
                break
            draft.pages_visited.append(page.kind)
            draft.forms_submitted.append(page.kind)
            submitted += 1
        detail = (f"submitted synthetic PII to {submitted} form(s)"
                  if submitted else "no form accepted the submission")
        self._trace(draft, step, detail, "ok" if submitted else "skipped")

    def _download_payload(self, draft: _ProbeDraft,
                          step: PlaybookStep) -> None:
        if draft.apk is None:
            self._trace(draft, step, "no payload served", "skipped")
            return
        self._trace(
            draft, step,
            f"{draft.apk.file_name} ({draft.apk.size_bytes:,} bytes)",
            "ok",
        )

    def _hash_and_scan(self, draft: _ProbeDraft, step: PlaybookStep) -> None:
        if draft.apk is None:
            self._trace(draft, step, "nothing to hash", "skipped")
            return
        draft.wants_scan = True
        self._trace(draft, step, f"sha256 {draft.apk.sha256[:12]}…", "ok")

    # -- interpretation -------------------------------------------------------

    def probe(self, index: int, record_id: str, url: Url,
              on: dt.date) -> FunnelProbe:
        """Execute every step of the playbook for one URL (pure)."""
        draft = _ProbeDraft(index=index, record_id=record_id,
                            original=url, on=on)
        handlers = {
            "resolve_shortener": self._resolve_shortener,
            "check_dns": self._check_dns,
            "fetch": self._fetch,
            "follow_redirects": self._follow_redirects,
            "submit_form": self._submit_form,
            "download_payload": self._download_payload,
            "hash_and_scan": self._hash_and_scan,
        }
        for step in self.playbook.steps:
            if draft.terminated:
                break
            handlers[step.op](draft, step)
        return draft.freeze()

