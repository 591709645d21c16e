"""crt.sh-style certificate-transparency log simulator (§3.3.3, Table 7).

The world's infrastructure builder logs every certificate it issues; this
service exposes the crt.sh query surface: all certificates whose common
name matches a domain (including subdomain matches with the ``%.domain``
wildcard semantics crt.sh uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..world.infrastructure import DomainAsset, TlsCertificate
from .base import ServiceMeter, SimClock, wait_and_charge


@dataclass(frozen=True)
class CertSummary:
    """Aggregate certificate view for one domain."""

    domain: str
    certificates: int
    issuers: Dict[str, int]

    @property
    def top_issuer(self) -> Optional[str]:
        if not self.issuers:
            return None
        return max(self.issuers.items(), key=lambda kv: (kv[1], kv[0]))[0]


class CrtShService:
    """Query TLS certificates by hostname."""

    def __init__(
        self,
        assets: Iterable[DomainAsset],
        *,
        clock: Optional[SimClock] = None,
        rate_per_second: float = 5.0,
    ):
        self._index: Dict[str, List[TlsCertificate]] = {}
        for asset in assets:
            if asset.certificates:
                self._index.setdefault(asset.fqdn, []).extend(asset.certificates)
        #: Parent domain -> certificates of every logged host below it,
        #: in ``_index`` order: each host is filed under the text after
        #: each of its dots, exactly the keys it ``endswith("." + key)``.
        self._below: Dict[str, List[TlsCertificate]] = {}
        for fqdn, certs in self._index.items():
            dot = fqdn.find(".")
            while dot >= 0:
                self._below.setdefault(fqdn[dot + 1:], []).extend(certs)
                dot = fqdn.find(".", dot + 1)
        clock = clock or SimClock()
        self.meter = ServiceMeter(
            service="crtsh", clock=clock, rate=rate_per_second,
            burst=rate_per_second * 3,
        )

    def certificates_for(self, host: str) -> List[TlsCertificate]:
        """All logged certificates for ``host`` and its subdomains."""
        wait_and_charge(self.meter)
        key = host.lower().strip(".")
        results = self._index.get(key, []) + self._below.get(key, [])
        return sorted(results, key=lambda c: (c.issued_at, c.serial))

    def summary_for(self, host: str) -> CertSummary:
        """Count certificates per issuing CA for one domain."""
        certs = self.certificates_for(host)
        issuers: Dict[str, int] = {}
        for cert in certs:
            issuers[cert.issuer] = issuers.get(cert.issuer, 0) + 1
        return CertSummary(domain=host, certificates=len(certs), issuers=issuers)

    def logged_hosts(self) -> List[str]:
        return sorted(self._index)
