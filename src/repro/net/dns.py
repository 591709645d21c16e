"""Authoritative DNS zones for the active crawl.

Passive DNS (:mod:`repro.services.passivedns`) answers *historical*
questions; the §6 case study needs *live* resolution: when the crawler
follows a URL, the hostname must resolve on that day, or the fetch dies
with NXDOMAIN — one of the takedown states active measurement observes.
The crawler's ``check_dns`` step reads the name's records from
:meth:`DnsZoneDatabase.records_for`; the name resolves when one of them
is :meth:`~DnsRecord.alive_on` that day. The zones never change after
the world is built, so an answer needs no cache.

The zone database is populated from the world's domain assets. Records
expire when a registrar suspends the domain (modelled off the host
lifetime), and Cloudflare-proxied hosts resolve to the proxy addresses,
never the origin — which is exactly why §4.6 can only attribute 18.8% of
domains to Cloudflare rather than their true hosting.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..utils.rng import stable_hash
from .ipaddr import IPv4


@dataclass(frozen=True)
class DnsRecord:
    """One A record with its validity window."""

    name: str
    address: IPv4
    valid_from: dt.date
    valid_until: dt.date
    ttl: int = 300

    def alive_on(self, day: dt.date) -> bool:
        return self.valid_from <= day <= self.valid_until


class DnsZoneDatabase:
    """A-record zones for scammer-controlled names."""

    #: Maximum days a smishing domain keeps resolving before suspension.
    MAX_RESOLUTION_DAYS = 60

    def __init__(self) -> None:
        self._records: Dict[str, List[DnsRecord]] = {}

    @classmethod
    def from_assets(cls, assets: Iterable) -> "DnsZoneDatabase":
        """Build zones from the world's domain assets."""
        database = cls()
        for asset in assets:
            lifetime = stable_hash("dns-life:" + asset.fqdn) % (
                cls.MAX_RESOLUTION_DAYS
            )
            until = asset.created_at + dt.timedelta(days=max(lifetime, 1))
            for address in asset.hosting.addresses:
                database.add_record(DnsRecord(
                    name=asset.fqdn,
                    address=address,
                    valid_from=asset.created_at,
                    valid_until=until,
                ))
        return database

    def add_record(self, record: DnsRecord) -> None:
        self._records.setdefault(record.name.lower(), []).append(record)

    def records_for(self, name: str) -> List[DnsRecord]:
        return list(self._records.get(name.lower().strip("."), []))

    def __contains__(self, name: str) -> bool:
        return name.lower().strip(".") in self._records

    def __len__(self) -> int:
        return len(self._records)

