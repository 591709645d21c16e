"""Top-level-domain registry with IANA root-zone classification.

Substitute for the ``tld`` PyPI package plus the IANA root database lookup
the paper performs in §3.3.3 / Table 16. The registry covers every TLD the
synthetic world registers domains under, each tagged with its IANA class
(generic, country-code, generic-restricted, sponsored, infrastructure,
test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ValidationError
from ..types import TldClass


@dataclass(frozen=True)
class TldRecord:
    """One entry of the root-zone database."""

    suffix: str
    tld_class: TldClass
    sponsor: str = ""


_GENERIC = [
    "com", "net", "org", "info", "me", "co", "top", "online", "xyz", "app",
    "dev", "site", "club", "shop", "live", "vip", "icu", "work", "link",
    "click", "buzz", "fun", "space", "store", "tech", "website", "world",
    "today", "cloud", "email", "digital", "network", "services", "support",
    "systems", "solutions", "agency", "finance", "money", "bank-card",
    "express", "delivery", "center", "host", "page", "mobi", "cam", "rest",
    "lol", "sbs", "cfd", "bond", "beauty", "hair", "skin", "makeup",
    "quest", "monster", "christmas", "loan", "men", "win", "bid", "date",
    "download", "racing", "review", "stream", "trade", "party", "science",
    "accountant", "faith", "cricket", "gdn", "okinawa", "tokyo", "asia",
    "best", "business", "cash", "chat", "city", "codes", "company",
    "computer", "credit", "deals", "direct", "events", "exchange", "fit",
    "group", "guru", "help", "life", "ltd", "media", "one", "plus", "pro",
    "run", "sale", "social", "team", "tips", "tools", "zone", "army",
    "blue", "red", "pink", "black", "gold", "green", "promo", "rocks",
    "wang", "ren", "lat", "uno", "ink", "wiki", "bar", "pw", "surf",
]

_COUNTRY_CODE = [
    "in", "us", "uk", "ly", "gd", "do", "gy", "de", "ws", "cc", "fr", "es",
    "nl", "it", "id", "pt", "jp", "br", "ru", "cn", "au", "be", "ch", "at",
    "ie", "cz", "pl", "ro", "tr", "ua", "za", "gh", "hu", "nz", "qa", "ke",
    "lk", "mw", "ng", "cd", "mx", "ar", "cl", "pe", "col", "ve", "ec",
    "my", "sg", "th", "vn", "ph", "kr", "tw", "hk", "il", "sa", "ae", "eg",
    "ma", "tn", "dz", "se", "no", "dk", "fi", "is", "gr", "bg", "hr", "sk",
    "si", "lt", "lv", "ee", "cy", "mt", "lu", "li", "mc", "sm", "md", "rs",
    "ba", "mk", "al", "ge", "am", "az", "kz", "uz", "pk", "bd", "np", "mm",
    "kh", "la", "mn", "fj", "pg", "to", "tv", "fm", "nu", "tk", "ml", "ga",
    "cf", "gq", "st", "su", "ai", "io", "sh", "ac", "vg", "ky", "bm", "bs",
    "bz", "pa", "cr", "ni", "hn", "gt", "sv", "cu", "ht", "dm", "lc", "vc",
    "tt", "jm", "pr", "gl", "fo", "gg", "je", "im", "eu", "gp",
]

_GENERIC_RESTRICTED = ["biz", "name", "pro-restricted"]

_SPONSORED = ["gov", "edu", "mil", "int", "aero", "coop", "museum", "travel",
              "jobs", "post", "tel", "cat", "xxx", "asia-s"]

_INFRASTRUCTURE = ["arpa"]

_TEST = ["test"]


class TldRegistry:
    """Lookup table from TLD suffix to :class:`TldRecord`.

    Also extracts the registered (pay-level) domain and TLD from a
    fully-qualified hostname, handling the multi-label public suffixes the
    free-hosting ecosystem of §4.3 relies on (``web.app``, ``ngrok.io``,
    ``firebaseapp.com``, ``herokuapp.com``, ``vercel.app``, ``netlify.app``).
    """

    #: Multi-label suffixes operated by free website-building services: a
    #: domain under one of these belongs to the *customer*, so the
    #: effective TLD is the whole suffix (paper §4.3 counts web.app,
    #: ngrok.io etc. separately).
    PUBLIC_SUFFIXES: Tuple[str, ...] = (
        "web.app",
        "ngrok.io",
        "firebaseapp.com",
        "herokuapp.com",
        "vercel.app",
        "netlify.app",
        "github.io",
        "pages.dev",
        "co.uk",
        "org.uk",
        "co.in",
        "com.br",
        "com.au",
        "co.za",
        "co.jp",
        "com.mx",
        "com.ar",
    )

    def __init__(self) -> None:
        #: Public suffixes as label lists, longest first.
        self._suffix_labels: Tuple[Tuple[str, List[str]], ...] = tuple(
            (suffix, suffix.split("."))
            for suffix in sorted(self.PUBLIC_SUFFIXES, key=len, reverse=True))
        self._records: Dict[str, TldRecord] = {}
        for suffix in _GENERIC:
            self._add(suffix, TldClass.GENERIC)
        for suffix in _COUNTRY_CODE:
            self._add(suffix, TldClass.COUNTRY_CODE)
        for suffix in _GENERIC_RESTRICTED:
            self._add(suffix, TldClass.GENERIC_RESTRICTED)
        for suffix in _SPONSORED:
            self._add(suffix, TldClass.SPONSORED)
        for suffix in _INFRASTRUCTURE:
            self._add(suffix, TldClass.INFRASTRUCTURE)
        for suffix in _TEST:
            self._add(suffix, TldClass.TEST)

    def _add(self, suffix: str, tld_class: TldClass) -> None:
        self._records[suffix] = TldRecord(suffix=suffix, tld_class=tld_class)

    def __contains__(self, suffix: str) -> bool:
        return suffix.lower().lstrip(".") in self._records

    def __len__(self) -> int:
        return len(self._records)

    def record(self, suffix: str) -> TldRecord:
        """Return the record for ``suffix`` or raise ``ValidationError``."""
        key = suffix.lower().lstrip(".")
        try:
            return self._records[key]
        except KeyError:
            raise ValidationError(f"unknown TLD: {suffix!r}") from None

    def classify(self, suffix: str) -> TldClass:
        """IANA class of a TLD suffix."""
        return self.record(suffix).tld_class

    def all_suffixes(self, tld_class: Optional[TldClass] = None) -> Iterable[str]:
        """All registered suffixes, optionally filtered by class."""
        for suffix, record in self._records.items():
            if tld_class is None or record.tld_class is tld_class:
                yield suffix

    def split_host(self, host: str) -> Tuple[str, str]:
        """Split a hostname into (registered_domain, effective_tld).

        ``fb.user-page.online`` → (``user-page.online``, ``online``);
        ``sa-krs.web.app`` → (``sa-krs.web.app``, ``web.app``) because
        ``web.app`` is a public suffix and the customer label is part of
        the registered name.
        """
        host = host.lower().strip(".")
        if not host or "." not in host:
            raise ValidationError(f"not a dotted hostname: {host!r}")
        labels = host.split(".")
        for suffix, suffix_labels in self._suffix_labels:
            if len(labels) > len(suffix_labels) and labels[-len(suffix_labels):] == suffix_labels:
                registered = ".".join(labels[-len(suffix_labels) - 1:])
                return registered, suffix
        tld = labels[-1]
        if tld not in self._records:
            raise ValidationError(f"unknown TLD in host: {host!r}")
        registered = ".".join(labels[-2:])
        return registered, tld

    def effective_tld(self, host: str) -> str:
        """Effective TLD of a host (multi-label for public suffixes)."""
        return self.split_host(host)[1]


_DEFAULT_REGISTRY: Optional[TldRegistry] = None


def default_registry() -> TldRegistry:
    """Shared immutable registry instance (built once per process)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = TldRegistry()
    return _DEFAULT_REGISTRY
