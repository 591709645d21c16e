"""Tests for figure exports and the DNS substrate."""

import datetime as dt

import pytest

from repro.analysis.figures import (
    export_all_figures,
    figure2_median_series,
    figure2_series,
    figure3_series,
    yearly_volume_series,
)
from repro.net.dns import DnsRecord, DnsZoneDatabase
from repro.net.ipaddr import IPv4


class TestFigureSeries:
    def test_figure2_long_format(self, enriched):
        data = figure2_series(enriched)
        assert data.columns == ("weekday", "second_of_day")
        assert len(data.rows) > 100
        for weekday, second in data.rows:
            assert weekday in ("Monday", "Tuesday", "Wednesday", "Thursday",
                               "Friday", "Saturday", "Sunday")
            assert 0 <= second < 86400

    def test_figure2_medians(self, enriched):
        data = figure2_median_series(enriched)
        assert len(data.rows) == 7

    def test_figure3_percentages(self, enriched):
        data = figure3_series(enriched)
        by_country = data.series(0)
        for country, rows in by_country.items():
            total = sum(row[2] for row in rows)
            assert total == pytest.approx(100.0, abs=1.0)

    def test_yearly_series_sorted(self, pipeline_run):
        data = yearly_volume_series(pipeline_run.collection.reports)
        years = [row[0] for row in data.rows]
        assert years == sorted(years)

    def test_csv_round_trip(self, enriched, tmp_path):
        data = figure2_median_series(enriched)
        path = tmp_path / "f2.csv"
        written = data.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == written + 1  # header
        assert lines[0] == "weekday,messages,median_send_time"

    def test_export_all(self, enriched, pipeline_run, tmp_path):
        written = export_all_figures(
            enriched, pipeline_run.collection.reports, tmp_path / "figs"
        )
        assert set(written) == {"figure2", "figure2-medians", "figure3",
                                "twitter-yearly"}
        for name in written:
            assert (tmp_path / "figs" / f"{name}.csv").exists()


def _zone(lifetime_days=10):
    zones = DnsZoneDatabase()
    zones.add_record(DnsRecord(
        name="evil.example.com",
        address=IPv4.parse("192.0.2.10"),
        valid_from=dt.date(2022, 1, 1),
        valid_until=dt.date(2022, 1, 1) + dt.timedelta(days=lifetime_days),
    ))
    return zones


class TestDnsZones:
    def test_records_case_insensitive(self):
        zones = _zone()
        assert "EVIL.example.COM" in zones
        assert zones.records_for("evil.example.com.")

    def test_from_assets(self, world):
        zones = DnsZoneDatabase.from_assets(world.infrastructure.assets)
        assert len(zones) == len(world.infrastructure.assets)
        asset = world.infrastructure.assets[0]
        records = zones.records_for(asset.fqdn)
        assert {r.address for r in records} == set(asset.hosting.addresses)

    def test_proxied_assets_resolve_to_proxy(self, world):
        zones = DnsZoneDatabase.from_assets(world.infrastructure.assets)
        proxied = [a for a in world.infrastructure.assets
                   if a.hosting.proxy_asn is not None]
        if not proxied:
            pytest.skip("no proxied assets in this draw")
        asset = proxied[0]
        for record in zones.records_for(asset.fqdn):
            # Addresses were allocated from the proxy AS, not the origin.
            assert world.as_registry.lookup(record.address).asn == \
                asset.hosting.proxy_asn


def _resolves(zones, name, day):
    return [str(record.address) for record in zones.records_for(name)
            if record.alive_on(day)]


class TestDnsResolver:
    """Live resolution as the crawler's ``check_dns`` step does it: a
    name resolves on a day when one of its records is alive then."""

    def test_resolves_live_name(self):
        assert _resolves(_zone(), "evil.example.com",
                         dt.date(2022, 1, 5)) == ["192.0.2.10"]

    def test_nxdomain_after_takedown(self):
        zones = _zone(lifetime_days=3)
        assert _resolves(zones, "evil.example.com", dt.date(2022, 1, 4))
        assert not _resolves(zones, "evil.example.com", dt.date(2022, 2, 1))

    def test_unknown_name_nxdomain(self):
        assert not _resolves(_zone(), "nope.example.org",
                             dt.date(2022, 1, 5))
