"""Tests for platform assembly and the top-level public API."""

import gc

import pytest

import repro
from repro.collector import DataCollector
from repro.collector.sources.bgpmon import render_bgpmon_row
from repro.collector.sources.misc import render_netflow_row
from repro.collector.sources.ospfmon import render_ospfmon_row
from repro.platform import GrcaPlatform
from repro.topology import TopologyParams, build_topology


@pytest.fixture
def topo():
    return build_topology(
        TopologyParams(n_pops=3, pers_per_pop=1, customers_per_per=2, cdn_pops=("nyc",))
    )


@pytest.fixture
def collector(topo):
    c = DataCollector()
    for router in topo.network.routers.values():
        c.registry.register_device(router.name, router.timezone)
    return c


class TestFromCollector:
    def test_routing_state_rebuilt_from_feeds(self, topo, collector):
        link = sorted(topo.network.logical_links)[0]
        collector.ingest("ospfmon", [render_ospfmon_row(100.0, link, 42)])
        collector.ingest(
            "bgpmon", [render_bgpmon_row(100.0, "A", "198.51.100.0/24", "chi-per1")]
        )
        platform = GrcaPlatform.from_collector(topo, collector)
        assert platform.paths.ospf.history.weights_at(200.0)[link] == 42
        decision = platform.paths.bgp.best_egress("nyc-per1", "198.51.100.9", 200.0)
        assert decision.egress_router == "chi-per1"

    def test_what_set_up_built_is_frozen(self, topo, collector):
        gc.unfreeze()
        platform = GrcaPlatform.from_collector(topo, collector)
        assert gc.get_freeze_count() > 0
        assert all(obj is not platform for obj in gc.get_objects())
        del platform  # handed back when the platform goes
        assert gc.get_freeze_count() == 0

    def test_ingress_map_learned_from_netflow(self, topo, collector):
        collector.ingest(
            "netflow", [render_netflow_row(100.0, "agent-x", "1.2.3.4", "chi-per1")]
        )
        platform = GrcaPlatform.from_collector(topo, collector)
        assert platform.paths.ingress_map.ingress_for("agent-x") == "chi-per1"

    def test_cdn_servers_auto_mapped(self, topo, collector):
        platform = GrcaPlatform.from_collector(topo, collector)
        server = sorted(topo.network.cdn_servers)[0]
        assert platform.paths.ingress_map.ingress_for(server) == "nyc-per1"

    def test_loopback_service_present(self, topo, collector):
        platform = GrcaPlatform.from_collector(topo, collector)
        loopbacks = platform.services["loopbacks"]
        for router in topo.network.routers.values():
            assert loopbacks[router.loopback] == router.name

    def test_configs_snapshotted_at_config_time(self, topo, collector):
        platform = GrcaPlatform.from_collector(topo, collector, config_time=500.0)
        assert platform.paths.configs.config_at("nyc-per1", 600.0) is not None
        assert platform.paths.configs.config_at("nyc-per1", 400.0) is None

    def test_store_property(self, topo, collector):
        platform = GrcaPlatform.from_collector(topo, collector)
        assert platform.store is collector.store


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_shape(self):
        """The docstring quickstart actually runs (tiny scale)."""
        result = repro.bgp_month(
            total_flaps=20,
            params=repro.TopologyParams(n_pops=2, pers_per_pop=1, customers_per_per=3),
            seed=3,
            duration_days=3,
        )
        platform = result.platform()
        from repro.apps import BgpFlapApp

        app = BgpFlapApp.build(platform)
        browser = app.run(result.start, result.end)
        assert len(browser) >= 20
        assert "Root Cause" in browser.format_breakdown()
