"""Tests for the Table I event definitions against synthetic raw data."""

import pytest

from repro.collector import DataCollector
from repro.collector.sources.bgpmon import render_bgpmon_row, update_log_from_store
from repro.collector.sources.misc import (
    render_layer1_row,
    render_perfmon_row,
    render_tacacs_row,
)
from repro.collector.sources.ospfmon import render_ospfmon_row, weight_history_from_store
from repro.collector.sources.snmp import render_snmp_row
from repro.collector.sources.syslog import render_syslog_line
from repro.core.events import RetrievalContext
from repro.core.knowledge import KnowledgeLibrary, names
from repro.core.locations import LocationType

BASE = 1262692800.0


@pytest.fixture(scope="module")
def kb():
    return KnowledgeLibrary()


@pytest.fixture
def collector():
    return DataCollector()


def ctx(collector, start=BASE - 3600, end=BASE + 7200, services=None, **params):
    return RetrievalContext(
        store=collector.store, start=start, end=end,
        params=params, services=services or {},
    )


def syslog(collector, t, router, code, message):
    collector.ingest(
        "syslog", [render_syslog_line(t, router, "UTC", code, message)]
    )


class TestTable1Catalog:
    def test_all_table1_events_defined(self, kb):
        for name in names.TABLE1_EVENTS:
            assert name in kb.events, name

    def test_event_count_at_least_table1(self, kb):
        assert len(kb.events.names()) >= len(names.TABLE1_EVENTS)

    def test_location_types_match_table1(self, kb):
        expected = {
            names.ROUTER_REBOOT: LocationType.ROUTER,
            names.CPU_HIGH_AVG: LocationType.ROUTER,
            names.CPU_HIGH_SPIKE: LocationType.ROUTER,
            names.INTERFACE_FLAP: LocationType.INTERFACE,
            names.LINEPROTO_FLAP: LocationType.INTERFACE,
            names.SONET_RESTORATION: LocationType.LAYER1_DEVICE,
            names.LINK_CONGESTION: LocationType.INTERFACE,
            names.ROUTER_COST_IN_OUT: LocationType.ROUTER,
            names.DELAY_INCREASE: LocationType.INGRESS_EGRESS,
        }
        for name, location_type in expected.items():
            assert kb.events.get(name).location_type is location_type, name


class TestSyslogEvents:
    def test_router_reboot(self, kb, collector):
        syslog(collector, BASE, "nyc-per1", "SYS-5-RESTART", "System restarted")
        instances = kb.events.get(names.ROUTER_REBOOT).retrieve(ctx(collector))
        assert len(instances) == 1
        assert instances[0].location.value == "nyc-per1"

    def test_cpu_spike_thresholded(self, kb, collector):
        syslog(collector, BASE, "nyc-per1", "SYS-3-CPUHOG",
               "CPU utilization over last 5 seconds: 95%")
        syslog(collector, BASE + 10, "nyc-per1", "SYS-3-CPUHOG",
               "CPU utilization over last 5 seconds: 85%")
        instances = kb.events.get(names.CPU_HIGH_SPIKE).retrieve(ctx(collector))
        assert len(instances) == 1
        assert instances[0].get("cpu_pct") == 95

    def test_interface_down_up_flap(self, kb, collector):
        syslog(collector, BASE, "nyc-per1", "LINK-3-UPDOWN",
               "Interface Serial1/0, changed state to down")
        syslog(collector, BASE + 30, "nyc-per1", "LINK-3-UPDOWN",
               "Interface Serial1/0, changed state to up")
        context = ctx(collector)
        downs = kb.events.get(names.INTERFACE_DOWN).retrieve(context)
        ups = kb.events.get(names.INTERFACE_UP).retrieve(context)
        flaps = kb.events.get(names.INTERFACE_FLAP).retrieve(context)
        assert len(downs) == len(ups) == len(flaps) == 1
        assert flaps[0].start == pytest.approx(downs[0].start, abs=1.0)
        assert flaps[0].duration == pytest.approx(30.0, abs=2.0)
        assert flaps[0].location.value == "nyc-per1:se1/0"

    def test_unpaired_down_is_not_a_flap(self, kb, collector):
        syslog(collector, BASE, "nyc-per1", "LINK-3-UPDOWN",
               "Interface Serial1/0, changed state to down")
        flaps = kb.events.get(names.INTERFACE_FLAP).retrieve(ctx(collector))
        assert len(flaps) == 0

    def test_line_protocol_flap(self, kb, collector):
        syslog(collector, BASE, "nyc-per1", "LINEPROTO-5-UPDOWN",
               "Line protocol on Interface Serial1/0, changed state to down")
        syslog(collector, BASE + 5, "nyc-per1", "LINEPROTO-5-UPDOWN",
               "Line protocol on Interface Serial1/0, changed state to up")
        flaps = kb.events.get(names.LINEPROTO_FLAP).retrieve(ctx(collector))
        assert len(flaps) == 1


class TestSnmpEvents:
    def test_cpu_average_threshold(self, kb, collector):
        collector.ingest("snmp", [
            render_snmp_row(BASE, "nyc-per1", "cpu_util_5min", "", 85.0),
            render_snmp_row(BASE + 300, "nyc-per1", "cpu_util_5min", "", 40.0),
        ])
        instances = kb.events.get(names.CPU_HIGH_AVG).retrieve(ctx(collector))
        assert len(instances) == 1
        assert instances[0].duration == pytest.approx(300.0)

    def test_link_congestion_redefinable(self, kb, collector):
        collector.ingest("snmp", [
            render_snmp_row(BASE, "nyc-per1", "link_util", "se1/0", 85.0),
        ])
        default = kb.events.get(names.LINK_CONGESTION).retrieve(ctx(collector))
        assert len(default) == 1
        stricter = kb.events.get(names.LINK_CONGESTION).retrieve(
            ctx(collector, link_congestion_threshold=90.0)
        )
        assert len(stricter) == 0

    def test_link_loss_alarm(self, kb, collector):
        collector.ingest("snmp", [
            render_snmp_row(BASE, "nyc-per1", "corrupted_packets", "se1/0", 150.0),
            render_snmp_row(BASE, "nyc-per1", "corrupted_packets", "se1/1", 10.0),
        ])
        instances = kb.events.get(names.LINK_LOSS).retrieve(ctx(collector))
        assert [i.location.value for i in instances] == ["nyc-per1:se1/0"]


class TestLayer1Events:
    @pytest.mark.parametrize(
        "event_name,raw_event",
        [
            (names.SONET_RESTORATION, "sonet_restoration"),
            (names.MESH_RESTORATION_REGULAR, "mesh_restoration_regular"),
            (names.MESH_RESTORATION_FAST, "mesh_restoration_fast"),
        ],
    )
    def test_restorations(self, kb, collector, event_name, raw_event):
        collector.ingest("layer1", [render_layer1_row(BASE, "adm-1", raw_event, "c-x")])
        instances = kb.events.get(event_name).retrieve(ctx(collector))
        assert len(instances) == 1
        assert instances[0].location.value == "adm-1"


class TestOspfEvents:
    def ingest_weights(self, collector, rows):
        collector.ingest("ospfmon", [render_ospfmon_row(*row) for row in rows])
        return {"weight_history": weight_history_from_store(collector.store)}

    def test_reconvergence_groups_updates(self, kb, collector):
        services = self.ingest_weights(collector, [
            (BASE, "l1", 65535), (BASE + 3, "l1", 65535), (BASE + 400, "l1", 10),
        ])
        instances = kb.events.get(names.OSPF_RECONVERGENCE).retrieve(
            ctx(collector, services=services)
        )
        assert len(instances) == 2  # two episodes on l1

    def test_link_cost_out_then_in(self, kb, collector):
        services = self.ingest_weights(collector, [
            (BASE - 7200, "l1", 10),
            (BASE, "l1", 65535),
            (BASE + 600, "l1", 10),
        ])
        context = ctx(collector, services=services)
        outs = kb.events.get(names.LINK_COST_OUT).retrieve(context)
        ins = kb.events.get(names.LINK_COST_IN).retrieve(context)
        assert [i.start for i in outs] == [BASE]
        assert [i.start for i in ins] == [BASE + 600]

    def test_weight_tweak_is_not_cost_out(self, kb, collector):
        services = self.ingest_weights(collector, [
            (BASE - 7200, "l1", 10), (BASE, "l1", 20),
        ])
        outs = kb.events.get(names.LINK_COST_OUT).retrieve(
            ctx(collector, services=services)
        )
        assert len(outs) == 0

    def test_router_cost_out_requires_all_links(self, kb, collector, small_topology):
        network = small_topology.network
        router = "nyc-cr1"
        links = network.logical_links_of_router(router)
        assert len(links) >= 2
        rows = [(BASE + i, link.name, 65535) for i, link in enumerate(links)]
        rows = [(BASE - 7200, links[0].name, 10)] + rows
        services = self.ingest_weights(collector, rows)
        services["network"] = network
        instances = kb.events.get(names.ROUTER_COST_IN_OUT).retrieve(
            ctx(collector, services=services)
        )
        routers = {i.location.value for i in instances}
        assert router in routers

    def test_single_link_out_is_not_router_cost(self, kb, collector, small_topology):
        network = small_topology.network
        link = network.logical_links_of_router("nyc-cr1")[0]
        services = self.ingest_weights(collector, [(BASE, link.name, 65535)])
        services["network"] = network
        instances = kb.events.get(names.ROUTER_COST_IN_OUT).retrieve(
            ctx(collector, services=services)
        )
        assert len(instances) == 0


class TestCommandEvents:
    def test_cost_out_command(self, kb, collector):
        collector.ingest("tacacs", [
            render_tacacs_row(BASE, "nyc-cr1", "op1",
                              "conf t; interface Serial0/1; ip ospf cost 65535"),
            render_tacacs_row(BASE + 60, "nyc-cr1", "op1",
                              "conf t; interface Serial0/1; ip ospf cost 10"),
            render_tacacs_row(BASE + 120, "nyc-cr1", "op1", "show ip route"),
        ])
        context = ctx(collector)
        outs = kb.events.get(names.CMD_COST_OUT).retrieve(context)
        ins = kb.events.get(names.CMD_COST_IN).retrieve(context)
        assert len(outs) == 1 and outs[0].location.value == "nyc-cr1:se0/1"
        assert len(ins) == 1


class TestBgpEgressChange:
    def test_egress_change_detected(self, kb, collector):
        collector.ingest("bgpmon", [
            render_bgpmon_row(BASE - 7200, "A", "198.51.100.0/24", "chi-per1"),
            render_bgpmon_row(BASE, "W", "198.51.100.0/24", "chi-per1"),
            render_bgpmon_row(BASE + 1, "A", "198.51.100.0/24", "dfw-per1"),
        ])
        services = {"bgp_log": update_log_from_store(collector.store)}
        instances = kb.events.get(names.BGP_EGRESS_CHANGE).retrieve(
            ctx(collector, services=services)
        )
        assert len(instances) >= 1
        assert instances[0].location.type is LocationType.PREFIX

    def test_refresh_announcement_is_not_change(self, kb, collector):
        collector.ingest("bgpmon", [
            render_bgpmon_row(BASE - 7200, "A", "198.51.100.0/24", "chi-per1"),
            render_bgpmon_row(BASE, "A", "198.51.100.0/24", "chi-per1"),
        ])
        services = {"bgp_log": update_log_from_store(collector.store)}
        instances = kb.events.get(names.BGP_EGRESS_CHANGE).retrieve(
            ctx(collector, services=services)
        )
        assert len(instances) == 0


class TestPerfEvents:
    def perf_rows(self, metric, values, src="nyc-per1", dst="chi-per1"):
        return [
            render_perfmon_row(BASE + i * 300, src, dst, metric, v)
            for i, v in enumerate(values)
        ]

    def test_delay_increase(self, kb, collector):
        collector.ingest("perfmon", self.perf_rows("delay_ms", [30, 30, 31, 30, 80]))
        instances = kb.events.get(names.DELAY_INCREASE).retrieve(ctx(collector))
        assert len(instances) == 1
        assert instances[0].location.parts == ("nyc-per1", "chi-per1")

    def test_throughput_drop(self, kb, collector):
        collector.ingest(
            "perfmon", self.perf_rows("throughput_mbps", [900, 905, 910, 900, 300])
        )
        instances = kb.events.get(names.THROUGHPUT_DROP).retrieve(ctx(collector))
        assert len(instances) == 1

    def test_stable_series_no_event(self, kb, collector):
        collector.ingest("perfmon", self.perf_rows("loss_pct", [0.1] * 10))
        assert len(kb.events.get(names.LOSS_INCREASE).retrieve(ctx(collector))) == 0
