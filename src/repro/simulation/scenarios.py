"""Evaluation scenarios: the workloads behind every table and figure.

Each scenario builds a topology, injects a root-cause mixture (seeded
with the paper's published breakdown so the *shape* of the reproduced
table is meaningful), ingests all emitted telemetry through the real
Data Collector, and returns a :class:`SimulationResult` carrying the
ground truth for scoring.  Every builder shares one set-up and one
ingest tail (:class:`_Run`), so every builder takes ``feed_faults``
(degrade the raw feeds before ingestion).  :data:`SCENARIOS` names the
five the CLI and the evaluation harness run; those five also take
``backend`` (the store's engine, as ``DataStore(backend=...)`` takes
it).

Scale note: the paper runs on 600+ provider edge routers with several
hundred eBGP sessions each.  The scenarios default to a scaled-down
network (documented in EXPERIMENTS.md); the mixture percentages — which
determine the breakdown tables — are scale-invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..collector import DataCollector, DataStore
from ..collector.backends import BackendSpec
from ..platform import GrcaPlatform
from ..topology.builder import BuiltTopology, TopologyParams, build_topology
from .faults import FaultInjector, FeedFaultInjector, GroundTruth
from .telemetry import BASE_EPOCH, TelemetryEmitter

DAY = 86400.0


@dataclass
class SimulationResult:
    """A fully ingested scenario plus its ground truth."""

    topology: BuiltTopology
    collector: DataCollector
    ground_truth: List[GroundTruth]
    start: float
    end: float
    #: scenario-specific extras (client maps, crash targets, ...)
    extras: Dict[str, object] = field(default_factory=dict)

    def platform(self) -> GrcaPlatform:
        """Wire a GrcaPlatform from this scenario's collected data."""
        return GrcaPlatform.from_collector(
            self.topology, self.collector, config_time=self.start - DAY
        )

    def truth_counts(self) -> Dict[str, int]:
        """Injected ground-truth symptom counts per cause."""
        counts: Dict[str, int] = {}
        for truth in self.ground_truth:
            counts[truth.cause] = counts.get(truth.cause, 0) + 1
        return counts


#: A builder's ``feed_faults`` callback: it receives the
#: :class:`FeedFaultInjector` over the emitted raw lines just before
#: ingestion and may degrade them (outage, lag, corruption); the
#: injected impairment intervals land on the collector's health registry.
FeedFaults = Optional[Callable[[FeedFaultInjector], None]]


class _Run:
    """One builder's seeded set-up and its ingest tail.

    Every scenario draws from three streams — ``rng`` (its own plan,
    ``seed``), the emitter's (``seed + 1``) and the injector's
    (``seed + 2``) — over ``[start, end)``.  :meth:`finish` then builds
    the collector on ``backend``, registers the devices, hands
    ``feed_faults`` a :class:`FeedFaultInjector` (``seed + 17``) and
    ingests.
    """

    def __init__(self, params: TopologyParams, seed: int, duration_days: float) -> None:
        self.topology = build_topology(params)
        self.rng = random.Random(seed)
        self.emitter = TelemetryEmitter(self.topology, random.Random(seed + 1))
        self.injector = FaultInjector(self.topology, self.emitter, random.Random(seed + 2))
        self.start = BASE_EPOCH
        self.end = BASE_EPOCH + duration_days * DAY
        self.seed = seed

    def finish(
        self,
        ground_truth: List[GroundTruth],
        feed_faults: FeedFaults,
        backend: BackendSpec,
        **extras: object,
    ) -> SimulationResult:
        collector = DataCollector(store=DataStore(backend=backend))
        for router in self.topology.network.routers.values():
            collector.registry.register_device(router.name, router.timezone)
        feed_injector = FeedFaultInjector(
            self.emitter.buffers, random.Random(self.seed + 17)
        )
        if feed_faults is not None:
            feed_faults(feed_injector)
        self.emitter.buffers.ingest_into(collector)
        feed_injector.apply_to_registry(collector.health)
        return SimulationResult(
            self.topology, collector, ground_truth, self.start, self.end, extras
        )


class _TimePlanner:
    """Draws injection times that do not collide on the same target."""

    def __init__(self, rng: random.Random, start: float, end: float, spacing: float) -> None:
        self.rng = rng
        self.start = start
        self.end = end
        self.spacing = spacing
        self._used: Dict[str, List[float]] = {}

    def draw(self, target: str) -> float:
        for _ in range(200):
            t = self.rng.uniform(self.start, self.end)
            if all(abs(t - other) > self.spacing for other in self._used.get(target, [])):
                self._used.setdefault(target, []).append(t)
                return t
        raise RuntimeError(f"cannot place another event on {target!r}; lower the load")


def _emit_background(
    emitter: TelemetryEmitter,
    topology: BuiltTopology,
    rng: random.Random,
    start: float,
    end: float,
    cpu_interval: float = 3600.0,
) -> None:
    """Benign telemetry: normal CPU samples on every PER."""
    for per in topology.provider_edges:
        t = start + rng.uniform(0.0, cpu_interval)
        while t < end:
            emitter.snmp(t, per, "cpu_util_5min", "", rng.uniform(15.0, 55.0))
            t += cpu_interval


# ---------------------------------------------------------------------------
# Table IV: a month of eBGP flaps

#: The paper's Table IV percentages, used as the injected mixture.
TABLE4_MIXTURE: Tuple[Tuple[str, float], ...] = (
    ("Router reboot", 0.33),
    ("Customer reset session", 1.84),
    ("CPU high (average)", 0.02),
    ("CPU high (spike)", 6.44),
    ("Interface flap", 63.94),
    ("Line protocol flap", 11.15),
    ("eBGP HTE", 4.86),
    ("Regular optical mesh network restoration", 0.04),
    ("Fast optical mesh network restoration", 0.14),
    ("SONET restoration", 0.29),
    ("Unknown", 10.95),
)


def bgp_month(
    total_flaps: int = 1200,
    params: Optional[TopologyParams] = None,
    seed: int = 1001,
    duration_days: float = 30.0,
    feed_faults: FeedFaults = None,
    backend: BackendSpec = None,
) -> SimulationResult:
    """A month of customer eBGP flaps with the Table IV cause mixture."""
    params = params or TopologyParams(
        n_pops=6, pers_per_pop=3, customers_per_per=8, seed=seed
    )
    run = _Run(params, seed, duration_days)
    topology, rng, emitter, injector = run.topology, run.rng, run.emitter, run.injector
    start, end = run.start, run.end
    planner = _TimePlanner(rng, start + DAY * 0.05, end - DAY * 0.05, spacing=1800.0)

    customers = sorted(topology.customer_attachments)
    sonet_customers = sorted(
        c for c, d in topology.customer_layer1.items() if d.startswith("adm-")
    )
    mesh_customers = sorted(
        c for c, d in topology.customer_layer1.items() if d.startswith("omx-")
    )
    pers = topology.provider_edges

    targets = {cause: max(1, round(pct * total_flaps / 100.0)) for cause, pct in TABLE4_MIXTURE}
    plan: List[Tuple[float, str, str]] = []  # (time, cause, target)

    def customers_for(cause: str) -> Sequence[str]:
        if cause == "SONET restoration":
            return sonet_customers or customers
        if cause.endswith("optical mesh network restoration"):
            return mesh_customers or customers
        return customers

    for cause, _pct in TABLE4_MIXTURE:
        produced = 0
        while produced < targets[cause]:
            if cause == "Router reboot":
                per = rng.choice(pers)
                plan.append((planner.draw(per), cause, per))
                produced += params.customers_per_per
            else:
                customer = rng.choice(list(customers_for(cause)))
                plan.append((planner.draw(customer), cause, customer))
                produced += 1

    plan.sort()
    ground_truth: List[GroundTruth] = []
    inject = {
        "Router reboot": injector.bgp_router_reboot,
        "Customer reset session": injector.bgp_customer_reset,
        "CPU high (average)": injector.bgp_cpu_average,
        "CPU high (spike)": injector.bgp_cpu_spike,
        "Interface flap": injector.bgp_interface_flap,
        "Line protocol flap": injector.bgp_lineproto_flap,
        "eBGP HTE": injector.bgp_hte_unknown,
        "Unknown": injector.bgp_unknown,
    }
    for t, cause, target in plan:
        if cause in inject:
            ground_truth.extend(inject[cause](t, target))
        else:  # the three layer-1 restoration kinds
            ground_truth.extend(injector.bgp_layer1_restoration(t, target, cause))

    _emit_background(emitter, topology, rng, start, end)
    return run.finish(ground_truth, feed_faults, backend)


def bgp_flap_storm(
    total_flaps: int = 240,
    params: Optional[TopologyParams] = None,
    seed: int = 4004,
    duration_days: float = 30.0,
    storm_customers: int = 3,
    burst_size: int = 6,
    burst_spacing: float = 900.0,
    feed_faults: FeedFaults = None,
    backend: BackendSpec = None,
) -> SimulationResult:
    """A month of eBGP flaps dominated by a few *flapping* attachments.

    Where :func:`bgp_month` spreads its mixture thin (one symptom per
    site per window — every diagnosis is its own incident), this
    scenario concentrates most flaps on ``storm_customers`` troubled
    attachments that flap in **bursts**: ``burst_size`` interface flaps
    ``burst_spacing`` seconds apart, burst after burst across the
    month.  The workload the incident layer exists for — hundreds of
    diagnosed symptoms that an operator should see as a handful of
    flapping incidents (dedupe by cause + location + window, flap
    counts well above 1).  A sparse background of other Table IV causes
    keeps the breakdown non-degenerate.
    """
    params = params or TopologyParams(
        n_pops=6, pers_per_pop=3, customers_per_per=8, seed=seed
    )
    run = _Run(params, seed, duration_days)
    topology, rng, emitter, injector = run.topology, run.rng, run.emitter, run.injector
    start, end = run.start, run.end

    customers = sorted(topology.customer_attachments)
    troubled = customers[: max(1, storm_customers)]
    burst_flaps = max(2, burst_size)
    storm_total = int(total_flaps * 0.8)
    background_total = total_flaps - storm_total

    ground_truth: List[GroundTruth] = []
    # bursts: each troubled customer flaps burst_flaps times in a row,
    # bursts rotating over the troubled set across the whole span
    n_bursts = max(1, storm_total // burst_flaps)
    span = (end - start) - DAY
    produced = 0
    for b in range(n_bursts):
        customer = troubled[b % len(troubled)]
        burst_start = start + 0.5 * DAY + (b / n_bursts) * span
        for k in range(burst_flaps):
            if produced >= storm_total:
                break
            t = burst_start + k * burst_spacing
            ground_truth.extend(injector.bgp_interface_flap(t, customer))
            produced += 1

    # sparse background mixture away from the troubled attachments
    quiet = [c for c in customers if c not in troubled] or customers
    background = (
        injector.bgp_customer_reset,
        injector.bgp_cpu_spike,
        injector.bgp_lineproto_flap,
        injector.bgp_unknown,
    )
    planner = _TimePlanner(
        rng, start + DAY * 0.05, end - DAY * 0.05, spacing=3600.0
    )
    for k in range(background_total):
        customer = rng.choice(quiet)
        inject = background[k % len(background)]
        ground_truth.extend(inject(planner.draw(customer), customer))

    ground_truth.sort(key=lambda truth: truth.time)
    _emit_background(emitter, topology, rng, start, end)
    return run.finish(ground_truth, feed_faults, backend)


# ---------------------------------------------------------------------------
# Table VIII: two weeks of PIM adjacency changes

TABLE8_MIXTURE: Tuple[Tuple[str, float], ...] = (
    ("PIM Configuration change", 4.04),
    ("Router Cost In/Out", 10.34),
    ("Link Cost Out/Down", 1.50),
    ("Link Cost In/Up", 0.84),
    ("OSPF re-convergence", 10.36),
    ("Uplink PIM adjacency loss", 1.95),
    ("interface (customer facing) flap", 69.21),
    ("Unknown", 1.76),
)


def pim_fortnight(
    total_changes: int = 700,
    params: Optional[TopologyParams] = None,
    seed: int = 2002,
    duration_days: float = 14.0,
    feed_faults: FeedFaults = None,
    backend: BackendSpec = None,
) -> SimulationResult:
    """Two weeks of MVPN PIM adjacency changes, Table VIII mixture."""
    params = params or TopologyParams(
        n_pops=6, pers_per_pop=3, customers_per_per=6, seed=seed
    )
    run = _Run(params, seed, duration_days)
    topology, rng, emitter, injector = run.topology, run.rng, run.emitter, run.injector
    start, end = run.start, run.end
    planner = _TimePlanner(rng, start + DAY * 0.05, end - DAY * 0.05, spacing=2400.0)

    customers = sorted(topology.customer_attachments)
    pes = topology.provider_edges
    cores = [
        router.name
        for router in topology.network.routers.values()
        if router.role.value == "core"
    ]
    backbone_links = [
        link.name
        for link in topology.network.logical_links.values()
        if link.router_a in cores and link.router_z in cores
        and topology.network.router(link.router_a).pop
        != topology.network.router(link.router_z).pop
    ]

    targets = {
        cause: max(1, round(pct * total_changes / 100.0))
        for cause, pct in TABLE8_MIXTURE
    }
    ground_truth: List[GroundTruth] = []

    # plan, sorted by time, so the injector's IGP view evolves forward
    plan: List[Tuple[float, str, str]] = []
    for cause, _pct in TABLE8_MIXTURE:
        produced = 0
        # conservative per-injection symptom estimates for planning
        per_injection = {"Router Cost In/Out": 2}.get(cause, 1)
        while produced < targets[cause]:
            if cause == "PIM Configuration change":
                target = rng.choice(pes)
            elif cause == "Router Cost In/Out":
                target = rng.choice(cores)
            elif cause in ("Link Cost Out/Down", "Link Cost In/Up", "OSPF re-convergence"):
                target = rng.choice(backbone_links)
            elif cause == "interface (customer facing) flap":
                target = rng.choice(customers)
            else:  # uplink loss / unknown
                target = rng.choice(pes)
            plan.append((planner.draw(target), cause, target))
            produced += per_injection
    plan.sort()

    inject = {
        "PIM Configuration change": injector.pim_config_change,
        "Router Cost In/Out": injector.pim_router_cost,
        "Link Cost Out/Down": injector.pim_link_cost_out,
        "Link Cost In/Up": injector.pim_link_cost_in,
        "OSPF re-convergence": injector.pim_ospf_reconvergence,
        "Uplink PIM adjacency loss": injector.pim_uplink_adjacency,
        "interface (customer facing) flap": injector.pim_customer_interface_flap,
        "Unknown": injector.pim_unknown,
    }
    counts: Dict[str, int] = {cause: 0 for cause, _ in TABLE8_MIXTURE}
    last_time = start
    for t, cause, target in plan:
        truths = inject[cause](t, target)
        counts[cause] += len(truths)
        ground_truth.extend(truths)
        last_time = max(last_time, t)

    # top-up pass: link-based injections can yield zero symptoms when no
    # PE pair crosses the chosen link at that moment; retry sequentially
    # until each cause hits its target
    t = last_time + 3600.0
    for cause, _pct in TABLE8_MIXTURE:
        attempts = 0
        while counts[cause] < targets[cause] and attempts < 50 and t < end - 600.0:
            attempts += 1
            t += 2700.0
            if cause == "PIM Configuration change":
                target = rng.choice(pes)
            elif cause == "Router Cost In/Out":
                target = rng.choice(cores)
            elif cause in ("Link Cost Out/Down", "Link Cost In/Up", "OSPF re-convergence"):
                target = rng.choice(backbone_links)
            elif cause == "interface (customer facing) flap":
                target = rng.choice(customers)
            else:
                target = rng.choice(pes)
            truths = inject[cause](t, target)
            counts[cause] += len(truths)
            ground_truth.extend(truths)

    _emit_background(emitter, topology, rng, start, end)
    return run.finish(ground_truth, feed_faults, backend)


# ---------------------------------------------------------------------------
# Table VI: a month of CDN RTT degradations

TABLE6_MIXTURE: Tuple[Tuple[str, float], ...] = (
    ("CDN assignment policy change", 3.83),
    ("Egress Change due to Inter-domain routing change", 5.71),
    ("Link Congestions", 3.50),
    ("Link Loss", 3.32),
    ("Interface flap", 4.65),
    ("OSPF re-convergence", 4.16),
    ("Outside of our network (Unknown)", 74.83),
)

_RTT_INTERVAL = 1800.0


def cdn_month(
    total_degradations: int = 500,
    params: Optional[TopologyParams] = None,
    seed: int = 3003,
    duration_days: float = 30.0,
    n_clients: int = 24,
    feed_faults: FeedFaults = None,
    backend: BackendSpec = None,
) -> SimulationResult:
    """A month of CDN RTT degradations, Table VI mixture."""
    params = params or TopologyParams(
        n_pops=5,
        pers_per_pop=2,
        customers_per_per=2,
        cdn_pops=("nyc",),
        peering_pops=("chi", "sea"),
        cdn_servers_per_dc=3,
        seed=seed,
    )
    run = _Run(params, seed, duration_days)
    topology, rng, emitter, injector = run.topology, run.rng, run.emitter, run.injector
    start, end = run.start, run.end

    servers = sorted(topology.network.cdn_servers)
    cdn_router = topology.network.cdn_servers[servers[0]].attached_router
    peer_pops = [p for p in params.peering_pops if p in topology.network.pops]
    egress_by_pop = {p: f"{p}-cr1" for p in peer_pops}

    # client address plan: one /24 per peering pop region, clients split
    prefixes = {p: f"198.51.{100 + i}.0/24" for i, p in enumerate(peer_pops)}
    clients: Dict[str, Tuple[str, str]] = {}  # client id -> (ip, home pop)
    for index in range(n_clients):
        pop = peer_pops[index % len(peer_pops)]
        ip = prefixes[pop].rsplit(".", 1)[0] + f".{10 + index}"
        clients[f"client-{index:03d}"] = (ip, pop)

    # announce every client prefix at its peering pop's core (the egress)
    for pop, prefix in prefixes.items():
        emitter.bgp_update(start - DAY, "A", prefix, egress_by_pop[pop])
    # netflow teaches the platform that CDN servers enter at their PER
    for server in servers:
        emitter.netflow(start - DAY, server, "203.0.113.1", cdn_router)

    # choose measured (server, client) pairs
    pairs = [(rng.choice(servers), client) for client in sorted(clients)]

    # plan fault episodes: each elevates one RTT sample per affected pair
    targets = {
        cause: max(1, round(pct * total_degradations / 100.0))
        for cause, pct in TABLE6_MIXTURE
    }
    sample_slots = int((end - start) / _RTT_INTERVAL)
    warmup_slots = 6

    def path_links(client_pop: str, t: float):
        egress = egress_by_pop[client_pop]
        return injector.paths_between(cdn_router, egress, t)

    episodes: List[Tuple[int, str, List[Tuple[str, str]]]] = []
    used_slots = set()
    ground_truth: List[GroundTruth] = []

    def draw_slot() -> int:
        for _ in range(500):
            slot = rng.randrange(warmup_slots, sample_slots - 1)
            if all(abs(slot - s) > 2 for s in used_slots):
                used_slots.add(slot)
                return slot
        raise RuntimeError("cannot place another CDN fault episode")

    def record(cause: str, slot: int, affected: List[Tuple[str, str]]) -> None:
        episodes.append((slot, cause, affected))
        t = start + slot * _RTT_INTERVAL
        for server, client in affected:
            ground_truth.append(
                GroundTruth(
                    symptom="CDN round trip time increase",
                    cause=cause,
                    time=t,
                    location=f"{server}~{clients[client][0]}",
                )
            )

    def affected_for_pop(pop: str, k: int) -> List[Tuple[str, str]]:
        pool = [(s, c) for s, c in pairs if clients[c][1] == pop]
        rng.shuffle(pool)
        return sorted(pool[:k])

    for cause, _pct in TABLE6_MIXTURE:
        produced = 0
        while produced < targets[cause]:
            slot = draw_slot()
            t = start + slot * _RTT_INTERVAL + 60.0
            pop = rng.choice(peer_pops)
            k = min(max(1, targets[cause] - produced), 4)
            affected = affected_for_pop(pop, k)
            if not affected:
                continue
            if cause == "CDN assignment policy change":
                injector.cdn_policy_change(t, servers)
            elif cause == "Egress Change due to Inter-domain routing change":
                other = [p for p in peer_pops if p != pop]
                new_egress = egress_by_pop[other[0]] if other else None
                injector.cdn_egress_change(
                    t, prefixes[pop], egress_by_pop[pop], new_egress
                )
            elif cause in ("Link Congestions", "Link Loss", "Interface flap",
                           "OSPF re-convergence"):
                paths = path_links(pop, t)
                if not paths.reachable or not paths.links:
                    continue
                link = sorted(paths.links)[0]
                if cause == "Link Congestions":
                    iface = topology.network.logical_link(link).interface_a
                    injector.cdn_link_congestion(t, iface, _RTT_INTERVAL)
                elif cause == "Link Loss":
                    iface = topology.network.logical_link(link).interface_a
                    injector.cdn_link_loss(t, iface, _RTT_INTERVAL)
                elif cause == "Interface flap":
                    injector.cdn_backbone_interface_flap(t, link)
                else:
                    injector.cdn_ospf_reconvergence(t, link)
            # "Outside of our network (Unknown)": no in-network telemetry
            record(cause, slot, affected)
            produced += len(affected)

    # generate all RTT samples in one sweep
    elevated = {}
    for slot, _cause, affected in episodes:
        for pair in affected:
            elevated.setdefault(pair, set()).add(slot)
    base_rtt = {
        pair: rng.uniform(30.0, 80.0) for pair in pairs
    }
    for pair in pairs:
        server, client = pair
        client_ip = clients[client][0]
        lifted = elevated.get(pair, set())
        for slot in range(sample_slots):
            t = start + (slot + 1) * _RTT_INTERVAL
            value = base_rtt[pair] + rng.gauss(0.0, 1.5)
            if slot in lifted:
                value *= rng.uniform(2.2, 3.5)
            emitter.perf(t, server, client_ip, "rtt_ms", max(1.0, value))

    return run.finish(
        ground_truth, feed_faults, backend,
        clients=clients, pairs=pairs, rtt_interval=_RTT_INTERVAL,
    )


# ---------------------------------------------------------------------------
# Backbone probe losses (the introduction's motivating workload)

_PROBE_INTERVAL = 300.0

#: Cause mixture for the probe-loss scenario.  The paper publishes no
#: breakdown for this workload; the mixture makes congestion dominate so
#: the intro's "capacity augmentation" decision falls out of the data.
PROBE_LOSS_MIXTURE: Tuple[Tuple[str, float], ...] = (
    ("Link Congestions", 55.0),
    ("OSPF re-convergence", 30.0),
    ("Unknown", 15.0),
)


def backbone_probe_month(
    total_losses: int = 200,
    params: Optional[TopologyParams] = None,
    seed: int = 6006,
    duration_days: float = 30.0,
    n_probe_pairs: int = 10,
    feed_faults: FeedFaults = None,
    backend: BackendSpec = None,
) -> SimulationResult:
    """A month of inter-PoP probe measurements with loss episodes."""
    params = params or TopologyParams(
        n_pops=5, pers_per_pop=2, customers_per_per=2, seed=seed
    )
    run = _Run(params, seed, duration_days)
    topology, rng, emitter, injector = run.topology, run.rng, run.emitter, run.injector
    start, end = run.start, run.end

    pers = topology.provider_edges
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < n_probe_pairs:
        a, b = rng.sample(pers, 2)
        if topology.network.router(a).pop == topology.network.router(b).pop:
            continue
        if (a, b) not in pairs:
            pairs.append((a, b))

    sample_slots = int((end - start) / _PROBE_INTERVAL)
    warmup_slots = 6
    targets = {
        cause: max(1, round(pct * total_losses / 100.0))
        for cause, pct in PROBE_LOSS_MIXTURE
    }
    used_slots: set = set()
    ground_truth: List[GroundTruth] = []
    elevated: Dict[Tuple[str, str], set] = {}

    def draw_slot() -> int:
        for _ in range(2000):
            slot = rng.randrange(warmup_slots, sample_slots - 1)
            if all(abs(slot - s) > 3 for s in used_slots):
                used_slots.add(slot)
                return slot
        raise RuntimeError("cannot place another probe-loss episode")

    def crossing_pairs(link: str, t: float, limit: int) -> List[Tuple[str, str]]:
        found = []
        for a, b in pairs:
            paths = injector.paths_between(a, b, t)
            if paths.reachable and link in paths.links:
                found.append((a, b))
                if len(found) >= limit:
                    break
        return found

    for cause, _pct in PROBE_LOSS_MIXTURE:
        produced = 0
        attempts = 0
        while produced < targets[cause] and attempts < 500:
            attempts += 1
            slot = draw_slot()
            t = start + slot * _PROBE_INTERVAL + 30.0
            if cause == "Unknown":
                affected = [rng.choice(pairs)]
            else:
                pair = rng.choice(pairs)
                paths = injector.paths_between(pair[0], pair[1], t)
                if not paths.reachable or not paths.links:
                    continue
                link = sorted(paths.links)[rng.randrange(len(paths.links))]
                affected = crossing_pairs(link, t, limit=3)
                if not affected:
                    continue
                if cause == "Link Congestions":
                    iface = topology.network.logical_link(link).interface_a
                    injector.cdn_link_congestion(t, iface, _PROBE_INTERVAL)
                else:
                    injector.cdn_ospf_reconvergence(t, link, duration=200.0)
            for a, b in affected:
                elevated.setdefault((a, b), set()).add(slot)
                ground_truth.append(
                    GroundTruth(
                        symptom="In-network loss increase",
                        cause=cause,
                        time=t,
                        location=f"{a}~{b}",
                    )
                )
                produced += 1

    # one sweep of probe samples per pair
    for a, b in pairs:
        lifted = elevated.get((a, b), set())
        for slot in range(sample_slots):
            t = start + (slot + 1) * _PROBE_INTERVAL
            value = max(0.0, rng.gauss(0.05, 0.02))
            if slot in lifted:
                value = rng.uniform(2.0, 6.0)
            emitter.perf(t, a, b, "loss_pct", value)

    return run.finish(ground_truth, feed_faults, backend, probe_pairs=pairs)


# ---------------------------------------------------------------------------
# Section IV-B (Fig. 7): the provisioning-activity study

def cpu_bgp_study(
    seed: int = 4004,
    duration_days: float = 90.0,
    n_provisioning: int = 600,
    provisioning_flap_probability: float = 0.03,
    n_other_flaps: int = 3500,
    n_pure_cpu_flaps: int = 40,
    params: Optional[TopologyParams] = None,
    feed_faults: FeedFaults = None,
) -> SimulationResult:
    """Three months of flaps with a hidden provisioning-induced bug.

    ``provisioning.port_turnup`` is a *routine* activity; on rare
    occasions (a router-software bug) it trips a CPU spike that times
    out customer BGP sessions.  The handful of incidents is buried among
    thousands of ordinary flaps — exactly the Section IV-B setting where
    only the prefiltered correlation test can surface the association.
    """
    params = params or TopologyParams(
        n_pops=5, pers_per_pop=3, customers_per_per=6, seed=seed
    )
    run = _Run(params, seed, duration_days)
    topology, rng, emitter, injector = run.topology, run.rng, run.emitter, run.injector
    start, end = run.start, run.end
    planner = _TimePlanner(rng, start + DAY * 0.05, end - DAY * 0.05, spacing=1800.0)

    customers = sorted(topology.customer_attachments)
    by_per: Dict[str, List[str]] = {}
    for customer, (per, _iface, _ip) in topology.customer_attachments.items():
        by_per.setdefault(per, []).append(customer)
    pers = sorted(by_per)

    ground_truth: List[GroundTruth] = []
    plan: List[Tuple[float, str, str]] = []

    # the buggy provisioning activity
    for _ in range(n_provisioning):
        per = rng.choice(pers)
        plan.append((planner.draw(per), "provisioning", per))
    # ordinary interface-flap noise
    for _ in range(n_other_flaps):
        customer = rng.choice(customers)
        plan.append((planner.draw(customer), "Interface flap", customer))
    # genuinely CPU-caused flaps, unrelated to provisioning
    for _ in range(n_pure_cpu_flaps):
        customer = rng.choice(customers)
        plan.append((planner.draw(customer), "CPU high (spike)", customer))
    # benign background workflow activities (candidate-universe noise)
    benign_activities = [
        "maintenance.card_swap", "audit.config_scan", "backup.config_pull",
        "qos.policy_update", "maintenance.fan_check",
    ]
    for _ in range(n_provisioning * len(benign_activities)):
        per = rng.choice(pers)
        t = rng.uniform(start, end)
        emitter.workflow(t, per, rng.choice(benign_activities), "routine")

    plan.sort()
    for t, kind, target in plan:
        if kind == "provisioning":
            emitter.workflow(t, target, "provisioning.port_turnup",
                             f"order-{rng.randint(10000, 99999)}")
            if rng.random() < provisioning_flap_probability:
                victim = rng.choice(sorted(by_per[target]))
                truths = injector.bgp_cpu_spike(t + rng.uniform(10.0, 50.0), victim)
                for truth in truths:
                    ground_truth.append(
                        GroundTruth(
                            symptom=truth.symptom,
                            cause="Provisioning-induced CPU flap",
                            time=truth.time,
                            location=truth.location,
                        )
                    )
        elif kind == "Interface flap":
            ground_truth.extend(injector.bgp_interface_flap(t, target))
        else:
            ground_truth.extend(injector.bgp_cpu_spike(t, target))

    return run.finish(ground_truth, feed_faults, None)


# ---------------------------------------------------------------------------
# Section IV-C (Fig. 8): the line-card crash study

def linecard_crash(
    seed: int = 5005,
    duration_days: float = 30.0,
    n_background_flaps: int = 120,
    params: Optional[TopologyParams] = None,
    feed_faults: FeedFaults = None,
) -> SimulationResult:
    """A month of flaps on one PER plus one line-card crash episode.

    The crash flaps every customer session on one card within ~3
    minutes.  No crash signature is emitted — the root cause is
    *unobservable*, as in Section IV-C.
    """
    params = params or TopologyParams(
        n_pops=3, pers_per_pop=2, customers_per_per=10, seed=seed
    )
    run = _Run(params, seed, duration_days)
    topology, rng, emitter, injector = run.topology, run.rng, run.emitter, run.injector
    start, end = run.start, run.end
    planner = _TimePlanner(rng, start + DAY * 0.05, end - DAY * 0.05, spacing=1800.0)

    # pick the PER and the line card with the most customer interfaces
    per = topology.provider_edges[0]
    customer_ifaces = {
        iface for _c, (owner, iface, _ip) in topology.customer_attachments.items()
        if owner == per
    }
    slot_counts: Dict[int, int] = {}
    # sorted, so a tie between cards breaks the same way in every process
    for fq in sorted(customer_ifaces):
        slot = topology.network.interface(fq).slot
        slot_counts[slot] = slot_counts.get(slot, 0) + 1
    crash_slot = max(slot_counts, key=lambda s: slot_counts[s])

    ground_truth: List[GroundTruth] = []
    customers = sorted(topology.customer_attachments)
    for _ in range(n_background_flaps):
        customer = rng.choice(customers)
        ground_truth.extend(
            injector.bgp_interface_flap(planner.draw(customer), customer)
        )

    crash_time = start + duration_days * DAY / 2.0
    ground_truth.extend(injector.bgp_linecard_crash(crash_time, per, crash_slot))

    return run.finish(
        ground_truth, feed_faults, None,
        crash_router=per, crash_slot=crash_slot, crash_time=crash_time,
    )


# ---------------------------------------------------------------------------
# The scenario table: what the CLI and the evaluation harness build


@dataclass(frozen=True)
class Workload:
    """One scenario: its builder, its RCA application and its size knob.

    ``app_key`` names the workload in the evaluation harness
    (``Scenario.app``, the cause-alias tables).  ``app_name`` is looked
    up in :mod:`repro.apps` when :attr:`app` is asked for: importing
    ``repro`` (as any ``repro.collector`` import does) imports this
    module, and :mod:`repro.apps` loads :mod:`repro.service`, which a
    collector-only process must never load (``tests/test_layering.py``).
    """

    app_key: str
    builder: Callable[..., SimulationResult]
    app_name: str
    #: the builder keyword that sets how many symptoms to inject
    size_keyword: str

    @property
    def app(self) -> type:
        """The :class:`~repro.apps.RcaApp` subclass that diagnoses it."""
        from .. import apps

        return getattr(apps, self.app_name)

    def build(self, size: int, seed: int, **kwargs: object) -> SimulationResult:
        """Simulate ``size`` symptoms from ``seed``; ``kwargs`` (topology
        ``params``, ``duration_days``, ``feed_faults``, ``backend``) go
        to the builder as they are."""
        return self.builder(seed=seed, **{self.size_keyword: size}, **kwargs)


#: scenario name -> workload: the CLI's scenario names; the evaluation
#: harness finds its workloads here by ``app_key``
SCENARIOS: Dict[str, Workload] = {
    "backbone-month": Workload("backbone", backbone_probe_month, "BackboneApp", "total_losses"),
    "bgp-month": Workload("bgp_flaps", bgp_month, "BgpFlapApp", "total_flaps"),
    "bgp-storm": Workload("bgp_storm", bgp_flap_storm, "BgpFlapApp", "total_flaps"),
    "cdn-month": Workload("cdn", cdn_month, "CdnApp", "total_degradations"),
    "pim-fortnight": Workload("pim", pim_fortnight, "PimApp", "total_changes"),
}
