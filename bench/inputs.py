"""Seeded workload inputs: the load-generator side of the benchmark.

Everything here runs in the bench process, *outside* the program under
test.  ``make_inputs`` turns ``(workload, seed)`` into raw feed lines
with :mod:`repro.simulation`; the program (``bench/program.py``, a
child process) receives only :meth:`Inputs.payload` — topology knobs,
the diagnosis window and the raw lines.  The simulator's ground truth
stays here, for scoring.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.collector.sources.ospfmon import render_ospfmon_row
from repro.simulation import GroundTruth, TelemetryEmitter, bgp_month, cdn_month
from repro.simulation.scenarios import DAY
from repro.simulation.telemetry import BASE_EPOCH
from repro.topology import TopologyParams, build_topology

WORKLOADS = ("batch-bgp-month", "batch-cdn-quarter", "stream-pim-storm", "serve-http")

#: workload -> application key (the names ``repro.eval.scoring`` uses
#: for its cause-alias tables)
APP_OF = {
    "batch-bgp-month": "bgp_flaps",
    "batch-cdn-quarter": "cdn",
    "stream-pim-storm": "pim",
    "serve-http": "bgp_flaps",
}

#: Workload sizes.  ``default`` is sized so that the timed section of one
#: round (one fresh process under test doing one full pass) takes about a
#: second: a shared box runs in fast and slow spells of a few seconds
#: each, so a run gets its steadiness from ten-odd short rounds of which
#: some are undisturbed, not from one long pass that never is.  The
#: monthly cause mixtures are kept; the calendar is compressed.
#: ``smoke`` is for the self-test.
SIZES: Dict[str, Dict[str, Any]] = {
    "default": {
        "bgp_flaps": 600,
        "bgp_days": 10.0,
        "bgp_topology": {"n_pops": 10, "pers_per_pop": 4, "customers_per_per": 10},
        "cdn_degradations": 500,
        "cdn_clients": 24,
        "cdn_days": 30.0,
        "storm_days": 3.0,
        "storms_per_day": 3,
        "storm_faults": 4,
        "storm_vrfs": 2,
        "storm_churn_span": 90.0,
        "serve_warmup_jobs": 30,
        "serve_jobs": 300,
        "serve_reports": 5,
    },
    "smoke": {
        "bgp_flaps": 120,
        "bgp_days": 5.0,
        "bgp_topology": {"n_pops": 4, "pers_per_pop": 2, "customers_per_per": 6},
        "cdn_degradations": 60,
        "cdn_clients": 8,
        "cdn_days": 10.0,
        "storm_days": 2.0,
        "storms_per_day": 1,
        "storm_faults": 2,
        "storm_vrfs": 3,
        "storm_churn_span": 60.0,
        "serve_warmup_jobs": 5,
        "serve_jobs": 60,
        "serve_reports": 3,
    },
}

#: The network is configuration, not input: every seed runs on the same
#: topology, so that the seed moves *when and where* events happen but
#: not how long the paths are — otherwise run time differs by 20-30 %
#: between seeds and hides what a code change does.
TOPOLOGY_SEED = 42

# --- MVPN provisioning storm shape (after benchmarks/test_hotpath.py) ---
#: replay clock step (the paper's near-real-time cadence)
TICK = 600.0
#: one provisioning action every 15 minutes within a daily storm
FAULT_SPACING = 900.0
#: OSPFMon LSA-churn cadence around each action
CHURN_REFRESH = 12.0
#: quiet-hours LSA refresh cadence
IDLE_REFRESH = 1800.0
PIM_SYMPTOM = "PIM Neighbor Adjacency Change"
PIM_CAUSE = "PIM Configuration change"


@dataclass
class Inputs:
    """One workload's generated inputs plus the generator's own answers."""

    workload: str
    seed: int
    app: str
    topology: Dict[str, Any]
    start: float
    end: float
    #: batch / serve workloads: raw lines per source, in time order
    feeds: Dict[str, List[str]] = field(default_factory=dict)
    #: stream workload: (arrival time, source, raw line), arrival order
    stream: List[Tuple[float, str, str]] = field(default_factory=list)
    truths: List[GroundTruth] = field(default_factory=list)
    gen_s: float = 0.0
    sizes: Dict[str, Any] = field(default_factory=dict)

    @property
    def lines_out(self) -> int:
        return len(self.stream) + sum(len(v) for v in self.feeds.values())

    def payload(self) -> Dict[str, Any]:
        """What the program under test is given — no ground truth."""
        return {
            "workload": self.workload,
            "app": self.app,
            "topology": self.topology,
            "start": self.start,
            "end": self.end,
            "feeds": self.feeds,
            "stream": self.stream,
            "tick": TICK,
            "sizes": self.sizes,
        }


def topology_params(fields: Dict[str, Any]) -> TopologyParams:
    """Rebuild :class:`TopologyParams` from its JSON-travelled fields."""
    return TopologyParams(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}
    )


def _captured_feeds(simulate, **kwargs) -> Tuple[Any, Dict[str, List[str]]]:
    """Run a ``repro.simulation`` scenario and keep its raw lines.

    The scenario functions ingest into their own collector and return
    that; the raw text only surfaces through the ``feed_faults`` hook,
    which is handed the emitter's buffers just before ingestion.
    """
    captured = []
    result = simulate(feed_faults=lambda inj: captured.append(inj.buffers), **kwargs)
    buffers = captured[0]
    return result, {source: buffers.lines(source) for source in buffers.sources()}


def _bgp_inputs(workload: str, seed: int, sizes: Dict[str, Any]) -> Inputs:
    params = TopologyParams(seed=TOPOLOGY_SEED, **sizes["bgp_topology"])
    result, feeds = _captured_feeds(
        bgp_month, total_flaps=sizes["bgp_flaps"], params=params, seed=seed,
        duration_days=sizes["bgp_days"],
    )
    return Inputs(
        workload, seed, APP_OF[workload], dataclasses.asdict(params),
        result.start, result.end, feeds=feeds, truths=result.ground_truth,
    )


def _cdn_inputs(workload: str, seed: int, sizes: Dict[str, Any]) -> Inputs:
    # cdn_month's own default network, with the seed taken out of it
    params = TopologyParams(
        n_pops=5, pers_per_pop=2, customers_per_per=2, cdn_pops=("nyc",),
        peering_pops=("chi", "sea"), cdn_servers_per_dc=3, seed=TOPOLOGY_SEED,
    )
    result, feeds = _captured_feeds(
        cdn_month,
        params=params,
        total_degradations=sizes["cdn_degradations"],
        n_clients=sizes["cdn_clients"],
        duration_days=sizes["cdn_days"],
        seed=seed,
    )
    return Inputs(
        workload, seed, APP_OF[workload], dataclasses.asdict(params),
        result.start, result.end, feeds=feeds, truths=result.ground_truth,
    )


def _storm_inputs(workload: str, seed: int, sizes: Dict[str, Any]) -> Inputs:
    """MVPN provisioning storms over a quiet-but-heavy OSPFMon feed.

    Each provisioning action on a PE flaps its PIM adjacencies towards
    every remote PE across ``storm_vrfs`` customer VPNs — dozens of sibling
    symptoms within seconds, all sharing one retrieval cover — while the
    OSPF monitor re-announces every link each ``CHURN_REFRESH`` seconds
    around the action and each ``IDLE_REFRESH`` seconds otherwise.
    """
    params = TopologyParams(
        n_pops=8, pers_per_pop=2, customers_per_per=4, seed=TOPOLOGY_SEED
    )
    topology = build_topology(params)
    network = topology.network
    emitter = TelemetryEmitter(topology, random.Random(seed + 1))
    # storms need exact sub-second fan-out: jitter would collide the
    # per-vrf instance identities (rounded to deciseconds)
    emitter.syslog_jitter = 0.0
    rng = random.Random(seed + 2)
    start = BASE_EPOCH
    end = start + sizes["storm_days"] * DAY
    pes = sorted(topology.provider_edges)
    links = sorted(network.logical_links)

    truths: List[GroundTruth] = []
    churn_spans = []
    period = DAY / sizes["storms_per_day"]
    storm_start = start + 0.5 * period
    storm = 0
    while storm_start < end - 0.5 * period:
        for k in range(sizes["storm_faults"]):
            t = storm_start + k * FAULT_SPACING
            pe = pes[(storm + k) % len(pes)]
            uplink = network.uplinks_of(pe)[0]
            local_if = (
                uplink.interface_a if uplink.interface_a.startswith(pe)
                else uplink.interface_z
            ).partition(":")[2]
            emitter.tacacs(
                t - 8.0, pe, "prov-sys",
                "conf t; ip vrf cust-vpn-1; mdt default 239.1.1.1",
            )
            for v in range(sizes["storm_vrfs"]):
                # whole-second offsets (syslog timestamp resolution)
                at = t + 2.0 * v
                for remote in pes:
                    if remote == pe:
                        continue
                    loopback = network.router(remote).loopback
                    vrf = f"cust-vpn-{v + 1}"
                    emitter.pim_neighbor_change(at, pe, loopback, local_if, "down", vrf)
                    emitter.pim_neighbor_change(
                        at + rng.uniform(30.0, 90.0), pe, loopback, local_if, "up", vrf
                    )
                    truths.append(
                        GroundTruth(PIM_SYMPTOM, PIM_CAUSE, at, f"{pe}~{remote}")
                    )
            churn_spans.append((t - sizes["storm_churn_span"], t + sizes["storm_churn_span"]))
        storm_start += period
        storm += 1
    stream = emitter.buffers.replay_order()

    t = start
    while t < end:
        stream.extend((t, "ospfmon", render_ospfmon_row(t, link, 10)) for link in links)
        t += IDLE_REFRESH
    for lo, hi in churn_spans:
        t = lo
        while t <= hi:
            stream.extend((t, "ospfmon", render_ospfmon_row(t, link, 10)) for link in links)
            t += CHURN_REFRESH
    # in-order delivery: the arrival order a FeedReplayer would impose
    stream.sort(key=lambda item: (item[0], item[1]))
    return Inputs(
        workload, seed, APP_OF[workload], dataclasses.asdict(params),
        start, end, stream=stream, truths=truths,
    )


_BUILDERS = {
    "batch-bgp-month": _bgp_inputs,
    "batch-cdn-quarter": _cdn_inputs,
    "stream-pim-storm": _storm_inputs,
    "serve-http": _bgp_inputs,
}


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Generate one workload's inputs; same seed, same inputs."""
    sizes = SIZES["smoke" if smoke else "default"]
    began = time.perf_counter()
    inputs = _BUILDERS[workload](workload, seed, sizes)
    inputs.gen_s = time.perf_counter() - began
    inputs.sizes = sizes
    return inputs
