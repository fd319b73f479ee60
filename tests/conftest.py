"""Shared fixtures: a small tier-1 topology with routing and resolver."""

import random

import pytest

from repro.collector.store import DataStore
from repro.core.spatial import LocationResolver
from repro.routing.bgp import BgpEmulator, BgpUpdateLog
from repro.routing.ospf import OspfSimulator
from repro.routing.paths import IngressMap, PathService
from repro.service import workers
from repro.topology import TopologyParams, build_topology, snapshot_network


@pytest.fixture(scope="session")
def small_topology():
    """4 PoPs, 2 PERs each, CDN in nyc, peering in chi."""
    return build_topology(
        TopologyParams(
            n_pops=4,
            pers_per_pop=2,
            customers_per_per=3,
            cdn_pops=("nyc",),
            peering_pops=("chi",),
            seed=11,
        )
    )


@pytest.fixture(scope="session")
def config_archive(small_topology):
    return snapshot_network(small_topology, timestamp=0.0)


@pytest.fixture
def ospf(small_topology):
    return OspfSimulator(small_topology.network)


@pytest.fixture
def bgp_log():
    return BgpUpdateLog()


@pytest.fixture
def path_service(small_topology, ospf, bgp_log, config_archive):
    emulator = BgpEmulator(bgp_log, ospf)
    service = PathService(
        network=small_topology.network,
        ospf=ospf,
        bgp=emulator,
        configs=config_archive,
        ingress_map=IngressMap(),
    )
    # CDN servers enter the network at their attached routers
    for server in small_topology.network.cdn_servers.values():
        service.ingress_map.learn(server.name, server.attached_router)
    return service


@pytest.fixture
def resolver(path_service):
    return LocationResolver(path_service)


@pytest.fixture
def forks(monkeypatch):
    """Show ``parallel_diagnose`` a two-CPU box, so ``jobs > 1`` really
    forks; the returned list records the ``jobs`` of each forked batch."""
    calls = []
    real = workers._fork_diagnose

    def recording(engine, symptoms, jobs):
        calls.append(jobs)
        return real(engine, symptoms, jobs)

    monkeypatch.setattr(workers, "available_cpus", lambda: 2)
    monkeypatch.setattr(workers, "_fork_diagnose", recording)
    return calls


@pytest.fixture
def store():
    return DataStore()


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite golden files from current output instead of comparing",
    )


@pytest.fixture
def regen_goldens(request):
    """Whether golden-file tests should rewrite their expectations."""
    return request.config.getoption("--regen-goldens")


@pytest.fixture
def rng():
    """The one sanctioned source of test randomness: a fixed-seed RNG.

    Tests needing random draws take this fixture instead of touching the
    module-level ``random`` state, so a run's outcome never depends on
    test order or on other tests' consumption of the global stream.
    """
    return random.Random(0xC0FFEE)
