"""Fixtures for the HTTP gateway tests: a 2-shard router over the mini
app, the gateway on an ephemeral port, and a small JSON HTTP client.

Router names ``nyc-per1`` and ``chi-per1`` are load-bearing: with two
shards their diagnosis routing keys hash (crc32) to shard 1 and shard 0
respectively, giving every test a deterministic cross-shard split.
"""

import http.client
import json
import threading

import pytest

from repro.service import RcaService
from repro.service.http import RcaGateway, ShardRouter, build_shards

#: topology routers whose mini-app routing keys land on distinct shards
#: (see module docstring); shard index under a 2-shard router
SHARD1_ROUTER = "nyc-per1"
SHARD0_ROUTER = "chi-per1"


@pytest.fixture
def router2(mini_app):
    """Two started shards (2 workers each) over the mini app's store."""
    router = ShardRouter(build_shards(mini_app.store, shards=2, workers=2))
    router.register_app("mini", mini_app)
    router.start()
    yield router
    router.shutdown(graceful=False, timeout=5.0)


@pytest.fixture
def gateway(router2):
    gw = RcaGateway(router2).start()
    yield gw
    gw.stop(shutdown_shards=False)  # router2's fixture owns the shards


#: a ``run`` job body for :func:`full_queue_gateway` (add a ``key``)
RUN_JOB = {"kind": "run", "app": "mini", "start": 0.0, "end": 1.0}


@pytest.fixture
def full_queue_gateway(mini_app):
    """A gateway over one 1-worker / depth-1 shard whose worker parks on
    its first job: a second submit fills the queue, a third gets 429.
    ``gw.parked`` is set once the worker holds the first job — a second
    submit racing it to the queue would be the one refused."""
    parked, release = threading.Event(), threading.Event()

    class Gate:
        engine = mini_app.engine

        def find_symptoms(self, start, end, tracer=None):
            parked.set()
            assert release.wait(timeout=30.0)
            return []

    service = RcaService(store=mini_app.store, workers=1, queue_depth=1)
    service.register_app("mini", Gate())
    service.start()
    gw = RcaGateway(ShardRouter([service])).start()
    gw.parked = parked
    yield gw
    release.set()
    gw.stop()


class JsonClient:
    """One-request-per-connection JSON client against a gateway."""

    def __init__(self, gateway):
        self.host = gateway.host
        self.port = gateway.port

    def request(self, method, path, body=None):
        """Returns ``(status, headers-dict, decoded-json-or-None)``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = json.dumps(body) if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            doc = json.loads(raw) if raw else None
            return response.status, dict(response.getheaders()), doc
        finally:
            conn.close()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body):
        return self.request("POST", path, body)

    def delete(self, path):
        return self.request("DELETE", path)

    def wait_done(self, job_id, seconds=30):
        status, _, doc = self.get(f"/v1/jobs/{job_id}?wait={seconds}")
        assert status == 200
        assert doc["finished"], f"job {job_id} not finished: {doc}"
        return doc


@pytest.fixture
def client(gateway):
    return JsonClient(gateway)


@pytest.fixture
def seeded_symptoms(mini_app, seed_scene):
    """Symptom batches at the two shard-distinct routers.

    Returns ``{router_name: [EventInstance, ...]}`` with three symptoms
    (causes a / b / unexplained) per router.
    """
    times = {}
    times[SHARD1_ROUTER] = seed_scene(mini_app.store, n=3, router=SHARD1_ROUTER)
    times[SHARD0_ROUTER] = seed_scene(
        mini_app.store, n=3, router=SHARD0_ROUTER, start=50_000.0
    )
    out = {}
    for router_name, ts in times.items():
        lo, hi = ts[0] - 50.0, ts[-1] + 50.0
        out[router_name] = [
            s for s in mini_app.find_symptoms(lo, hi)
            if s.location.parts == (router_name,)
        ]
        assert len(out[router_name]) == 3
    return out
