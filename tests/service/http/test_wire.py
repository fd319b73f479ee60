"""What the gateway puts on the wire: one write per response, a total
``Content-Length`` parse, and incident listings served as stored."""

import http.client
import itertools
import json
import socket

import pytest

from repro.core.serialize import instance_to_dict
from repro.incident import IncidentAggregator, IncidentStore
from repro.service.http import gateway as gateway_module

from ...incident.conftest import diagnosis
from ...oracles.incident_store import ScanIncidentStore
from .conftest import RUN_JOB, SHARD1_ROUTER

GAP = 600.0


class CountingSocket:
    """A server-side connection that logs the size of every ``sendall``."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def sendall(self, data, *flags):
        self._writes.append(len(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def count_writes(gateway):
    """Every accepted connection's ``sendall`` sizes, in one list."""
    writes = []
    accept = gateway._server.get_request

    def get_request():
        sock, address = accept()
        return CountingSocket(sock, writes), address

    gateway._server.get_request = get_request
    return writes


def exchange(conn, method, path, body=None):
    """One request on a kept-alive connection: status, headers, raw body."""
    conn.request(method, path, body=json.dumps(body) if body is not None else None)
    response = conn.getresponse()
    return response.status, response.headers, response.read()


@pytest.fixture
def incident_store():
    """A few hundred incidents (a listing of several hundred KB), some
    flapping, some closed, over three causes."""
    store = IncidentStore()
    aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
    causes = ("Interface flap", "CPU high (spike)", None)
    for n in range(300):
        cause = causes[n % 3]
        for flap in range(1 + n % 2):
            aggregator.observe(
                diagnosis(cause=cause, router=f"r{n}", t=1000.0 + 60.0 * flap)
            )
    aggregator.advance(1000.0 + GAP + 1.0)
    aggregator.observe(diagnosis(router="r0", t=1000.0 + 3 * GAP))  # one open
    return store


class TestOneWritePerResponse:
    def test_every_route_kind_over_one_kept_alive_connection(
        self, gateway, router2, seeded_symptoms, incident_store
    ):
        router2.incidents = incident_store
        some_id = incident_store.incidents(cause="Interface flap")[0].incident_id
        writes = count_writes(gateway)
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        submit = {
            "kind": "diagnose",
            "app": "mini",
            "symptoms": [
                instance_to_dict(s) for s in seeded_symptoms[SHARD1_ROUTER]
            ],
        }
        try:
            status, _h, raw = exchange(conn, "POST", "/v1/jobs", submit)
            assert status == 202
            job_id = json.loads(raw)["job_id"]
            turns = [
                ("GET", f"/v1/jobs/{job_id}?wait=30", 200, "application/json"),
                ("GET", "/v1/incidents", 200, "application/json"),
                ("GET", "/v1/jobs/no-such-job", 404, "application/json"),
                ("GET", f"/v1/incidents/{some_id}/report", 200, "text/markdown"),
                ("DELETE", "/v1/apps", 405, "application/json"),
                ("PUT", "/v1/apps", 405, "application/json"),  # closes: last
            ]
            sizes = {}
            for served, (method, path, want, content_type) in enumerate(turns, 2):
                status, headers, raw = exchange(conn, method, path)
                assert status == want, (method, path, raw)
                assert headers["Content-Type"].startswith(content_type)
                assert int(headers["Content-Length"]) == len(raw)
                assert len(writes) == served, (method, path, writes)
                assert writes[-1] > len(raw)  # the header block rode along
                sizes[path] = len(raw)
            assert sizes["/v1/incidents"] > 300_000
        finally:
            conn.close()

    def test_429_with_retry_after(self, full_queue_gateway):
        writes = count_writes(full_queue_gateway)
        conn = http.client.HTTPConnection(
            full_queue_gateway.host, full_queue_gateway.port, timeout=30
        )
        try:
            statuses = []
            for key in ("k1", "k2", "k3"):
                status, headers, _raw = exchange(
                    conn, "POST", "/v1/jobs", dict(RUN_JOB, key=key)
                )
                statuses.append(status)
            assert statuses == [202, 202, 429]
            assert headers["Retry-After"] == "1"
            assert len(writes) == 3
        finally:
            conn.close()


def raw_exchange(gateway, request: bytes):
    """Send raw bytes, read until the server closes: ``(status, body)``.

    Totality is the point of every raw-socket case, so a ``500`` — an
    exception that escaped a route — fails here, whatever the caller
    goes on to assert.
    """
    with socket.create_connection((gateway.host, gateway.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    assert status != 500, body
    return status, body


class TestContentLengthIsTotal:
    @pytest.mark.parametrize(
        "length, want",
        [
            ("abc", 400),
            ("-5", 400),
            ("1e3", 400),
            ("99999999999", 413),
            (str(gateway_module.MAX_BODY_BYTES + 1), 413),
        ],
    )
    def test_bad_lengths_get_their_4xx_and_the_connection_closes(
        self, gateway, length, want
    ):
        # recv() reaching EOF is the proof the connection closed: the
        # request asks for keep-alive and its body is never sent
        status, body = raw_exchange(
            gateway,
            f"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n"
            .encode(),
        )
        assert status == want
        assert "error" in json.loads(body)

    def test_the_limit_itself_is_still_read(self, gateway, monkeypatch):
        monkeypatch.setattr(gateway_module, "MAX_BODY_BYTES", 16)
        body = b'{"app": "mini" }'
        assert len(body) == 16
        status, raw = raw_exchange(
            gateway,
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            b"Content-Length: 16\r\n\r\n" + body,
        )
        assert status == 400 and b"symptoms" in raw  # parsed, then judged

    def test_http_09_gets_a_bare_body(self, gateway):
        with socket.create_connection((gateway.host, gateway.port), timeout=10) as s:
            s.sendall(b"GET /v1/apps\r\n\r\n")
            assert json.loads(s.makefile("rb").read()) == {"apps": ["mini"]}


class TestIncidentsServedAsStored:
    def test_listing_bytes_equal_decode_then_encode(
        self, gateway, router2, incident_store
    ):
        router2.incidents = incident_store
        reference = ScanIncidentStore(incident_store.backend)
        causes = (None, "Interface flap", "Unknown (no evidence found)", "nope")
        locations = (None, "router[r0]", "router[r1]", "router[nowhere]")
        opens = (None, "1", "0", "false", "yes")
        flappings = (None, "1")
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            for cause, location, open_, flapping in itertools.product(
                causes, locations, opens, flappings
            ):
                query = {
                    "cause": cause, "location": location,
                    "open": open_, "flapping": flapping,
                }
                path = "/v1/incidents?" + "&".join(
                    f"{k}={v.replace(' ', '%20')}"
                    for k, v in query.items() if v is not None
                )
                # the route as it was: decode every latest revision,
                # filter the Incidents, encode them again
                incidents = reference.incidents(cause=cause, location=location)
                if open_:
                    want = open_ not in ("0", "false", "no")
                    incidents = [i for i in incidents if i.open == want]
                if flapping:
                    incidents = [i for i in incidents if i.flap_count > 1]
                expected = json.dumps(
                    {
                        "count": len(incidents),
                        "incidents": [i.to_json() for i in incidents],
                    }
                ).encode()
                status, _headers, raw = exchange(conn, "GET", path)
                assert status == 200
                assert raw == expected, path
        finally:
            conn.close()

    def test_show_timeline_and_report_match_the_scan(
        self, gateway, router2, incident_store
    ):
        from repro.incident.report import render_incident_report

        router2.incidents = incident_store
        reference = ScanIncidentStore(incident_store.backend)
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            for incident in reference.incidents(location="router[r0]"):
                base = f"/v1/incidents/{incident.incident_id}"
                assert exchange(conn, "GET", base)[2] == json.dumps(
                    incident.to_json()
                ).encode()
                report = render_incident_report(
                    incident, related=reference.incidents(cause=incident.cause)
                )
                assert exchange(conn, "GET", base + "/report")[2] == report.encode()
        finally:
            conn.close()
