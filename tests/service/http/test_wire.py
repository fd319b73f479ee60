"""What the gateway puts on the wire: one write per response with the
response head ``http.server`` would have framed, a total ``Content-Length``
parse, one response then EOF for every framing it refuses, JSON for every
error, and incident listings served as stored."""

import email.utils
import http.client
import io
import itertools
import json
import socket
import time
from http.server import BaseHTTPRequestHandler

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
                assert full_queue_gateway.parked.wait(timeout=10.0)
            assert statuses == [202, 202, 429]
            assert headers["Retry-After"] == "1"
            assert len(writes) == 3
        finally:
            conn.close()


def read_to_eof(sock) -> bytes:
    """Everything the server sends until it closes.  A reset counts as the
    close it is: the server hung up on request bytes it had not read."""
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    return b"".join(chunks)


def split_responses(stream: bytes):
    """``[(status, head lines, body)]`` of a byte stream of responses, each
    framed by its ``Content-Length``; nothing may be left over.

    Totality is the point of every raw-socket case, so a ``500`` — an
    exception that escaped a route — fails here, whatever the caller
    goes on to assert.
    """
    responses = []
    while stream:
        head, separator, stream = stream.partition(b"\r\n\r\n")
        assert separator, head
        lines = head.split(b"\r\n")
        version, status, _phrase = lines[0].split(b" ", 2)
        assert version == b"HTTP/1.1"
        assert int(status) != 500, stream
        fields = dict(line.split(b": ", 1) for line in lines[1:])
        length = int(fields[b"Content-Length"])
        assert len(stream) >= length, (lines, stream)
        responses.append((int(status), lines, stream[:length]))
        stream = stream[length:]
    return responses


def raw_responses(gateway, *segments: bytes):
    """Send each segment with its own ``send``, read until the server
    closes: every response it made."""
    with socket.create_connection((gateway.host, gateway.port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for segment in segments:
                sock.sendall(segment)
        except (BrokenPipeError, ConnectionResetError):
            pass  # refused and closed before the last byte was sent
        return split_responses(read_to_eof(sock))


def raw_exchange(gateway, request: bytes):
    """One request, exactly one response, then EOF: ``(status, body)``."""
    [(status, _lines, body)] = raw_responses(gateway, request)
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


APPS = b'{"apps": ["mini"]}'


class TestRefusedFramingsEndTheConnection:
    """A request whose length the gateway will not guess at gets one JSON
    refusal and EOF — its body bytes are never read as the next request."""

    def test_chunked_body_is_not_parsed_as_requests(self, gateway):
        status, body = raw_exchange(
            gateway,
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
        )
        assert status == 501
        assert "Transfer-Encoding" in json.loads(body)["error"]

    def test_conflicting_lengths_do_not_smuggle_a_request(self, gateway):
        status, body = raw_exchange(
            gateway,
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n"
            b"Content-Length: 26\r\n\r\n{}GET /v1/apps HTTP/1.1\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]

    def test_equal_repeated_lengths_are_one_length(self, gateway):
        responses = raw_responses(
            gateway,
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n"
            b"content-length:  2\r\n\r\n{}"
            b"GET /v1/apps HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert [status for status, _lines, _body in responses] == [400, 200]
        assert b"'app'" in responses[0][2] and responses[1][2] == APPS


REFUSALS = {
    "one-word": (b"GARBAGE\r\n\r\n", 400),
    "http09-post": (b"POST /v1/jobs\r\n\r\n", 400),
    "four-words": (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
    "bad-version": (b"GET / HTTP/one.one\r\n\r\n", 400),
    "no-colon": (b"GET /v1/apps HTTP/1.1\r\nno colon here\r\n\r\n", 400),
    "folded-line": (b"GET /v1/apps HTTP/1.1\r\nHost: t\r\n folded\r\n\r\n", 400),
    "blank-before-colon": (b"GET /v1/apps HTTP/1.1\r\nHost : t\r\n\r\n", 400),
    "put": (b"PUT /v1/apps HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 405),
    "patch": (b"PATCH /v1/jobs/1.1 HTTP/1.1\r\n\r\n", 405),
    "long-request-line": (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
    "long-header-line": (
        b"GET /v1/apps HTTP/1.1\r\nX: " + b"v" * 65532 + b"\r\n\r\n", 431
    ),
    "101-header-lines": (
        b"GET /v1/apps HTTP/1.1\r\n" + b"X: 1\r\n" * 100 + b"\r\n", 431
    ),
    "options": (b"OPTIONS /v1/apps HTTP/1.1\r\n\r\n", 501),
    "head": (b"HEAD /v1/apps HTTP/1.1\r\n\r\n", 501),
    "http2": (b"GET / HTTP/2.0\r\n\r\n", 505),
}  # fmt: skip


class TestEveryErrorIsJson:
    @pytest.mark.parametrize("case", REFUSALS)
    def test_one_json_write_then_eof(self, gateway, case):
        request_bytes, want = REFUSALS[case]
        # every request here asks for keep-alive: EOF is the gateway's doing
        writes = count_writes(gateway)
        [(status, lines, body)] = raw_responses(gateway, request_bytes)
        assert status == want
        assert b"Content-Type: application/json" in lines
        assert set(json.loads(body)) == {"error"}
        assert writes == [len(b"\r\n".join(lines)) + 4 + len(body)]


def stdlib_response_head(status, content_type, length, retry_after=None) -> bytes:
    """The head ``http.server``'s own idiom frames: ``send_response``, a
    ``send_header`` per field, ``end_headers``."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = gateway_module._GatewayHandler.protocol_version
        server_version = gateway_module._GatewayHandler.server_version

        def __init__(self):  # no socket
            self.wfile, self.request_version = io.BytesIO(), "HTTP/1.1"

        def log_request(self, code="-", size="-"):
            pass

    handler = Handler()
    handler.send_response(status)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(length))
    if retry_after is not None:
        handler.send_header("Retry-After", str(retry_after))
    handler.end_headers()
    return handler.wfile.getvalue()


def assert_stdlib_head(lines, status, content_type, length, retry_after=None):
    """``lines`` is that head, give or take the clock."""
    expected = stdlib_response_head(status, content_type, length, retry_after)
    expected = expected[:-4].split(b"\r\n")
    names = [line.split(b":")[0] for line in lines[1:]]
    assert names[:4] == [b"Server", b"Date", b"Content-Type", b"Content-Length"]
    assert names[4:] == ([] if retry_after is None else [b"Retry-After"])
    assert lines[:2] + lines[3:] == expected[:2] + expected[3:]
    sent = email.utils.parsedate_to_datetime(lines[2][len("Date: "):].decode())
    assert lines[2] == b"Date: " + email.utils.format_datetime(sent, usegmt=True).encode()
    assert abs(sent.timestamp() - time.time()) <= 1.5  # whole seconds, sent just now


class TestRequestsOffTheWire:
    def test_pipelined_requests_are_answered_in_order(self, gateway):
        writes = count_writes(gateway)
        responses = raw_responses(
            gateway,
            b"GET /v1/apps HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /v1/jobs/no-such-job?wait=0 HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /v1/apps HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        assert [status for status, _lines, _body in responses] == [200, 404, 200]
        assert responses[0][2] == responses[2][2] == APPS
        assert len(writes) == 3  # one connection, one write each
        for status, lines, body in responses:
            assert_stdlib_head(lines, status, "application/json", len(body))

    def test_a_head_dribbled_one_byte_per_send(self, gateway):
        request = b"GET /v1/apps HTTP/1.1\r\nHost: t\r\nConnection:  Close\r\n\r\n"
        segments = [request[k : k + 1] for k in range(len(request))]
        [(status, _lines, body)] = raw_responses(gateway, *segments)
        assert (status, body) == (200, APPS)

    def test_http_10_closes_unless_asked_to_keep_alive(self, gateway):
        responses = raw_responses(
            gateway,
            b"GET /v1/apps HTTP/1.0\r\n\r\nGET /v1/apps HTTP/1.0\r\n\r\n",
        )
        assert [status for status, _lines, _body in responses] == [200]
        responses = raw_responses(
            gateway,
            b"GET /v1/apps HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
            b"GET /v1/apps HTTP/1.0\r\n\r\nGET /v1/apps HTTP/1.0\r\n\r\n",
        )
        assert [status for status, _lines, _body in responses] == [200, 200]

    def test_expect_100_continue_is_honoured_before_the_body(self, gateway):
        body = json.dumps(RUN_JOB).encode()
        with socket.create_connection((gateway.host, gateway.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                b"Expect: 100-Continue\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            interim = b"HTTP/1.1 100 Continue\r\n\r\n"
            assert sock.recv(len(interim)) == interim  # nothing else: no body yet
            sock.sendall(body)
            [(status, _lines, raw)] = split_responses(read_to_eof(sock))
        assert status == 202 and json.loads(raw)["state"]

    def test_429_head_carries_retry_after_last(self, full_queue_gateway):
        request = json.dumps(dict(RUN_JOB, key="k")).encode()
        request = (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(request)
            + request
        )
        address = full_queue_gateway.host, full_queue_gateway.port
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(request)
            assert full_queue_gateway.parked.wait(timeout=10.0)
            sock.sendall(request * 2 + b"GET / HTTP/1.0\r\n\r\n")
            responses = split_responses(read_to_eof(sock))
        assert [status for status, _lines, _body in responses] == [202, 202, 429, 404]
        status, lines, body = responses[2]
        assert_stdlib_head(lines, 429, "application/json", len(body), retry_after=1)


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
