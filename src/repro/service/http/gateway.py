"""The network-facing RCA gateway: a stdlib HTTP/JSON front end.

Everything below is standard library only (``http.server`` +
``json``) — the gateway must run wherever the repro runs, with zero
new dependencies.  :class:`RcaGateway` wraps a :class:`ShardRouter`
behind a small versioned JSON API:

============================  =====================================================
``POST   /v1/jobs``           submit a diagnosis batch or window run → ``202`` + id
``GET    /v1/jobs/{id}``      job status; ``?wait=SECONDS`` long-polls completion
``DELETE /v1/jobs/{id}``      request cooperative cancellation
``GET    /v1/apps``           registered application names
``GET    /v1/health``         aggregated shard health (``200`` ok / ``503`` degraded)
``GET    /v1/metrics``        per-shard metric snapshots + summed aggregate
``GET    /v1/incidents``      deduplicated incidents (``grca-incident/1`` documents;
                              ``?cause=``/``?location=``/``?open=``/``?flapping=1``
                              filter, ``404`` when incident tracking is off)
``GET /v1/incidents/{id}``    one incident (``?timeline=1`` for the revision log)
``GET /v1/incidents/{id}/report``  the standardized RCA report as markdown
============================  =====================================================

Every outcome is an HTTP status, and every error body is ``{"error": …}``:

* accepted job / cancellation request     → ``202``; every other success ``200``
* malformed request line, header line (no colon, no name, a blank before
  the colon, obsolete folding, control characters), body, field or
  ``Content-Length``; two different ``Content-Length`` values → ``400``
* unknown app, job id, incident or path   → ``404``
* a method the resource does not take, ``PUT`` / ``PATCH`` → ``405``
* body above :data:`MAX_BODY_BYTES`       → ``413``
* admission rejection (queue full)        → ``429`` + ``Retry-After``
* request line above :data:`MAX_LINE_BYTES` → ``414``; a header line above
  it, or more than :data:`MAX_HEADER_LINES` of them        → ``431``
* an exception that escaped a route       → ``500``
* ``Transfer-Encoding`` (only ``Content-Length`` frames a body); a method
  without a handler (``OPTIONS``, ``HEAD``, …)             → ``501``
* brownout shed, wedged shard (+ ``Retry-After``), queue closed → ``503``
* ``HTTP/2.0`` and above                  → ``505``

Request heads are read by :meth:`_GatewayHandler.parse_request`, the only
parser: what it will not interpret it refuses before reading any body byte
and closes, since what follows a request not understood is not a request.

Every response leaves through one writer, as one ``sendall``: a header
flush of its own is a second segment (``TCP_NODELAY``) and a second GIL
release, which strands the client on a body-less header block while the
worker its ``POST`` just woke runs.

Each connection is served by its own thread
(:class:`~http.server.ThreadingHTTPServer`), so a long-poll on one
job never blocks another client's submit.  Handler threads are
daemons: a hung client cannot prevent shutdown.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from ...core.serialize import instance_from_dict
from ..queue import Job, JobShed, JobState, QueueClosed, QueueFull
from .router import ShardRouter, ShardUnavailable

#: Longest honoured ``?wait=`` long-poll (seconds).  A bound, not a
#: default: clients wanting longer simply poll again — unbounded waits
#: would pin one handler thread per slow job forever.
MAX_WAIT_SECONDS = 30.0

#: Largest request body read (bytes); a longer ``Content-Length`` is a
#: ``413`` before any of it is buffered.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Longest request or header line read (bytes, line end included).
MAX_LINE_BYTES = 65536

#: Most lines a header block may run to, its blank line included.
MAX_HEADER_LINES = 100

#: Suggested client back-off on 429/503 responses (seconds).
RETRY_AFTER_SECONDS = 1

_HTTP_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})").fullmatch

#: ``name:[blanks]value[line end]``, the name visible ASCII, the value without
#: control characters but tab: what fails, some parser would fold, split or drop.
_HEADER_LINE = re.compile(r"([!-9;-~]+):[ \t]*([\t -~\xa0-\xff]*)\r?\n?").fullmatch

_DAYS = b"Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = b"Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _date_line(now: int) -> bytes:
    """The ``Date`` header line of one second (RFC 7231 IMF-fixdate)."""
    year, month, day, hour, minute, second, weekday = time.gmtime(now)[:7]
    return b"Date: %b, %02d %b %04d %02d:%02d:%02d GMT\r\n" % (
        _DAYS[weekday], day, _MONTHS[month - 1], year, hour, minute, second
    )  # fmt: skip


class RequestHeaders(dict):
    """Lower-cased name → its first value; ``get`` takes any spelling."""

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return super().get(name.lower(), default)


class ApiError(Exception):
    """An error with a definite HTTP mapping."""

    def __init__(
        self, status: int, message: str, retry_after: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def job_document(job_id: str, job: Job) -> Dict[str, Any]:
    """The JSON representation of one job's current state.

    Terminal jobs embed their outcome: diagnoses (as portable
    ``Diagnosis.to_json`` documents) on ``DONE``, the error string
    otherwise.  Non-terminal jobs carry only identity and state, so
    polling is cheap.
    """
    doc: Dict[str, Any] = {
        "job_id": job_id,
        "kind": job.kind,
        "app": job.app,
        "state": job.state.value,
        "priority": job.priority,
        "attempts": job.attempts,
        "finished": job.finished,
    }
    if not job.finished:
        return doc
    if job.state is JobState.DONE:
        doc["diagnoses"] = [d.to_json() for d in (job.result or [])]
    elif job.error is not None:
        doc["error"] = {
            "type": type(job.error).__name__,
            "message": str(job.error),
        }
    return doc


class _GatewayHandler(BaseHTTPRequestHandler):
    """Routes one HTTP connection's requests onto the shard router.

    Stateless: everything lives on ``self.server`` (the gateway's
    ``ThreadingHTTPServer`` subclass carries the router).
    """

    protocol_version = "HTTP/1.1"  # keep-alive: load generators reuse sockets
    server_version = "grca-gateway/1"
    # without TCP_NODELAY, Nagle + delayed ACK adds ~40 ms to every
    # keep-alive request/response turn — fatal for a polling API
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        return self.server.router  # type: ignore[attr-defined]

    def parse_request(self) -> bool:
        """Read one request head off ``rfile`` in one pass (``False``: refused),
        leaving what the stdlib parser leaves (``tests/oracles/test_http_head.py``
        compares them) — but ``HTTP/0.9``, which only EOF ends, always closes."""
        self.request_version = ""  # until accepted: refusals get a status line
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False  # a blank line: nothing to answer
        version, keep_alive = "HTTP/0.9", False
        if len(words) >= 3:
            version = words[-1]
            match = _HTTP_VERSION(version)
            if match is None:
                return self.send_error(400, f"Bad request version ({version!r})")
            number = int(match[1]), int(match[2])
            if number >= (2, 0):
                return self.send_error(505, f"Invalid HTTP version ({version})")
            keep_alive = number >= (1, 1)
        if not 2 <= len(words) <= 3 or (len(words) == 2 and words[0] != "GET"):
            return self.send_error(400, f"Bad request line ({self.requestline!r})")
        self.command, path = words[:2]
        # a leading // is a path, never an authority (gh-87389)
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.headers = fields = RequestHeaders()
        readline = self.rfile.readline
        for _ in range(MAX_HEADER_LINES):
            line = readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                return self.send_error(431, "Header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            match = _HEADER_LINE(str(line, "iso-8859-1"))
            if match is None:
                return self.send_error(400, "Malformed header line")
            name, value = match[1].lower(), match[2]
            if fields.setdefault(name, value) != value and name == "content-length":
                return self.send_error(400, "Conflicting Content-Length headers")
        else:
            return self.send_error(431, "Too many header lines")
        if "transfer-encoding" in fields:
            return self.send_error(501, "Transfer-Encoding is not supported")
        self.request_version = version
        connection = fields.get("connection", "").lower()
        if connection != "close" and version != "HTTP/0.9":
            self.close_connection = not (keep_alive or connection == "keep-alive")
        if fields.get("expect", "").lower() == "100-continue" and version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> bool:
        """Every refusal — this parser's, ``handle_one_request``'s ``414`` and
        unknown-method ``501`` — leaves as JSON through the one writer and
        closes the connection.  ``False``: what ``parse_request`` then says."""
        self.close_connection = True
        self._send_json(code, {"error": message or HTTPStatus(code).phrase})
        return False

    def _send(
        self, status: int, content_type: bytes, body: bytes,
        retry_after: Optional[int] = None,
    ) -> None:  # fmt: skip
        """The one response writer: one ``sendall`` per response."""
        if self.request_version == "HTTP/0.9":  # has no header block
            self.wfile.write(body)
            return
        now = int(time.time())
        stamp = self.server.date_stamp  # type: ignore[attr-defined]
        if stamp[0] != now:  # threads racing here format the same line
            stamp = self.server.date_stamp = (now, _date_line(now))  # type: ignore
        retry = b"" if retry_after is None else b"Retry-After: %d\r\n" % retry_after
        self.wfile.write(b"".join((
            _STATUS_HEADS[status], stamp[1], b"Content-Type: ", content_type,
            b"\r\nContent-Length: %d\r\n" % len(body), retry, b"\r\n", body,
        )))  # fmt: skip

    def _send_json(
        self, status: int, payload: Dict[str, Any], retry_after: Optional[int] = None
    ) -> None:
        body = json.dumps(payload).encode()
        self._send(status, b"application/json", body, retry_after)

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # the body is left undrained: no further request can follow
            self.close_connection = True
            if length < 0:
                raise ApiError(400, "invalid Content-Length header")
            raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ApiError(400, "request body required")
        try:
            body = json.loads(raw)
        except ValueError:
            raise ApiError(400, "request body is not valid JSON")
        if not isinstance(body, dict):
            raise ApiError(400, "request body must be a JSON object")
        return body

    def _dispatch(self) -> None:
        path, _, query = self.path.partition("?")
        segments = [part for part in path.split("/") if part]
        try:
            self._route(self.command, segments, parse_qs(query) if query else {})
        except ApiError as exc:
            self._send_json(exc.status, {"error": str(exc)}, exc.retry_after)
        except Exception as exc:  # a handler bug must not kill keep-alive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    do_GET = do_POST = do_DELETE = _dispatch  # noqa: N815 (http.server naming)

    def _reject_verb(self) -> None:
        """``405`` for verbs no route accepts (without a ``do_*`` they
        would be a ``501``); the body, if any, is left undrained."""
        self.send_error(405, f"unsupported: {self.command} {self.path}")

    do_PUT = do_PATCH = _reject_verb  # noqa: N815

    # -- routing -------------------------------------------------------

    def _route(self, method: str, segments: list, query: dict) -> None:
        if len(segments) < 2 or segments[0] != "v1":
            raise ApiError(404, f"no such resource: {self.path}")
        resource = segments[1]
        if resource == "jobs":
            if len(segments) == 2 and method == "POST":
                return self._submit()
            if len(segments) == 3:
                if method == "GET":
                    return self._job_status(segments[2], query)
                if method == "DELETE":
                    return self._cancel(segments[2])
            raise ApiError(
                405 if len(segments) in (2, 3) else 404,
                f"unsupported: {method} {self.path}",
            )
        if method != "GET":
            raise ApiError(405, f"unsupported: {method} {self.path}")
        if resource == "apps" and len(segments) == 2:
            return self._send_json(200, {"apps": self.router.apps()})
        if resource == "health" and len(segments) == 2:
            health = self.router.health()
            status = 200 if health["status"] == "ok" else 503
            return self._send_json(status, health)
        if resource == "metrics" and len(segments) == 2:
            return self._send_json(200, self.router.metrics())
        if resource == "incidents":
            if len(segments) == 2:
                return self._incident_list(query)
            if len(segments) == 3:
                return self._incident_show(segments[2], query)
            if len(segments) == 4 and segments[3] == "report":
                return self._incident_report(segments[2])
        raise ApiError(404, f"no such resource: {self.path}")

    # -- endpoints -----------------------------------------------------

    def _submit(self) -> None:
        body = self._read_body()
        kind = body.get("kind", "diagnose")
        app = body.get("app")
        if not isinstance(app, str) or not app:
            raise ApiError(400, "field 'app' (string) is required")
        options: Dict[str, Any] = {}
        if "priority" in body:
            options["priority"] = _expect_int(body, "priority")
        if "deadline" in body:
            options["deadline"] = _expect_number(body, "deadline")
        routing_key = body.get("key")
        if routing_key is not None and not isinstance(routing_key, str):
            raise ApiError(400, "field 'key' must be a string when present")
        try:
            if kind == "diagnose":
                symptoms = body.get("symptoms")
                if not isinstance(symptoms, list) or not symptoms:
                    raise ApiError(
                        400, "field 'symptoms' (non-empty list) is required"
                    )
                try:
                    instances = [instance_from_dict(s) for s in symptoms]
                except (KeyError, TypeError, ValueError) as exc:
                    raise ApiError(400, f"malformed symptom: {exc}")
                job_id, job = self.router.submit_diagnosis(
                    app, instances, key=routing_key, **options
                )
            elif kind == "run":
                start = _expect_number(body, "start")
                end = _expect_number(body, "end")
                job_id, job = self.router.submit_run(
                    app, start, end, key=routing_key, **options
                )
            else:
                raise ApiError(400, f"unknown job kind {kind!r}")
        except KeyError as exc:
            # unknown application: the router's shards raise KeyError
            raise ApiError(404, str(exc.args[0] if exc.args else exc))
        except JobShed as exc:
            raise ApiError(503, str(exc), retry_after=RETRY_AFTER_SECONDS)
        except QueueFull as exc:
            raise ApiError(429, str(exc), retry_after=RETRY_AFTER_SECONDS)
        except QueueClosed as exc:
            raise ApiError(503, str(exc))
        except ShardUnavailable as exc:
            raise ApiError(503, str(exc), retry_after=RETRY_AFTER_SECONDS)
        self._send_json(
            202,
            {
                "job_id": job_id,
                "state": job.state.value,
                "shard": self.router.resolve(job_id)[0],
            },
        )

    def _job_status(self, job_id: str, query: dict) -> None:
        job = self._find(job_id)
        wait = query.get("wait")
        if wait:
            try:
                seconds = float(wait[0])
            except ValueError:
                raise ApiError(400, f"invalid wait value {wait[0]!r}")
            # bounded long-poll; returns the current state either way —
            # a 200 after `wait` does NOT imply terminal
            job.wait(timeout=max(0.0, min(seconds, MAX_WAIT_SECONDS)))
        self._send_json(200, job_document(job_id, job))

    def _cancel(self, job_id: str) -> None:
        self._find(job_id)  # 404 before touching cancel semantics
        try:
            requested = self.router.cancel(job_id)
        except KeyError as exc:
            raise ApiError(404, str(exc.args[0] if exc.args else exc))
        job = self._find(job_id)
        doc = job_document(job_id, job)
        doc["cancel_requested"] = requested
        # 202: cancellation is a request (cooperative); 409 would be
        # wrong for already-terminal jobs — the document says why
        self._send_json(202, doc)

    def _find(self, job_id: str) -> Job:
        try:
            return self.router.job(job_id)
        except KeyError as exc:
            raise ApiError(404, str(exc.args[0] if exc.args else exc))

    # -- incident endpoints --------------------------------------------

    def _incident_store(self):
        store = getattr(self.router, "incidents", None)
        if store is None:
            raise ApiError(
                404,
                "incident tracking is not enabled on this deployment "
                "(serve with incidents=True)",
            )
        return store

    def _incident_list(self, query: dict) -> None:
        store = self._incident_store()
        cause = query.get("cause", [None])[0]
        location = query.get("location", [None])[0]
        # the stored grca-incident/1 documents, served as stored
        documents = store.documents(cause=cause, location=location)
        if query.get("open"):
            want = query["open"][0] not in ("0", "false", "no")
            documents = [d for d in documents if d["open"] == want]
        if query.get("flapping"):
            documents = [d for d in documents if d["flap_count"] > 1]
        self._send_json(200, {"count": len(documents), "incidents": documents})

    def _incident_show(self, incident_id: str, query: dict) -> None:
        store = self._incident_store()
        try:
            if query.get("timeline"):
                body = {
                    "incident_id": incident_id,
                    "revisions": store.timeline_documents(incident_id),
                }
            else:
                body = store.document(incident_id)
        except KeyError:
            raise ApiError(404, f"no such incident: {incident_id}")
        self._send_json(200, body)

    def _incident_report(self, incident_id: str) -> None:
        from ...incident.report import render_incident_report

        store = self._incident_store()
        try:
            incident = store.get(incident_id)
        except KeyError:
            raise ApiError(404, f"no such incident: {incident_id}")
        body = render_incident_report(
            incident, related=store.incidents(cause=incident.cause)
        ).encode()
        self._send(200, b"text/markdown; charset=utf-8", body)


#: Status line + ``Server`` line of every status, ready to send.
_STATUS_HEADS = {
    s.value: "{0.protocol_version} {1.value} {1.phrase}\r\nServer: {0.server_version} "
    "{0.sys_version}\r\n".format(_GatewayHandler, s).encode()
    for s in HTTPStatus
}


def _expect_int(body: Dict[str, Any], field: str) -> int:
    value = body[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(400, f"field {field!r} must be an integer")
    return value


def _expect_number(body: Dict[str, Any], field: str) -> float:
    if field not in body:
        raise ApiError(400, f"field {field!r} (number) is required")
    value = body[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ApiError(400, f"field {field!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    # json.loads reads NaN and Infinity: a NaN deadline would never
    # expire, since every comparison with it is false
    if not math.isfinite(number):
        raise ApiError(400, f"field {field!r} must be a finite number")
    return number


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True  # a hung client never blocks process exit
    allow_reuse_address = True
    # http.server's default accept backlog is 5; a submit burst beyond
    # that would surface as kernel TCP resets instead of clean 429s.
    # Overload belongs in the HTTP status, not the SYN queue.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], router: ShardRouter) -> None:
        super().__init__(address, _GatewayHandler)
        self.router = router
        #: ``(second, its Date header line)``: formatted once a second
        self.date_stamp: Tuple[int, bytes] = (0, b"")


class RcaGateway:
    """The HTTP server lifecycle around one :class:`ShardRouter`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after :meth:`start`) — what tests and the CI smoke
    job use to avoid collisions.
    """

    def __init__(
        self, router: ShardRouter, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.router = router
        self._server = _GatewayServer((host, port), router)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RcaGateway":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="rca-gateway",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, shutdown_shards: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting connections; optionally shut the shards down."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if shutdown_shards:
            self.router.shutdown(timeout=timeout)

    def __enter__(self) -> "RcaGateway":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
