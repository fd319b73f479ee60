"""An HTTP request head as the standard library reads it: the reference
for ``_GatewayHandler.parse_request``.

The gateway used to inherit ``BaseHTTPRequestHandler.parse_request`` —
request line by hand, header block through ``http.client.parse_headers``
and ``email.parser`` into a MIME ``Message``.  This drives that parser
over bytes instead of a socket and reports what it left behind, so the
gateway's one-pass parser can be held to the same answers.
"""

import io
from http.server import BaseHTTPRequestHandler
from typing import Any, NamedTuple, Optional


class Head(NamedTuple):
    """What a parser made of one request head: an error ``status``, or
    the five things the handler goes on to read."""

    status: Optional[int]
    command: Optional[str] = None
    path: Optional[str] = None
    request_version: Optional[str] = None
    close_connection: Optional[bool] = None
    headers: Any = None  # anything with a ``get(name)``
    consumed: int = 0  # bytes read off the connection: the head, no more
    interim: bytes = b""  # written before any response (``100 Continue``)


def read_head(handler: BaseHTTPRequestHandler, data: bytes) -> bool:
    """``handle_one_request`` up to the dispatch, over ``data``: read the
    request line (``414`` when it is too long), then ``parse_request``."""
    handler.rfile, handler.wfile = io.BytesIO(data), io.BytesIO()
    handler.raw_requestline = handler.rfile.readline(65537)
    if len(handler.raw_requestline) > 65536:
        handler.requestline = handler.request_version = handler.command = ""
        handler.send_error(414)
        return False
    return handler.parse_request()


def accepted(handler: BaseHTTPRequestHandler) -> Head:
    return Head(
        None,
        handler.command,
        handler.path,
        handler.request_version,
        handler.close_connection,
        handler.headers,
        handler.rfile.tell(),
        handler.wfile.getvalue(),
    )


class _StdlibHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # as the gateway's

    def __init__(self) -> None:  # no socket, no server
        self.status: Optional[int] = None

    def send_error(self, code, message=None, explain=None) -> None:
        self.status = int(code)


def stdlib_head(data: bytes) -> Head:
    handler = _StdlibHandler()
    if read_head(handler, data):
        return accepted(handler)
    return Head(handler.status)  # ``None``: a blank request line, no answer
