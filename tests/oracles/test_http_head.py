"""The gateway's request-head parser ≡ the standard library's.

Heads are generated line by line, so each example knows which of the
gateway's *named divergences* it contains — the framings and header lines
the gateway refuses where the stdlib parser guesses:

==============================  ======  ======================================
divergence                      status  what the stdlib parser does instead
==============================  ======  ======================================
``malformed-line`` (no colon,   400     ``email`` stops reading headers there
no name, a blank before the             (or skips, folds or splits the line):
colon, an obsolete folded line,         later fields silently vanish
a control character)
``transfer-encoding``           501     ignores it; the chunks are parsed as
                                        the next request
``conflicting-content-length``  400     first wins; the surplus body bytes are
                                        the next request
``http09-keep-alive``           —       keeps a connection open whose response
                                        only EOF can end; the gateway closes
==============================  ======  ======================================

Everything else — the five things the handler reads (``command``,
``path``, ``request_version``, ``close_connection``, ``headers.get`` under
every spelling of every name), the bytes consumed, the interim
``100 Continue``, or the error status — must be equal.
"""

import json
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.http import gateway as gateway_module

from .http_head import Head, accepted, read_head, stdlib_head

DIVERGENCE_STATUS = {
    "malformed-line": 400,
    "transfer-encoding": 501,
    "conflicting-content-length": 400,
}


def gateway_head(data: bytes) -> Head:
    handler = object.__new__(gateway_module._GatewayHandler)  # no socket
    handler.server = types.SimpleNamespace(date_stamp=(0, b""))
    if read_head(handler, data):
        return accepted(handler)
    response = handler.wfile.getvalue()
    if not response:
        return Head(None)
    # a refusal is one whole JSON response with a status line, and closes
    head, _, body = response.partition(b"\r\n\r\n")
    version, status, _phrase = head.split(b"\r\n")[0].split(b" ", 2)
    assert version == b"HTTP/1.1" and handler.close_connection
    assert b"Content-Length: %d\r\n" % len(body) in head + b"\r\n"
    assert set(json.loads(body)) == {"error"}
    return Head(int(status))


def spellings(name: str):
    return {name, name.lower(), name.upper(), name.title(), name.swapcase()}


def assert_same_head(data: bytes, names=(), divergences=frozenset()):
    ours, reference = gateway_head(data), stdlib_head(data)
    refusals = divergences - {"http09-keep-alive"}
    if refusals:
        allowed = {DIVERGENCE_STATUS[d] for d in refusals}
        if reference.status is not None:  # whichever error comes first
            allowed.add(reference.status)
        assert ours.status in allowed, (ours, reference)
        return
    if reference.status is None and reference.command is not None:
        for name in names:
            for spelling in spellings(name):
                assert ours.headers.get(spelling) == reference.headers.get(
                    spelling
                ), spelling
        assert ours.headers.get("no-such-field") is None
        assert ours.headers.get("no-such-field", "x") == "x"
        if "http09-keep-alive" in divergences:
            assert ours.close_connection is True
            reference = reference._replace(close_connection=True)
        ours = ours._replace(headers=None)
        reference = reference._replace(headers=None)
    assert ours == reference


# -- deterministic cases: each stated mutation of the parser fails one ----

GET = b"GET /v1/apps HTTP/1.1\r\n"


SAME = {
    "plain": (GET + b"Host: t\r\n\r\n", ["Host"]),
    "first-duplicate-wins": (GET + b"X-A: 1\r\nx-a: 2\r\nX-a:3\r\n\r\n", ["X-A"]),
    "connection-close": (GET + b"Connection: close\r\n\r\n", ["Connection"]),
    "close-then-keep-alive": (
        GET + b"Connection: CLOSE\r\nConnection: keep-alive\r\n\r\n", []
    ),
    "http10-closes": (b"GET / HTTP/1.0\r\n\r\n", []),
    "http10-keep-alive": (
        b"GET / HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n", ["Connection"]
    ),
    "expect-100": (b"GET / HTTP/1.10\r\nExpect: 100-Continue\r\n\r\nbody", ["Expect"]),
    "http10-expect-ignored": (b"POST / HTTP/1.0\r\nExpect: 100-continue\r\n\r\n", []),
    "double-slash-bare-lf": (b"GET //v1//apps?x=//#f HTTP/1.1\n\n", []),
    "http09": (b"GET /\r\n\r\n", []),
    "http09-with-headers": (b"GET /\r\nHost: t\r\n\r\nrest", ["Host"]),
    "http09-is-get-only": (b"POST /\r\n\r\n", []),
    "one-word": (b"GARBAGE\r\n\r\n", []),
    "blank-request-line": (b"\r\n", []),  # nothing to answer
    "http2": (b"GET / HTTP/2.0\r\n\r\n", []),
    "505-before-word-count": (b"GET / HTTP/3.1 extra\r\n\r\n", []),
    "three-part-version": (b"GET / HTTP/1.1.1\r\n\r\n", []),
    "lower-case-version": (b"GET / http/1.1\r\n\r\n", []),
    "four-words": (b"GET / extra HTTP/1.1\r\n\r\n", []),
    "414": (b"GET /" + b"a" * 65530 + b" HTTP/1.1\r\n\r\n", []),
    "line-of-65536": (GET + b"X: " + b"v" * 65531 + b"\r\n\r\n", ["X"]),
    "line-of-65537": (GET + b"X: " + b"v" * 65532 + b"\r\n\r\n", ["X"]),  # 431
    "100-lines": (GET + b"X: 1\r\n" * 99 + b"\r\n", ["X"]),
    "101-lines": (GET + b"X: 1\r\n" * 100 + b"\r\n", ["X"]),  # 431
    "eof-as-101st-line": (GET + b"X: 1\r\n" * 100, ["X"]),
    "blanks-colons-latin1-eof": (
        GET + b"A:\r\nB:  \t \r\nC: v \t\r\nD::\xe9:\r\nE: a", list("ABCDE")
    ),
    "repeated-equal-length": (
        GET + b"Content-Length: 5\r\ncontent-length:5\r\n\r\n12345", ["Content-Length"]
    ),
}  # fmt: skip


@pytest.mark.parametrize("case", SAME)
def test_same_head_as_the_stdlib_parser(case):
    assert_same_head(*SAME[case])


REFUSED = {
    "no-colon": (b"garbage\r\nContent-Length: 5\r\n", "malformed-line", 400),
    "folded": (b"X: 1\r\n folded\r\n", "malformed-line", 400),
    "folded-first": (b"\tX: 1\r\n", "malformed-line", 400),
    "nameless": (b": nameless\r\n", "malformed-line", 400),
    "blank-before-colon": (b"Host : t\r\n", "malformed-line", 400),
    "vertical-tab": (b"X: a\x0bb\r\n", "malformed-line", 400),
    "bare-cr": (b"X: a\rContent-Length: 0\r\n", "malformed-line", 400),
    "cr-cr-lf": (b"X: a\r\r\nContent-Length: 5\r\n", "malformed-line", 400),
    "chunked": (b"Transfer-Encoding: chunked\r\n", "transfer-encoding", 501),
    "length-and-empty-te": (
        b"Content-Length: 2\r\ntransfer-encoding:\r\n", "transfer-encoding", 501
    ),
    "two-lengths": (
        b"Content-Length: 2\r\nContent-Length: 9\r\n", "conflicting-content-length", 400
    ),
    "two-spellings-of-two": (
        b"Content-Length: 2\r\ncontent-length: 02\r\n", "conflicting-content-length", 400
    ),
}  # fmt: skip


@pytest.mark.parametrize("case", REFUSED)
def test_named_divergences_are_refused(case):
    lines, divergence, status = REFUSED[case]
    data = b"POST /v1/jobs HTTP/1.1\r\n" + lines + b"\r\n5\r\nhello\r\n0\r\n\r\n"
    assert gateway_head(data).status == status
    assert stdlib_head(data).status is None  # the stdlib parser lets it through
    assert_same_head(data, divergences={divergence})


def test_http09_always_closes():
    data = b"GET /v1/apps\r\nConnection: keep-alive\r\n\r\n"
    assert stdlib_head(data).close_connection is False
    assert gateway_head(data).close_connection is True
    assert_same_head(data, ["Connection"], {"http09-keep-alive"})


# -- generated heads ------------------------------------------------------

METHODS = ["GET", "POST", "DELETE", "PUT", "PATCH", "OPTIONS", "HEAD", "get", "G\xe9T"]
TARGETS = [
    "/", "/v1/apps", "//v1//apps", "///", "/v1/jobs/1.2?wait=3", "/a?b=c?d#e",
    "/v1/apps#frag", "*", "http://h/v1/apps", "/caf\xe9", "/?", "?",
]  # fmt: skip
VERSIONS = ["HTTP/1.1", "HTTP/1.0", "HTTP/1.10", "HTTP/01.01", "HTTP/0.9", None]
BAD_VERSIONS = [
    "HTTP/2.0", "HTTP/12.3", "HTTP/1.1.1", "HTTP/1", "HTTP/1.", "HTTP/x.y",
    "http/1.1", "FTP/1.1", "HTTP/1.\xb2", "1.1", "HTTP/",
]  # fmt: skip
NAMES = ["Host", "Connection", "Expect", "Content-Length", "Accept", "X-Trace-Id", "From"]
VALUES = {
    "Connection": ["close", "Close", "CLOSE", "keep-alive", "Keep-Alive", "upgrade", "", "close "],
    "Expect": ["100-continue", "100-Continue", "100-CONTINUE", "200-ok", ""],
}  # fmt: skip
REFUSED_LINES = [(b"Transfer-Encoding: chunked", "transfer-encoding")] + [
    (line, "malformed-line")
    for line in (
        b"garbage", b" folded", b"\tfolded", b": nameless", b"Host : t", b"X Y: 1",
        b"X: a\x0bb", b"X: a\x00", b"X: a\rb", b"X: a\r\r", b"X: \x85", b"\xe9: 1",
        b"  ", b"From nobody", b"X: a\x0c",
    )
]  # fmt: skip
EOLS = st.sampled_from([b"\r\n", b"\r\n", b"\n"])
BLANKS = st.text(" \t", max_size=3)
FREE_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f")
    .filter(lambda c: not "\x80" <= c <= "\x9f"),
    max_size=12,
)  # fmt: skip


def one_in(n: int):
    """A boolean strategy, true once in ``n``."""
    return st.integers(1, n).map(lambda k: k == 1)


@st.composite
def field_line(draw, lengths):
    """One well-formed ``name: value`` line, without its line end."""
    name = draw(st.sampled_from(NAMES))
    spelt = draw(st.sampled_from([name, name.lower(), name.upper(), name.swapcase()]))
    if name == "Content-Length":  # equal repeats stay equal: no trailing blanks
        return f"{spelt}:{draw(BLANKS)}{draw(st.sampled_from(lengths))}".encode()
    value = draw(st.sampled_from(VALUES[name]) if name in VALUES else FREE_TEXT)
    return f"{spelt}:{draw(BLANKS)}{value}{draw(BLANKS)}".encode("iso-8859-1")


@st.composite
def request_head(draw):
    """``(bytes, divergences)``: one request head and whatever follows it."""
    words = [draw(st.sampled_from(METHODS)), draw(st.sampled_from(TARGETS))]
    version = draw(st.sampled_from(BAD_VERSIONS if draw(one_in(12)) else VERSIONS))
    if version is not None:
        words.append(version)
    if draw(one_in(20)):
        words.insert(draw(st.integers(0, len(words))), "extra")
    separator = draw(st.sampled_from([" ", " ", " ", "  ", "\t"]))
    divergences = {"http09-keep-alive"} if words[2:] in ([], ["HTTP/0.9"]) else set()
    # most heads frame one body length; some disagree with themselves
    lengths = ["0", "5", "05"] if draw(one_in(8)) else ["5"]
    count = st.integers(95, 104) if draw(one_in(6)) else st.integers(0, 6)
    lines = draw(st.lists(field_line(lengths), min_size=draw(count), max_size=120))
    if lines and draw(one_in(6)):  # one line 65 534 … 65 538 bytes, line end included
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] += b"v" * (65536 + draw(st.integers(-4, 0)) - len(lines[k]))
    if len({line.split(b":")[1].lstrip(b" \t") for line in lines
            if line.lower().startswith(b"content-length:")}) > 1:  # fmt: skip
        divergences.add("conflicting-content-length")
    if draw(one_in(5)):
        line, divergence = draw(st.sampled_from(REFUSED_LINES))
        lines.insert(draw(st.integers(0, len(lines))), line)
        divergences.add(divergence)
    data = [separator.join(words).encode("iso-8859-1"), draw(EOLS)]
    for line in lines:
        data += [line, draw(EOLS)]
    if not draw(one_in(10)):  # else: EOF ends the header block
        data.append(draw(EOLS))
        data.append(draw(st.sampled_from([b"", b"", b"{}", b"GET / HTTP/1.1\r\n\r\n"])))
    return b"".join(data), frozenset(divergences)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(request_head())
def test_generated_heads_parse_the_same(case):
    data, divergences = case
    assert_same_head(data, NAMES + ["Transfer-Encoding"], divergences)
