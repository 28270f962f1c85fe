"""The HTTP front's request-head parser and route table.

:func:`repro.serving.http.parse_request_head` holds every framing rule the
front enforces, so it is fuzzed on its own: any byte lines either parse to
a request head whose body length is within the limit, or raise
:class:`HttpError` with a framing status (400, 413 or 501) — never another
status and never another exception. A head in the stack benchmark's wire
format (``benchmarks/stack/wire.py``'s ``render``) parses back to what was
rendered. A few malformed heads then go through a real connection
(:func:`open_memory_connection`): each gets its 4xx or 5xx, never a 500,
and the connection closes. A head cut off by EOF gets no answer at all,
and a head that never ends is answered 431 once it passes
``_MAX_HEAD_BYTES``, with the front's memory bounded.
The route table maps each path to its stats key and, per method, its
handler and path arguments.
"""

import asyncio
import itertools
import json
import string
import sys
import tracemalloc
from pathlib import Path
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import AlignmentHTTPServer, AlignmentServer, open_memory_connection
from repro.serving.http import (
    _MAX_HEAD_BYTES,
    _MAX_LINE_BYTES,
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    _route,
    parse_request_head,
)

from tests.serving.test_http import run

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "stack"))

from wire import render  # noqa: E402

FRAMING_STATUSES = (400, 413, 501)

#: Lines that reach the parser's branches more often than random bytes do.
REQUEST_LINES = [
    b"GET / HTTP/1.1\r\n",
    b"POST /v1/map?debug=timing HTTP/1.1\n",
    b"GET /" + b"a" * (16 * 1024) + b" HTTP/1.1\r\n",
]
HEADER_LINES = [
    b"Host: bench\r\n",
    b"Content-Length: 10\r\n",
    b"Content-Length: 11\r\n",
    b"Content-Length: +1\r\n",
    b"Content-Length: 1\xb2\r\n",
    b"content-length: 99999999999999999999\r\n",
    b"Transfer-Encoding: chunked\r\n",
    b": no name\r\n",
    b"no colon\r\n",
    b"\r\n",
    b"X-Big: " + b"a" * (16 * 1024) + b"\r\n",
]

FUZZ = settings(max_examples=150, deadline=None)


def parse_or_framing_error(lines):
    """The parser's answer, checked against its contract; None on HttpError."""
    try:
        head = parse_request_head(lines)
    except HttpError as exc:
        assert exc.status in FRAMING_STATUSES, (exc.status, exc.message)
        return None
    method, path, query, headers, length = head
    assert isinstance(method, str) and isinstance(path, str)
    assert isinstance(query, dict) and isinstance(headers, dict)
    assert 0 <= length <= DEFAULT_MAX_BODY_BYTES
    return head


def head_lines(data):
    """The lines the front's socket loop hands the parser for ``data``: up
    to (not including) the first blank line after the request line."""
    pieces = data.split(b"\n")
    lines = [piece + b"\n" for piece in pieces[:-1]]
    if pieces[-1]:
        lines.append(pieces[-1])
    for index, line in enumerate(lines[1:], start=1):
        if line in (b"\r\n", b"\n"):
            return lines[:index]
    return lines


TOKEN_CHARS = string.ascii_letters + string.digits + "_.~-"
tokens = st.text(TOKEN_CHARS, min_size=1, max_size=12)
methods = st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS"])
paths = st.lists(tokens, max_size=4).map(lambda parts: "/" + "/".join(parts))
queries = st.dictionaries(tokens, tokens, max_size=3)
header_names = st.text(
    string.ascii_lowercase + string.digits + "-", min_size=1, max_size=12
).map("x-".__add__)
header_values = st.text(string.printable[:95], max_size=20).map(lambda v: v.strip())
extra_headers = st.dictionaries(header_names, header_values, max_size=3)
bodies = st.binary(max_size=64)
endings = st.sampled_from([b"\r\n", b"\n", b""])
#: Body lengths on both sides of the limit.
content_length_values = st.one_of(
    st.integers(DEFAULT_MAX_BODY_BYTES - 1, DEFAULT_MAX_BODY_BYTES + 1),
    st.integers(0, 2 * DEFAULT_MAX_BODY_BYTES),
)

#: Any bytes, known lines, and well-formed lines: most heads get past the
#: request line, so the header rules see traffic too.
request_lines = st.one_of(
    st.binary(max_size=48),
    st.sampled_from(REQUEST_LINES),
    st.builds(
        lambda method, path, ending: f"{method} {path} HTTP/1.1".encode() + ending,
        methods,
        paths,
        endings,
    ),
)
header_lines = st.one_of(
    st.binary(max_size=48),
    st.sampled_from(HEADER_LINES),
    st.builds(
        lambda name, value, ending: f"{name}: {value}".encode() + ending,
        st.sampled_from(["Host", "Connection", "X-Request-ID"]) | header_names,
        header_values,
        endings,
    ),
    content_length_values.map(lambda n: b"Content-Length: %d\r\n" % n),
)


class TestParserContract:
    @FUZZ
    @given(request_lines, st.lists(header_lines, max_size=6))
    def test_arbitrary_lines_parse_or_raise_a_framing_error(
        self, request_line, header_lines
    ):
        parse_or_framing_error([request_line, *header_lines])

    @FUZZ
    @given(
        methods,
        paths,
        bodies,
        st.lists(
            st.tuples(
                st.sampled_from(["replace", "insert", "delete"]),
                st.integers(min_value=0, max_value=10_000),
                st.binary(min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_mutated_valid_heads_parse_or_raise_a_framing_error(
        self, method, path, body, mutations
    ):
        data = bytearray(render(method, path, body))
        for kind, position, piece in mutations:
            at = position % (len(data) + 1)
            if kind == "insert":
                data[at:at] = piece
            elif kind == "replace":
                data[at : at + len(piece)] = piece
            else:
                del data[at : at + len(piece)]
        parse_or_framing_error(head_lines(bytes(data)))

    @FUZZ
    @given(methods, paths, queries, extra_headers, bodies, st.booleans())
    def test_rendered_heads_parse_back(
        self, method, path, query, extra, body, bare_lf
    ):
        target = f"{path}?{urlencode(query)}" if query else path
        data = render(method, target, body)
        head, _, rest = data.partition(b"\r\n\r\n")
        assert rest == body
        request_line, _, header_block = head.partition(b"\r\n")
        extra_block = "".join(f"\r\n{name}: {value}" for name, value in extra.items())
        head = request_line + b"\r\n" + header_block + extra_block.encode()
        if bare_lf:
            head = head.replace(b"\r\n", b"\n")
        lines = head_lines(head + (b"\n\n" if bare_lf else b"\r\n\r\n"))

        parsed = parse_or_framing_error(lines)

        expected_headers = {"host": "bench", "content-length": str(len(body))}
        expected_headers.update(extra)
        assert parsed == (method, path, query, expected_headers, len(body))

    @FUZZ
    @given(content_length_values)
    def test_a_body_is_framed_up_to_the_limit_and_413_past_it(self, length):
        lines = [b"POST /v1/map HTTP/1.1\r\n", b"Content-Length: %d\r\n" % length]
        if length <= DEFAULT_MAX_BODY_BYTES:
            assert parse_request_head(lines)[4] == length
        else:
            with pytest.raises(HttpError) as raised:
                parse_request_head(lines)
            assert raised.value.status == 413

    def test_empty_head_is_a_malformed_request_line(self):
        with pytest.raises(HttpError) as raised:
            parse_request_head([])
        assert (raised.value.status, raised.value.message) == (
            400,
            "malformed request line",
        )


async def exchange(data, *, half_close=False):
    """Send ``data`` to a fresh pure-engine front and read until the front
    closes the connection: ``(status, JSON body, headers)`` of its one
    response, or None when it closed without answering."""
    async with AlignmentHTTPServer(AlignmentServer(engine="pure")) as front:
        reader, writer = await open_memory_connection(front)
        try:
            writer.write(data)
            if half_close:
                writer.write_eof()
            await writer.drain()
            received = await asyncio.wait_for(reader.read(), 5)
        finally:
            writer.close()
            await writer.wait_closed()
    if not received:
        return None
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    # Exactly one response came before the close.
    assert len(body) == int(headers["content-length"])
    return int(status_line.split()[1]), json.loads(body), headers


class TestMalformedHeadsOnTheWire:
    @pytest.mark.parametrize(
        "data, status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nno colon\r\n\r\n", 400),
            (
                b"POST /v1/align HTTP/1.1\r\n"
                b"Content-Length: 1\r\nContent-Length: 2\r\n\r\n",
                400,
            ),
            (b"POST /v1/align HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", 400),
            (b"POST /v1/align HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            (b"POST /v1/align HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
            (b"GET /" + b"a" * (16 * 1024) + b" HTTP/1.1\r\n\r\n", 400),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (16 * 1024) + b"\r\n\r\n",
                400,
            ),
        ],
        ids=[
            "one-word",
            "no-version",
            "no-colon",
            "conflicting-length",
            "underscore-length",
            "chunked",
            "oversize-body",
            "long-request-line",
            "long-header-line",
        ],
    )
    def test_framing_error_is_answered_then_the_connection_closes(self, data, status):
        got, body, headers = run(exchange(data))
        assert got == status
        assert body["error"]
        assert headers["connection"] == "close"


class TestHeadCutOffByEof:
    @pytest.mark.parametrize(
        "data",
        [
            b"GET /healthz HTTP/1.1\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
            b"GET /healthz HTTP/1.1\nHost: x\n",
            b"NONSENSE\r\n",
        ],
        ids=["request-line-only", "with-host", "bare-lf", "malformed"],
    )
    def test_is_not_answered(self, data):
        assert run(exchange(data, half_close=True)) is None

    def test_a_complete_bare_lf_head_is_still_answered(self):
        status, body, _ = run(
            exchange(b"GET /healthz HTTP/1.1\nHost: x\n\n", half_close=True)
        )
        assert (status, body["status"]) == (200, "ok")


def padded_header_lines(count, size):
    """``count`` distinct header lines of ``size`` bytes each, CRLF included."""
    for index in range(count):
        prefix = f"X-Pad-{index}: ".encode()
        yield prefix + b"a" * (size - len(prefix) - 2) + b"\r\n"


async def send_head(lines):
    """Send ``lines`` one at a time to a fresh pure-engine front while
    another task waits for its response: ``(lines sent, status, headers)``.

    Like a client that watches for an early answer, it gives the front the
    chance to answer after each line and stops sending once it has: a
    write after the front hung up on unread data would reset the
    connection before the answer is read.
    """

    async def response(reader):
        head = await reader.readuntil(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            if name:
                headers[name.strip().lower()] = value.strip()
        await reader.readexactly(int(headers["content-length"]))
        return int(status_line.split()[1]), headers

    async with AlignmentHTTPServer(AlignmentServer(engine="pure")) as front:
        reader, writer = await open_memory_connection(front)
        answer = asyncio.ensure_future(response(reader))
        sent = 0
        try:
            for line in lines:
                writer.write(line)
                await writer.drain()
                sent += 1
                await asyncio.wait({answer}, timeout=0.05)
                if answer.done():
                    break
            status, headers = await asyncio.wait_for(answer, 5)
        finally:
            answer.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass  # the front hung up first
    return sent, status, headers


class TestHeadCap:
    """The head is bounded as a whole, not only line by line."""

    def test_a_head_that_never_ends_is_answered_431_in_bounded_memory(self):
        """1,000 header lines of 16 KiB, no blank line: the front answers
        431 with ``Connection: close`` once the head passes the cap, stops
        reading, and holds a small multiple of the cap, not the 16 MB sent."""
        # One served request first, so lazy imports and set-up are not
        # counted in the peak below.
        run(send_head([b"GET /healthz HTTP/1.1\r\n", b"\r\n"]))
        # Made line by line as sent: the test holds one line, not 16 MB.
        endless = itertools.chain(
            [b"GET /healthz HTTP/1.1\r\n"],
            padded_header_lines(1_000, _MAX_LINE_BYTES),
        )
        tracemalloc.start()
        try:
            sent, status, headers = run(send_head(endless))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 431
        assert headers["connection"] == "close"
        assert sent < 10
        assert peak < 16 * _MAX_HEAD_BYTES

    def test_a_head_at_the_cap_is_served_and_one_byte_more_is_431(self):
        request_line = b"GET /healthz HTTP/1.1\r\n"
        room = _MAX_HEAD_BYTES - len(request_line)
        full, rest = divmod(room, _MAX_LINE_BYTES)
        pads = list(padded_header_lines(full, _MAX_LINE_BYTES))
        pads.append(b"X-Last: " + b"a" * (rest - len(b"X-Last: \r\n")) + b"\r\n")
        at_cap = [request_line, *pads]
        assert sum(map(len, at_cap)) == _MAX_HEAD_BYTES
        over = [request_line, *pads[:-1], pads[-1][:-2] + b"a\r\n"]
        _, status, headers = run(send_head([*at_cap, b"\r\n"]))
        assert (status, headers["connection"]) == (200, "keep-alive")
        _, status, headers = run(send_head([*over, b"\r\n"]))
        assert (status, headers["connection"]) == (431, "close")


JOBS = "/v1/jobs"


class TestRouteTable:
    @pytest.mark.parametrize(
        "path, key, routes",
        [
            ("/v1/map", "/v1/map", {"POST": ("_handle_map", ())}),
            ("/healthz", "/healthz", {"GET": ("_handle_healthz", ())}),
            ("/v1/trace/a/b", "/v1/trace", {"GET": ("_handle_trace", ("a/b",))}),
            ("/v1/trace/", "/v1/trace", {"GET": ("_handle_trace", ("",))}),
            # A job kind is create-only: GET /v1/jobs/map is a 405.
            (f"{JOBS}/map", JOBS, {"POST": ("_handle_job_create", ("map",))}),
            (f"{JOBS}//map/", JOBS, {"POST": ("_handle_job_create", ("map",))}),
            (
                f"{JOBS}/abc/",
                JOBS,
                {
                    "POST": ("_handle_job_create", ("abc",)),
                    "GET": ("_handle_job_status", ("abc",)),
                },
            ),
            (f"{JOBS}/abc//input", JOBS, {"POST": ("_handle_job_input", ("abc",))}),
            (f"{JOBS}/map/input", JOBS, {"POST": ("_handle_job_input", ("map",))}),
            (f"{JOBS}/abc/output/", JOBS, {"GET": ("_handle_job_output", ("abc",))}),
            (f"{JOBS}/abc/cancel", JOBS, {"POST": ("_handle_job_cancel", ("abc",))}),
            # Unmatched under a patterned key: a 404 counted under it.
            (JOBS, JOBS, {}),
            (f"{JOBS}/", JOBS, {}),
            (f"{JOBS}/abc/input/more", JOBS, {}),
            ("/v1/trace", "/v1/trace", {}),
            # Unmatched anywhere else: a 404 counted nowhere.
            ("/v1/jobsx", None, {}),
            ("/v2/nothing", None, {}),
        ],
    )
    def test_path_routes_to_its_key_and_handlers(self, path, key, routes):
        assert _route(path) == (key, routes)
