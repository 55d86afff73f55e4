"""The HTTP/1.1 connection loop behind every JSON surface, over raw
sockets: keep-alive and pipelining, connection close rules,
``100-continue``, and the requests the loop refuses — each refusal a
JSON ``{"error": ...}`` answer followed by a closed connection.
"""

import json
import socket
import threading

import pytest

from repro.httpd import MAX_HEADERS, MAX_LINE, make_json_server
from repro.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def echo_server():
    """A server whose ``/echo`` routes answer what they were given;
    yields ``(port, calls)`` where ``calls`` lists every route call."""
    calls = []

    def get(query):
        calls.append(query)
        return {"query": query}

    def post(body):
        calls.append(body)
        return {"body": body}

    server = make_json_server(
        "127.0.0.1",
        0,
        {("GET", "/echo"): get, ("POST", "/echo"): post},
        MetricsRegistry(),
        lambda: {"ok": True},
    )
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    try:
        yield server.server_address[1], calls
    finally:
        server.shutdown()
        server.server_close()
        loop.join(timeout=10)


@pytest.fixture()
def echo(echo_server):
    """The shared echo server, with its call list emptied."""
    echo_server[1].clear()
    return echo_server


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    return sock, sock.makefile("rb")


def read_response(reader):
    """``(status, headers, body)`` of one response, read by its
    ``Content-Length`` (lower-case header names)."""
    status_line = reader.readline().decode("iso-8859-1")
    version, status, _ = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    while True:
        line = reader.readline().decode("iso-8859-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status), headers, body


def closed(reader):
    """True when the server closed the connection (EOF, no more bytes)."""
    return reader.read(1) == b""


def refused(port, raw):
    """Send ``raw`` on a fresh connection; the one answer must be a JSON
    error and the connection must close after it. Returns the status
    and the error message."""
    sock, reader = connect(port)
    with sock, reader:
        sock.sendall(raw)
        status, headers, body = read_response(reader)
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert closed(reader)
    return status, json.loads(body)["error"]


class TestConnection:
    def test_pipelined_requests_on_one_kept_alive_connection(self, echo):
        port, _ = echo
        sock, reader = connect(port)
        with sock, reader:
            body = b'{"n": 2}'
            sock.sendall(
                b"GET /echo?a=1 HTTP/1.1\r\nHost: x\r\n\r\n"
                b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            first = read_response(reader)
            second = read_response(reader)
            assert (first[0], json.loads(first[2])) == (200, {"query": "a=1"})
            assert (second[0], json.loads(second[2])) == (200, {"body": {"n": 2}})
            assert "connection" not in first[1]
            # Still open: a third request on the same connection answers.
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, payload = read_response(reader)
            assert (status, json.loads(payload)) == (200, {"ok": True})

    def test_http10_closes_after_one_response(self, echo):
        port, _ = echo
        sock, reader = connect(port)
        with sock, reader:
            sock.sendall(b"GET /echo?v=10 HTTP/1.0\r\n\r\n")
            status, headers, body = read_response(reader)
            assert (status, json.loads(body)) == (200, {"query": "v=10"})
            assert headers["connection"] == "close"
            assert closed(reader)

    def test_connection_close_is_honoured(self, echo):
        port, _ = echo
        sock, reader = connect(port)
        with sock, reader:
            sock.sendall(
                b"GET /echo HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            status, headers, _ = read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert closed(reader)

    def test_expect_100_continue(self, echo):
        port, calls = echo
        body = b'{"k": "v"}'
        sock, reader = connect(port)
        with sock, reader:
            sock.sendall(
                b"POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            )
            # The interim answer comes before the body is sent.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, headers, payload = read_response(reader)
            assert (status, json.loads(payload)) == (200, {"body": {"k": "v"}})
            assert "connection" not in headers
        assert calls == [{"k": "v"}]

    def test_date_header_is_sent(self, echo):
        port, _ = echo
        sock, reader = connect(port)
        with sock, reader:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            _, headers, _ = read_response(reader)
        assert headers["date"].endswith(" GMT")


class TestRefusals:
    def test_chunked_body_answers_411_and_runs_no_route(self, echo):
        """A chunked POST used to run its route on an empty ``{}`` body,
        and the chunk bytes were then parsed as a second request."""
        port, calls = echo
        status, error = refused(
            port,
            b"POST /echo HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"8\r\n{\"a\": 1}\r\n0\r\n\r\n",
        )
        assert status == 411
        assert "Content-Length" in error
        assert calls == []

    @pytest.mark.parametrize(
        "line",
        [b"GET /echo", b"nonsense", b"GET /echo HTTP/1.1 extra", b"GET /echo HTTP/2.0"],
        ids=["http09", "one-word", "four-words", "http2"],
    )
    def test_malformed_request_line_answers_400(self, echo, line):
        port, calls = echo
        status, error = refused(port, line + b"\r\n\r\n")
        assert status == 400
        assert "malformed request line" in error
        assert calls == []

    def test_malformed_header_answers_400(self, echo):
        port, _ = echo
        status, error = refused(
            port, b"GET /echo HTTP/1.1\r\nno colon here\r\n\r\n"
        )
        assert status == 400
        assert "malformed header" in error

    @pytest.mark.parametrize("method", ["HEAD", "PUT", "DELETE"])
    def test_unsupported_method_answers_501(self, echo, method):
        port, calls = echo
        status, error = refused(
            port, method.encode() + b" /echo HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 501
        assert method in error
        assert calls == []

    def test_overlong_request_line_answers_414(self, echo):
        port, _ = echo
        path = b"/echo?" + b"a" * MAX_LINE
        status, error = refused(port, b"GET " + path + b" HTTP/1.1\r\n\r\n")
        assert status == 414
        assert str(MAX_LINE) in error

    def test_overlong_header_line_answers_431(self, echo):
        port, _ = echo
        status, _ = refused(
            port,
            b"GET /echo HTTP/1.1\r\nX-Big: " + b"b" * MAX_LINE + b"\r\n\r\n",
        )
        assert status == 431

    def test_too_many_headers_answers_431(self, echo):
        """``http.server``'s limit: a header block of at most
        ``MAX_HEADERS`` lines, its closing blank line included."""
        port, calls = echo
        many = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS))
        status, error = refused(port, b"GET /echo HTTP/1.1\r\n" + many + b"\r\n")
        assert status == 431
        assert str(MAX_HEADERS) in error
        assert calls == []

    def test_the_header_limit_itself_is_accepted(self, echo):
        port, _ = echo
        many = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS - 1))
        sock, reader = connect(port)
        with sock, reader:
            sock.sendall(b"GET /echo HTTP/1.1\r\n" + many + b"\r\n")
            assert read_response(reader)[0] == 200

    def test_unread_get_body_closes_the_connection(self, echo):
        """A GET body is never read, so the connection closes instead of
        parsing it as the next request."""
        port, calls = echo
        smuggled = b"GET /echo?smuggled HTTP/1.1\r\n\r\n"
        sock, reader = connect(port)
        with sock, reader:
            sock.sendall(
                b"GET /echo HTTP/1.1\r\nContent-Length: "
                + str(len(smuggled)).encode() + b"\r\n\r\n" + smuggled
            )
            status, headers, _ = read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert closed(reader)
        assert calls == [""]
