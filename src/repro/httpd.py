"""One JSON HTTP front end for every served surface.

The estimate service (:mod:`repro.serve`), the campaign coordinator
(:mod:`repro.experiments.coordinator`) and ``campaign --metrics-port``
are threading TCP servers speaking JSON over HTTP/1.1, and all three
answer through :class:`JsonRequestHandler`, the only handler class. A
server is a route table: :func:`make_json_server` binds the routes, a
metrics registry, a ``health()`` callback and a disconnect counter onto
a throwaway subclass (``socketserver`` instantiates the handler class
itself, so per-server state rides on class attributes, not globals).

One dispatcher answers every request:

- ``GET /metrics`` renders the bound registry (Prometheus text) and
  ``GET /healthz`` answers the bound ``health()``, on every server.
- Any other ``(method, path)`` is looked up in the route table. A GET
  route gets the raw query string, a POST route the body object; the
  route returns the JSON payload of a 200.
- A route raising :class:`~repro.util.errors.ConfigurationError`
  answers 400; a :class:`RouteError` carries its own status.
- An unknown path answers 404.

One body reader: an empty body reads as ``{}``; a bad or negative
``Content-Length`` closes the connection and answers 400 ``bad
Content-Length``; a body that is not a JSON object answers 400 ``body
must be a JSON object``. A request whose declared body is not read (a
GET, an unknown path) closes the connection after its answer, so the
unread bytes cannot be parsed as the next request on a kept-alive one.

The connection loop (:meth:`JsonRequestHandler.handle`) is the whole
of HTTP here; no ``http.server`` code runs. Per request it reads the
request line and the headers from one buffered reader into a dict, reads
a ``Content-Length`` body, dispatches, and writes the status line,
headers and body in one ``sendall``. It supports:

- ``GET`` and ``POST`` from HTTP/1.1 and HTTP/1.0 clients;
- keep-alive and pipelined requests on one connection; ``Connection:
  close`` and any HTTP/1.0 request close it after the response;
- ``Expect: 100-continue``: the interim ``100 Continue`` is sent just
  before the body is read.

It refuses, with a JSON ``{"error": ...}`` answer and a closed
connection: a malformed request line or header line (400), any other
method (501), a ``Transfer-Encoding`` (chunked) body (411: send a
``Content-Length``), a request line over :data:`MAX_LINE` bytes (414),
and a header line over :data:`MAX_LINE` bytes or a header block over
:data:`MAX_HEADERS` lines (431) — the limits ``http.server``
uses.

Transport: ``TCP_NODELAY`` on every connection, and each response in
one send, so a client (a campaign node) can reuse one connection for
every request. Without ``TCP_NODELAY`` a response's second segment
waits for the peer's delayed ACK, about 40 ms per request on a
kept-alive connection. The whole exchange is guarded against client
disconnects: a client that gives up mid-compute (curl timing out during
a long cold estimate), or a peer that resets the connection while the
loop waits for its next request, is counted on the bound
``disconnects`` counter instead of dumping a traceback.

Threads: :class:`JsonHTTPServer` serves each connection on its own
daemon thread, but reuses the threads: a thread whose connection closed
waits for the next accepted socket, and a new one starts only when every
thread is busy. Its ``server_close`` drops the kept-alive connections,
as a process exit would, and ends the idle threads, so a closed server
leaves no thread behind.

The server's CPU per request, with the client in another process
opening a fresh connection per request (2-CPU Xeon container, Python
3.11, parent and change measured alternately): a thread start per
connection made a cached ``/estimate`` cost 560–580 µs, and reusing
threads brought it to about 300 µs. Replacing ``http.server``'s request
parsing and response writing with this loop took a trivial route from
174–200 to 99–108 µs, and a cached ``/estimate`` from 313–337 to
225–294 µs. The handler itself now costs about 20 µs over a raw socket
exchange on loopback; the rest is the accept loop, the idle-thread
handoff, and socket set-up and teardown.
"""

import email.utils
import functools
import json
import queue
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus

from repro.metrics import TEXT_CONTENT_TYPE
from repro.util.errors import ConfigurationError

#: The longest request line or header line, and the most lines in a
#: header block (its closing blank line included), a request may have
#: before it is refused: ``http.server``'s limits.
MAX_LINE = 65536
MAX_HEADERS = 100

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class RouteError(Exception):
    """Raised by a route to answer ``status`` with the message."""

    status: int


class _Refused(Exception):
    """A request the connection loop answers itself and then closes the
    connection on: it broke the protocol, or uses a part of HTTP/1.1
    this loop does not speak."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


@functools.lru_cache(maxsize=1)
def _http_date(second):
    return email.utils.formatdate(second, usegmt=True)


class JsonRequestHandler(socketserver.BaseRequestHandler):
    """The one dispatcher: built-in ``/metrics`` and ``/healthz``, then
    the bound route table, behind a small HTTP/1.1 connection loop (see
    the module docstring).

    Every class attribute below is bound per server by
    :func:`make_json_server`.
    """

    #: ``{(method, path): route}``; a route takes the query string (GET)
    #: or the body object (POST) and returns the JSON payload.
    routes: dict = {}
    #: The :class:`repro.metrics.MetricsRegistry` behind ``/metrics``.
    registry = None
    #: A static callable returning the ``/healthz`` payload.
    health = None
    #: A :class:`repro.metrics.Counter` fed one inc() per client that
    #: vanished mid-request or mid-response, or None to only swallow
    #: the error.
    disconnects = None
    #: Log one line per response on stderr.
    verbose = False

    def setup(self):
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        self.rfile = self.request.makefile("rb")
        self.close_connection = False
        self.requestline = ""

    def finish(self):
        self.rfile.close()

    def handle(self):
        """Answer requests until the client or a response closes the
        connection."""
        try:
            while not self.close_connection:
                try:
                    method, target = self._read_request()
                except _Refused as exc:
                    self.close_connection = True
                    self._send(exc.status, {"error": str(exc)})
                else:
                    if method is not None:
                        self._dispatch(method, target)
        except ConnectionError:
            # A kept-alive connection is read again after every
            # response, so a peer that resets it (a kill -9'd node)
            # surfaces here rather than on a write.
            self._disconnected()

    def _read_request(self):
        """``(method, target)`` of the next request, its headers in
        ``self.headers`` (lower-case names); ``(None, None)`` when the
        client closed the connection. Raises :class:`_Refused`."""
        readline = self.rfile.readline
        line = readline(MAX_LINE + 1)
        while line in (b"\r\n", b"\n"):
            # A client may send blank lines between requests.
            line = readline(MAX_LINE + 1)
        if not line:
            self.close_connection = True
            return None, None
        if len(line) > MAX_LINE:
            raise _Refused(414, f"request line longer than {MAX_LINE} bytes")
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Refused(400, f"malformed request line {self.requestline!r}")
        method, target, version = words
        headers = self.headers = {}
        for _ in range(MAX_HEADERS):
            line = readline(MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                self.close_connection = True
                return None, None
            if len(line) > MAX_LINE:
                raise _Refused(431, f"header line longer than {MAX_LINE} bytes")
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Refused(400, f"malformed header line {line[:80]!r}")
            name, value = name.lower(), value.strip()
            if name in headers:
                value = headers[name] + ", " + value
            headers[name] = value
        else:
            raise _Refused(431, f"header block over {MAX_HEADERS} lines")
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0" or "close" in connection:
            self.close_connection = True
        if method not in ("GET", "POST"):
            raise _Refused(501, f"unsupported method {method!r}")
        if "transfer-encoding" in headers:
            raise _Refused(411, "chunked request bodies are not supported; "
                                "send a Content-Length")
        return method, target

    def _dispatch(self, method, target):
        path, _, query = target.partition("?")
        route = self.routes.get((method, path))
        if route is None or method == "GET":
            # Nothing reads a body here: close, so the unread bytes are
            # not parsed as the next request on a kept-alive connection.
            if self.headers.get("content-length", "0") != "0":
                self.close_connection = True
        if method == "GET" and path == "/metrics":
            self._send_text(200, self.registry.render())
            return
        if method == "GET" and path == "/healthz":
            self._send(200, self.health())
            return
        if route is None:
            self._send(404, {"error": f"unknown path {path!r}"})
            return
        try:
            payload = route(self._read_body() if method == "POST" else query)
        except ConfigurationError as exc:
            self._send(400, {"error": str(exc)})
        except RouteError as exc:
            self._send(exc.status, {"error": str(exc)})
        else:
            self._send(200, payload)

    def _read_body(self):
        """The request body as a JSON object (``{}`` when empty)."""
        value = self.headers.get("content-length", "0")
        if not (value.isascii() and value.isdigit()):
            # Digits only: int() would also take "+5", " 5" and "5_0".
            self.close_connection = True
            raise ConfigurationError("bad Content-Length")
        length = int(value)
        if length and self.headers.get("expect", "").lower() == "100-continue":
            self.request.sendall(_CONTINUE)
        data = self.rfile.read(length)
        if len(data) < length:
            self.close_connection = True
        try:
            body = json.loads(data or b"{}")
        except ValueError:
            body = None
        if not isinstance(body, dict):
            raise ConfigurationError("body must be a JSON object")
        return body

    def _disconnected(self):
        self.close_connection = True
        if self.disconnects is not None:
            self.disconnects.inc()

    def _send(self, status, payload):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_text(self, status, text, content_type=TEXT_CONTENT_TYPE):
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(self, status, body, content_type):
        # repro-lint: allow[R101] the Date header of a response, never a row
        date = _http_date(int(time.time()))
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Date: {date}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            head += "Connection: close\r\n"
        try:
            self.request.sendall(head.encode("iso-8859-1") + b"\r\n" + body)
        except ConnectionError:
            # The client hung up somewhere between our compute finishing
            # and the last byte going out (BrokenPipeError and
            # ConnectionResetError are both ConnectionError). There is
            # nobody left to answer; drop the connection and count it.
            self._disconnected()
        if self.verbose:
            sys.stderr.write(
                f"{self.client_address[0]} - - "
                f"[{time.strftime('%d/%b/%Y %H:%M:%S')}] "
                f'"{self.requestline}" {status} {len(body)}\n'
            )


class JsonHTTPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """A threading TCP server that reuses its connection threads, and
    whose ``server_close`` also shuts down the connections its handlers
    still hold open.

    :meth:`process_request` hands each accepted socket to an idle
    connection thread and starts a new daemon thread only when none is
    idle, so a kept-alive connection (a campaign node's) still holds one
    thread and no connection waits behind another. A thread goes back
    to idle when its connection closes and lives until
    :meth:`server_close`, which wakes and ends the idle threads; the
    busy ones end once the connection they serve is shut down.
    Connection threads are daemons and are not joined."""

    allow_reuse_address = True

    _GUARDED_BY = {
        "_live": "_live_lock",
        "_idle": "_live_lock",
        "_closing": "_live_lock",
    }

    def __init__(self, *args, **kwargs):
        self._live = set()
        #: Connection threads waiting on ``_handoff``, less the sockets
        #: already put there for them.
        self._idle = 0
        self._closing = False
        #: Accepted ``(request, client_address)`` pairs for idle
        #: threads; ``None`` tells one to end.
        self._handoff = queue.SimpleQueue()
        self._live_lock = threading.Lock()
        socketserver.TCPServer.__init__(self, *args, **kwargs)

    def process_request(self, request, client_address):
        with self._live_lock:
            self._live.add(request)
            reuse = self._idle > 0
            if reuse:
                self._idle -= 1
        if reuse:
            self._handoff.put((request, client_address))
        else:
            threading.Thread(
                target=self._serve_connections,
                args=(request, client_address),
                daemon=True,
            ).start()

    def _serve_connections(self, request, client_address):
        """A connection thread: serve this connection, then each one
        handed over while idle, until the server closes."""
        while True:
            self.process_request_thread(request, client_address)
            with self._live_lock:
                if self._closing:
                    return
                self._idle += 1
            handed = self._handoff.get()
            if handed is None:
                return
            request, client_address = handed

    def shutdown_request(self, request):
        with self._live_lock:
            self._live.discard(request)
        socketserver.TCPServer.shutdown_request(self, request)

    def server_close(self):
        socketserver.TCPServer.server_close(self)
        with self._live_lock:
            self._closing = True
            idle, self._idle = self._idle, 0
            live = list(self._live)
        for _ in range(idle):
            self._handoff.put(None)
        for request in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def make_json_server(host, port, routes, registry, health, disconnects=None):
    """A :class:`JsonHTTPServer` on ``(host, port)`` answering through
    :class:`JsonRequestHandler` with these bindings (``port=0`` binds an
    ephemeral port — read it back from ``server.server_address``)."""
    handler = type(
        "BoundJsonRequestHandler",
        (JsonRequestHandler,),
        {
            "routes": routes,
            "registry": registry,
            "health": staticmethod(health),
            "disconnects": disconnects,
        },
    )
    return JsonHTTPServer((host, port), handler)


def serve_metrics(registry, host="127.0.0.1", port=0, verbose=False):
    """Serve ``registry`` on a daemon thread; returns ``(server, thread)``.

    Only ``/metrics`` and ``/healthz`` answer. Port 0 binds an ephemeral
    port (read it back from ``server.server_address``). Callers own the
    teardown: ``server.shutdown(); server.server_close(); thread.join()``.
    """
    server = make_json_server(host, port, {}, registry, lambda: {"ok": True})
    server.RequestHandlerClass.verbose = verbose
    thread = threading.Thread(
        target=server.serve_forever, name="metrics-http", daemon=True
    )
    thread.start()
    return server, thread
