"""One JSON HTTP front end for every served surface.

The estimate service (:mod:`repro.serve`), the campaign coordinator
(:mod:`repro.experiments.coordinator`) and ``campaign --metrics-port``
are ``http.server`` threading servers speaking JSON, and all three
answer through :class:`JsonRequestHandler`, the only handler class. A
server is a route table: :func:`make_json_server` binds the routes, a
metrics registry, a ``health()`` callback and a disconnect counter onto
a throwaway subclass (``BaseHTTPServer`` instantiates the handler class
itself, so per-server state rides on class attributes, not globals).

One dispatcher answers every request:

- ``GET /metrics`` renders the bound registry (Prometheus text) and
  ``GET /healthz`` answers the bound ``health()``, on every server.
- Any other ``(method, path)`` is looked up in the route table. A GET
  route gets the raw query string, a POST route the body object; the
  route returns the JSON payload of a 200.
- A route raising :class:`~repro.util.errors.ConfigurationError`
  answers 400; a :class:`RouteError` carries its own status.
- An unknown path answers 404. On a POST it also closes the connection.

One body reader: an empty body reads as ``{}``; a bad or negative
``Content-Length`` closes the connection and answers 400 ``bad
Content-Length``; a body that is not a JSON object answers 400 ``body
must be a JSON object``. A response sent before the body was read
closes the connection so the unread bytes cannot be parsed as the next
request on a kept-alive one.

Transport: the handler speaks HTTP/1.1 with ``TCP_NODELAY`` and writes
each response in one send, so a client (a campaign node) can reuse one
connection for every request. Without ``TCP_NODELAY`` a response's
second segment waits for the peer's delayed ACK, about 40 ms per
request on a kept-alive connection. The whole response write is guarded
against client disconnects: a client that gives up mid-compute (curl
timing out during a long cold estimate), or a peer that resets the
connection while the handler waits for its next request, is counted on
the bound ``disconnects`` counter instead of dumping a traceback.
:class:`JsonHTTPServer`'s ``server_close`` also drops its kept-alive
connections, as a process exit would.
"""

import io
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.metrics import TEXT_CONTENT_TYPE
from repro.util.errors import ConfigurationError


class RouteError(Exception):
    """Raised by a route to answer ``status`` with the message."""

    status: int


class JsonRequestHandler(BaseHTTPRequestHandler):
    """The one dispatcher: built-in ``/metrics`` and ``/healthz``, then
    the bound route table (see the module docstring).

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
    verbose = False

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Buffer the response so headers and body leave in one send;
    #: :meth:`_send_bytes` flushes it.
    wbufsize = io.DEFAULT_BUFFER_SIZE

    def do_GET(self):  # noqa: N802 (http.server's casing)
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method):
        url = urlsplit(self.path)
        if method == "GET" and url.path == "/metrics":
            self._send_text(200, self.registry.render())
            return
        if method == "GET" and url.path == "/healthz":
            self._send(200, self.health())
            return
        route = self.routes.get((method, url.path))
        if route is None:
            if method == "POST":
                self.close_connection = True
            self._send(404, {"error": f"unknown path {url.path!r}"})
            return
        try:
            payload = route(self._read_body() if method == "POST" else url.query)
        except ConfigurationError as exc:
            self._send(400, {"error": str(exc)})
        except RouteError as exc:
            self._send(exc.status, {"error": str(exc)})
        else:
            self._send(200, payload)

    def _read_body(self):
        """The request body as a JSON object (``{}`` when empty)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            self.close_connection = True
            raise ConfigurationError("bad Content-Length") from None
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            body = None
        if not isinstance(body, dict):
            raise ConfigurationError("body must be a JSON object")
        return body

    def handle_one_request(self):
        try:
            BaseHTTPRequestHandler.handle_one_request(self)
        except ConnectionError:
            # A kept-alive connection is read again after every
            # response, so a peer that resets it (a kill -9'd node)
            # surfaces here rather than on a write.
            self._disconnected()

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
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except ConnectionError:
            # The client hung up somewhere between our compute finishing
            # and the last byte going out (BrokenPipeError and
            # ConnectionResetError are both ConnectionError). There is
            # nobody left to answer; drop the connection and count it.
            self._disconnected()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)


class JsonHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server whose ``server_close`` also shuts down
    the connections its handlers still hold open.

    Handler threads are daemons and are not joined, so without this a
    kept-alive client would go on being served by a closed server."""

    _GUARDED_BY = {"_live": "_live_lock"}

    def __init__(self, *args, **kwargs):
        self._live = set()
        self._live_lock = threading.Lock()
        ThreadingHTTPServer.__init__(self, *args, **kwargs)

    def process_request(self, request, client_address):
        with self._live_lock:
            self._live.add(request)
        ThreadingHTTPServer.process_request(self, request, client_address)

    def shutdown_request(self, request):
        with self._live_lock:
            self._live.discard(request)
        ThreadingHTTPServer.shutdown_request(self, request)

    def server_close(self):
        ThreadingHTTPServer.server_close(self)
        with self._live_lock:
            live = list(self._live)
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
