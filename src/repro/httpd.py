"""Shared stdlib-HTTP scaffolding for the served surfaces.

Both HTTP front ends — the estimate service (:mod:`repro.serve`) and
the campaign coordinator (:mod:`repro.experiments.coordinator`) — are
``http.server`` threading servers speaking JSON. This module holds the
plumbing they share so the two stay behaviourally identical where it
matters:

- :class:`JsonRequestHandler`: response writers (``_send`` for JSON,
  ``_send_text`` for Prometheus text) that guard the *entire* response
  write against client disconnects. A client that gives up mid-compute
  (curl timing out during a long cold estimate) used to raise
  ``BrokenPipeError``/``ConnectionResetError`` out of the handler and
  dump a traceback per request; now the write is abandoned quietly and
  counted on the bound ``disconnects`` counter so the operator sees the
  rate on ``/metrics`` instead of in a log flood.
- Keep-alive: handlers speak HTTP/1.1 with ``TCP_NODELAY`` and write
  each response in one send, so a client (a campaign node) can reuse
  one connection for every request. Without ``TCP_NODELAY`` a
  response's second segment waits for the peer's delayed ACK, about
  40 ms per request on a kept-alive connection. A peer that resets
  the connection while the handler waits for its next request counts
  as a disconnect too, and a response sent before the request body
  was read closes the connection so the unread bytes cannot be parsed
  as the next request.
- :class:`JsonHTTPServer`: the threading server both front ends run;
  ``server_close`` also drops its kept-alive connections, as a process
  exit would.
- :func:`bind_handler`: the bound-subclass pattern — ``BaseHTTPServer``
  instantiates the handler class itself, so per-server state (the
  service object, verbosity, counters) rides on class attributes of a
  throwaway subclass rather than globals.
"""

import io
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.metrics import TEXT_CONTENT_TYPE


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request-handler base with disconnect-guarded response writers.

    Subclasses route in ``do_GET``/``do_POST`` and answer via
    :meth:`_send` / :meth:`_send_text`; class attributes ``verbose``
    and ``disconnects`` (a :class:`repro.metrics.Counter` or ``None``)
    are bound per server by :func:`bind_handler`.
    """

    #: Bound per server: a metrics Counter fed one inc() per client
    #: that vanished mid-request or mid-response, or None to only
    #: swallow the error.
    disconnects = None
    verbose = False

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Buffer the response so headers and body leave in one send;
    #: :meth:`_send_bytes` flushes it.
    wbufsize = io.DEFAULT_BUFFER_SIZE

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

    def read_json_body(self):
        """The request body parsed as a JSON object, or ``None`` when
        absent/malformed (callers answer 400).

        A body left unread closes the connection after the answer."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            self.close_connection = True
            return None
        if length <= 0:
            return None
        try:
            parsed = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError:
            return None
        return parsed if isinstance(parsed, dict) else None

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


def bind_handler(base, name, **attrs):
    """A throwaway subclass of ``base`` carrying per-server state."""
    return type(name, (base,), attrs)


class MetricsHandler(JsonRequestHandler):
    """GET-only handler exposing one registry: ``/metrics`` (Prometheus
    text), ``/healthz``. The campaign CLI binds this for plain
    single-host runs; the coordinator and estimate service keep their
    own richer handlers."""

    #: Bound per server by :func:`bind_handler`.
    registry = None

    def do_GET(self):
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            self._send_text(200, self.registry.render())
        elif path == "/healthz":
            self._send(200, {"ok": True})
        else:
            self._send(404, {"error": f"no such path: {path}"})


def serve_metrics(registry, host="127.0.0.1", port=0, verbose=False):
    """Serve ``registry`` on a daemon thread; returns ``(server, thread)``.

    Port 0 binds an ephemeral port (read it back from
    ``server.server_address``). Callers own the teardown:
    ``server.shutdown(); server.server_close(); thread.join()``.
    """
    handler = bind_handler(
        MetricsHandler, "BoundMetricsHandler",
        registry=registry, verbose=verbose,
    )
    server = JsonHTTPServer((host, port), handler)
    thread = threading.Thread(
        target=server.serve_forever, name="metrics-http", daemon=True
    )
    thread.start()
    return server, thread
