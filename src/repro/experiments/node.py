"""The runner node: lease trial ranges, run them locally, report folds.

``python -m repro node --join HOST:PORT --workers N`` is the worker
half of the distributed campaign (see
:mod:`repro.experiments.coordinator`): register once, lease once, then
loop ``run → report`` until the coordinator answers ``done``. Each
report asks for the next lease (``max_leases: 1``) and its answer
carries it, so a lease costs one HTTP request; the node falls back to
``POST /lease`` only after an empty answer (every range is out on
lease, or the active points are between batches; it polls every
``--poll`` seconds) or a failed report.

Each lease is a ``(point, [start, end))`` trial range; the node builds
the same chunk payloads the single-host runner would
(:func:`~repro.experiments.runner.chunk_payloads` over its local
:class:`~repro.experiments.pool.WorkerPool`), folds the chunk results
into one :class:`~repro.experiments.runner.ChunkFold`, and reports its
``to_report()`` plus the lease echo. Outcome keys cross the wire as
``str(outcome)`` — the stringification :meth:`ExperimentResult.to_row`
applies — so the coordinator's fold and the rows it emits are
byte-identical to a single-host run.

The node holds one persistent HTTP/1.1 connection to the coordinator
for all its requests, so a lease costs no TCP set-up.

Failure model: the node is disposable. A coordinator restart costs one
reconnect; connection errors beyond that are retried with backoff up to
``--retries`` consecutive failures; a failed report is abandoned —
the lease expires coordinator-side and the range is re-leased, and
determinism guarantees the retry folds the same numbers. So does the
lease a lost report answer carried: the node never saw it, and it
expires the same way. ``kill -9`` needs no cleanup for the same
reason.
"""

import http.client
import json
import socket
import sys
import time
from typing import Any, Dict, Mapping, Optional
from urllib.parse import urlsplit

from repro.experiments.campaign import CampaignPoint, PointState
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.pool import WorkerCount, WorkerPool
from repro.experiments.runner import (
    ChunkFold,
    _run_chunk_folded,
    chunk_payloads,
    cost_key,
)
from repro.experiments.scenario import get_scenario
from repro.util.errors import ConfigurationError

#: Seconds between empty lease polls (every range is out on lease, or
#: the active points are between batch barriers).
DEFAULT_POLL_SECONDS = 0.2


class CoordinatorClient:
    """A minimal JSON-POST client for the coordinator protocol.

    Every request goes over one persistent HTTP/1.1 connection, opened
    on first use. A reused connection the coordinator has since dropped
    (it restarted, or closed the connection after an error answer) is
    reopened once and the request re-sent: reports fold exactly once
    and a lost lease expires, so a repeated request is harmless."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        if "://" not in base_url:
            base_url = "http://" + base_url
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        self._prefix = parts.path
        self._connection = http.client.HTTPConnection(
            parts.netloc, timeout=timeout
        )

    def post(self, path: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """POST ``payload`` as JSON; returns the parsed response object.

        Raises :class:`ConfigurationError` on a 4xx (a protocol bug —
        retrying cannot help) and ``OSError`` on connection trouble
        (the retry loop's signal)."""
        body = json.dumps(payload).encode("utf-8")
        reused = self._connection.sock is not None
        try:
            status, data = self._round_trip(path, body)
        except ConnectionError:
            if not reused:
                raise
            # The coordinator dropped the kept-alive connection (it
            # restarted, say): reconnect once and re-send.
            status, data = self._round_trip(path, body)
        if status >= 400:
            try:
                detail = json.loads(data.decode("utf-8")).get("error")
            except Exception:
                detail = None
            raise ConfigurationError(
                f"coordinator rejected {path}: {detail or f'HTTP {status}'}"
            )
        return json.loads(data.decode("utf-8"))

    def _round_trip(self, path: str, body: bytes):
        """One request and its response; a failure closes the
        connection and raises ``OSError``."""
        try:
            self._connection.request(
                "POST",
                self._prefix + path,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._connection.getresponse()
            return response.status, response.read()
        except OSError:
            self.close()
            raise
        except http.client.HTTPException as error:
            self.close()
            raise ConnectionError(f"coordinator {path}: {error!r}") from None

    def close(self) -> None:
        """Close the connection; the next :meth:`post` reopens it."""
        self._connection.close()


def lease_fold(
    lease: Mapping[str, Any],
    pool: WorkerPool,
    chunker: Optional[AdaptiveChunker] = None,
) -> Dict[str, Any]:
    """Run one lease's trial range and return its report payload.

    Pure with respect to the wire: everything network-related lives in
    :func:`run_node`, so tests drive a coordinator with this function
    in-process and the byte-identity contract is pinned without HTTP.
    """
    spec = get_scenario(lease["scenario"])
    params = spec.resolve_params(dict(lease.get("params") or {}))
    start, end = int(lease["start"]), int(lease["end"])
    max_steps = lease.get("max_steps")
    base_seed = int(lease["base_seed"])
    payloads = chunk_payloads(
        spec,
        params,
        base_seed,
        range(start, end),
        False,
        max_steps,
        workers=pool.workers,
        chunker=chunker,
    )
    key = cost_key(spec, max_steps)
    state = PointState(
        lease["point"],
        CampaignPoint(spec.name, params, end - start, base_seed, max_steps, None),
        spec,
    )
    for fold in pool.imap_unordered(_run_chunk_folded, payloads):
        state.fold(fold)
        if chunker is not None:
            chunker.observe(key, fold.trials, fold.elapsed)
    wall = round(time.perf_counter() - state.started, 6)
    fold = ChunkFold(state.counts, state.successes, state.steps_total, state.ran, wall)
    return {
        "lease": lease.get("lease"),
        "point": lease["point"],
        "start": start,
        "end": end,
        **fold.to_report(),
    }


def run_node(
    join: str,
    workers: WorkerCount = 1,
    poll: float = DEFAULT_POLL_SECONDS,
    name: Optional[str] = None,
    retries: int = 30,
    retry_delay: float = 1.0,
    verbose: bool = False,
) -> int:
    """``python -m repro node``: serve leases until the campaign is done.

    One ``/lease`` request starts the loop; after that each report
    carries the next lease request, and ``/lease`` is sent again only
    after an empty answer or a failed report.

    Returns 0 when the coordinator reports completion, 1 after
    ``retries`` consecutive connection failures (the coordinator is
    gone for good)."""
    client = CoordinatorClient(join)
    pool = WorkerPool(workers)
    chunker = AdaptiveChunker()
    node_id: Optional[str] = None
    failures = 0
    if name is None:
        name = socket.gethostname().split(".")[0] or None

    def log(message: str) -> None:
        if verbose:
            print(f"[node] {message}", file=sys.stderr)

    try:
        # Leases in hand: each report asks for the next one, so /lease
        # is needed only to start, after an empty answer, and after a
        # failed report.
        leases: list = []
        while True:
            if not leases:
                try:
                    if node_id is None:
                        answer = client.post(
                            "/register", {"name": name, "workers": pool.workers}
                        )
                        node_id = answer["node"]
                        log(
                            f"registered as {node_id} "
                            f"(lease_trials={answer.get('lease_trials')})"
                        )
                    answer = client.post("/lease", {"node": node_id})
                except OSError as exc:
                    failures += 1
                    if failures > retries:
                        print(
                            f"node: giving up after {failures} connection "
                            f"failures: {exc}",
                            file=sys.stderr,
                        )
                        return 1
                    time.sleep(retry_delay)
                    continue
                failures = 0
                if answer.get("done"):
                    log("campaign complete")
                    return 0
                leases = list(answer.get("leases") or [])
                if not leases:
                    time.sleep(poll)
                    continue
            lease = leases.pop(0)
            log(
                f"lease {lease.get('lease')}: {lease.get('scenario')} "
                f"[{lease.get('start')}, {lease.get('end')})"
            )
            report = lease_fold(lease, pool, chunker)
            report["node"] = node_id
            report["max_leases"] = 1
            try:
                answer = client.post("/report", report)
            except OSError as exc:
                # The lease expires and re-leases; determinism makes
                # the retry's fold identical, so losing this report
                # costs wall-clock only.
                log(f"report failed ({exc}); lease will be retried")
                continue
            failures = 0
            if answer.get("done"):
                log("campaign complete")
                return 0
            leases.extend(answer.get("leases") or [])
            if "leases" in answer and not leases:
                # An empty grant: poll as after an empty /lease answer.
                # (A coordinator that predates max_leases answers
                # {status} alone, and /lease follows at once.)
                time.sleep(poll)
    finally:
        client.close()
        pool.close()
