"""The distributed campaign: coordinator, leases, nodes, and identity.

The load-bearing assertion is byte-identity: a campaign sharded across
any number of nodes at any lease size — including after a node dies
mid-lease — emits exactly the rows the single-host orchestrator does.
Everything else (exactly-once folding, expiry, the HTTP protocol, the
``/metrics`` surface) exists in service of that contract.
"""

import http.client
import importlib
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.experiments import (
    CampaignCoordinator,
    CoordinatorClient,
    WorkerPool,
    expand_manifest,
    lease_fold,
    make_coordinator_server,
    run_campaign,
    run_node,
    serve_coordinator,
    slice_ranges,
)
from repro.metrics import parse_text
from repro.util.errors import ConfigurationError

MANIFEST = {
    "trials": 40,
    "base_seed": 3,
    "entries": [
        {"scenario": "attack/basic-cheat", "grid": {"n": [16, 24], "target": 5}},
        {"scenario": "cointoss/biased-coin", "grid": {"n": 8}},
        {
            "scenario": "attack/basic-cheat",
            "grid": {"n": 20, "target": 5},
            "budget": {"ci_width": 0.2, "min_trials": 8, "max_trials": 64},
        },
    ],
}


def single_host_rows(points):
    return sorted(
        json.dumps(r.to_row(), sort_keys=True)
        for r in run_campaign(points, workers=1)
    )


def drive(coordinator, nodes=1, fail=None):
    """Drain a coordinator with ``nodes`` in-process lease loops.

    ``fail(lease) -> bool`` marks leases to swallow (simulating a node
    that died holding them — it never reports).
    """

    def loop(worker_name):
        pool = WorkerPool(1)
        node = coordinator.register(name=worker_name)["node"]
        try:
            while True:
                answer = coordinator.lease(node)
                if answer["done"]:
                    return
                if not answer["leases"]:
                    time.sleep(0.005)
                    continue
                for lease in answer["leases"]:
                    if fail is not None and fail(lease):
                        continue
                    report = lease_fold(lease, pool)
                    report["node"] = node
                    coordinator.report(report)
        finally:
            pool.close()

    threads = [
        threading.Thread(target=loop, args=(f"w{i}",)) for i in range(nodes)
    ]
    for t in threads:
        t.start()
    rows = [
        json.dumps(r.to_row(), sort_keys=True) for r in coordinator.results()
    ]
    for t in threads:
        t.join()
    return sorted(rows)


class TestSliceRanges:
    def test_covers_the_interval_disjointly(self):
        assert slice_ranges(0, 10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert slice_ranges(5, 6, 100) == [(5, 6)]
        assert slice_ranges(3, 3, 4) == []

    def test_rejects_bad_lease_sizes(self):
        with pytest.raises(ConfigurationError):
            slice_ranges(0, 10, 0)
        with pytest.raises(ConfigurationError):
            slice_ranges(0, 10, True)


class TestByteIdentity:
    def test_sharded_rows_match_single_host(self):
        points = expand_manifest(MANIFEST)
        expected = single_host_rows(points)
        for lease_trials, nodes in [(7, 1), (16, 3)]:
            coordinator = CampaignCoordinator(
                points, lease_trials=lease_trials
            )
            assert drive(coordinator, nodes=nodes) == expected

    def test_adaptive_budget_converges_identically(self):
        # The batch barrier is what makes adaptive points shardable: the
        # stop decision happens only after every slice folded.
        points = [
            p
            for p in expand_manifest(MANIFEST)
            if p.budget is not None
        ]
        assert points, "manifest must carry an adaptive point"
        expected = single_host_rows(points)
        coordinator = CampaignCoordinator(points, lease_trials=3)
        assert drive(coordinator, nodes=2) == expected

    def test_completed_points_are_skipped(self):
        points = expand_manifest(MANIFEST)
        done = {points[0].key()}
        coordinator = CampaignCoordinator(points, completed=done)
        rows = drive(coordinator, nodes=1)
        assert len(rows) == len(points) - 1
        assert coordinator.skipped_points == 1

    def test_empty_campaign_is_immediately_done(self):
        points = expand_manifest(MANIFEST)
        coordinator = CampaignCoordinator(
            points, completed={p.key() for p in points}
        )
        assert list(coordinator.results()) == []
        assert coordinator.done


class TestLeaseLifecycle:
    def test_expired_lease_is_requeued_and_rerun(self):
        points = expand_manifest(
            {
                "trials": 12,
                "base_seed": 1,
                "entries": [
                    {"scenario": "attack/basic-cheat",
                     "grid": {"n": 16, "target": 5}},
                ],
            }
        )
        expected = single_host_rows(points)
        coordinator = CampaignCoordinator(
            points, lease_trials=4, lease_ttl=0.05
        )
        swallowed = []

        def fail(lease):
            # The first node to see range [4, 8) dies holding it.
            if lease["start"] == 4 and not swallowed:
                swallowed.append(lease["lease"])
                return True
            return False

        assert drive(coordinator, nodes=2, fail=fail) == expected
        assert swallowed, "the failure injection must have fired"
        expired = coordinator.metrics.counter("repro_leases_expired_total")
        assert expired.value() >= 1

    def test_duplicate_report_is_dropped_not_double_counted(self):
        points = expand_manifest(
            {
                "trials": 6,
                "base_seed": 0,
                "entries": [
                    {"scenario": "attack/basic-cheat",
                     "grid": {"n": 16, "target": 5}},
                ],
            }
        )
        coordinator = CampaignCoordinator(points, lease_trials=3)
        pool = WorkerPool(1)
        try:
            node = coordinator.register(name="dup")["node"]
            reports = []
            while not coordinator.done:
                answer = coordinator.lease(node)
                for lease in answer["leases"]:
                    report = lease_fold(lease, pool)
                    report["node"] = node
                    assert coordinator.report(report)["status"] == "accepted"
                    reports.append(report)
                if not answer["leases"] and not answer["done"]:
                    time.sleep(0.005)
            # Replays: the point finalized, so its ranges are purged.
            for report in reports:
                assert coordinator.report(report)["status"] == "unknown"
        finally:
            pool.close()
        (row,) = [r.to_row() for r in coordinator.results()]
        assert row["trials"] == 6

    def test_partial_fold_is_rejected(self):
        points = expand_manifest(
            {
                "trials": 8,
                "base_seed": 0,
                "entries": [
                    {"scenario": "attack/basic-cheat",
                     "grid": {"n": 16, "target": 5}},
                ],
            }
        )
        coordinator = CampaignCoordinator(points, lease_trials=8)
        node = coordinator.register()["node"]
        (lease,) = coordinator.lease(node)["leases"]
        with pytest.raises(ConfigurationError):
            coordinator.report(
                {
                    "node": node,
                    "lease": lease["lease"],
                    "point": lease["point"],
                    "start": lease["start"],
                    "end": lease["end"],
                    "counts": {"5": 3},
                    "successes": 3,
                    "steps_total": 9,
                    "trials": 3,  # != end - start
                }
            )

    def test_report_rejects_bool_smuggled_integers(self):
        points = expand_manifest(
            {
                "trials": 4,
                "base_seed": 0,
                "entries": [
                    {"scenario": "attack/basic-cheat",
                     "grid": {"n": 16, "target": 5}},
                ],
            }
        )
        coordinator = CampaignCoordinator(points, lease_trials=4)
        node = coordinator.register()["node"]
        (lease,) = coordinator.lease(node)["leases"]
        with pytest.raises(ConfigurationError):
            coordinator.report(
                {
                    "node": node,
                    "point": lease["point"],
                    "start": lease["start"],
                    "end": lease["end"],
                    "counts": {"5": 4},
                    "successes": True,
                    "steps_total": 12,
                    "trials": 4,
                }
            )

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"counts": [4]}, r"counts must be an object, got \[4\]"),
            ({"counts": {"lo": -1, "hi": 5}}, r"counts\['lo'\] must be >= 0"),
            ({"counts": {"hi": 3}}, "counts sum to 3 but the report claims 4"),
            ({"successes": 5}, r"successes \(5\) cannot exceed trials \(4\)"),
        ],
        ids=["counts-not-object", "negative-count", "counts-miss-trials",
             "successes-over-trials"],
    )
    def test_report_rejects_a_malformed_fold(self, fault, message):
        points = expand_manifest(
            {
                "trials": 4,
                "base_seed": 0,
                "entries": [
                    {"scenario": "attack/basic-cheat",
                     "grid": {"n": 16, "target": 5}},
                ],
            }
        )
        coordinator = CampaignCoordinator(points, lease_trials=4)
        node = coordinator.register()["node"]
        (lease,) = coordinator.lease(node)["leases"]
        with WorkerPool(1) as pool:
            report = dict(lease_fold(lease, pool), node=node)
        with pytest.raises(ConfigurationError, match=message):
            coordinator.report(dict(report, **fault))
        # The rejected report folded nothing: the range still takes
        # its one good report.
        assert coordinator.report(report)["status"] == "accepted"


ONE_POINT = {
    "trials": 12,
    "base_seed": 2,
    "entries": [
        {"scenario": "attack/basic-cheat", "grid": {"n": 16, "target": 5}},
    ],
}


class FakeClock:
    """Stands in for the ``time`` module inside ``coordinator``: its
    ``monotonic()`` moves only when a test advances it."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now


class TestReportGrants:
    """``/report`` with ``max_leases`` carries the node's next lease,
    so a node needs one ``/lease`` request to start and then one per
    empty poll. No sockets and no sleeps: the coordinator's clock is a
    :class:`FakeClock`."""

    @pytest.fixture()
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(
            importlib.import_module("repro.experiments.coordinator"),
            "time",
            clock,
        )
        return clock

    @pytest.fixture()
    def pool(self):
        with WorkerPool(1) as pool:
            yield pool

    @staticmethod
    def report_for(lease, pool, node, **extra):
        return dict(lease_fold(lease, pool), node=node, **extra)

    def test_report_grants_the_next_range_until_done(self, clock, pool):
        points = expand_manifest(ONE_POINT)
        coordinator = CampaignCoordinator(points, lease_trials=4)
        node = coordinator.register(name="r")["node"]
        (lease,) = coordinator.lease(node)["leases"]
        starts = [lease["start"]]
        while True:
            answer = coordinator.report(
                self.report_for(lease, pool, node, max_leases=1)
            )
            assert answer["status"] == "accepted"
            if answer["done"]:
                assert answer["leases"] == []
                break
            (lease,) = answer["leases"]
            starts.append(lease["start"])
        assert starts == [0, 4, 8]
        # The done answer came through lease(), which marks the node.
        assert coordinator.await_nodes_done(timeout=0.0)
        rows = [json.dumps(r.to_row(), sort_keys=True) for r in coordinator.results()]
        assert rows == single_host_rows(points)

    def test_report_without_max_leases_answers_status_alone(self, clock, pool):
        coordinator = CampaignCoordinator(
            expand_manifest(ONE_POINT), lease_trials=4
        )
        node = coordinator.register(name="old")["node"]
        (lease,) = coordinator.lease(node)["leases"]
        assert coordinator.report(self.report_for(lease, pool, node)) == {
            "status": "accepted"
        }

    def test_duplicate_report_still_grants(self, clock, pool):
        """A node re-sends a report whose answer it lost; the re-send
        folds nothing but still hands out work."""
        coordinator = CampaignCoordinator(
            expand_manifest(ONE_POINT), lease_trials=4
        )
        node = coordinator.register(name="dup")["node"]
        (lease,) = coordinator.lease(node)["leases"]
        report = self.report_for(lease, pool, node, max_leases=1)
        first = coordinator.report(report)
        again = coordinator.report(report)
        assert (first["status"], again["status"]) == ("accepted", "duplicate")
        assert [g["start"] for g in first["leases"] + again["leases"]] == [4, 8]
        trials = coordinator.metrics.counter("repro_trials_total")
        assert trials.value() == 4

    def test_lost_grant_expires_and_is_leased_again(self, clock, pool):
        coordinator = CampaignCoordinator(
            expand_manifest(ONE_POINT), lease_trials=4, lease_ttl=30.0
        )
        node = coordinator.register(name="lossy")["node"]
        (lease,) = coordinator.lease(node)["leases"]
        (lost,) = coordinator.report(
            self.report_for(lease, pool, node, max_leases=1)
        )["leases"]
        # The answer carrying ``lost`` never reached the node. Before the
        # TTL its range stays out on lease...
        clock.now += 29.0
        (other,) = coordinator.lease(node)["leases"]
        assert other["start"] != lost["start"]
        # ...and after it, the range is granted again under a new id.
        clock.now += 2.0
        answer = coordinator.report(
            self.report_for(other, pool, node, max_leases=1)
        )
        (again,) = answer["leases"]
        assert (again["start"], again["end"]) == (lost["start"], lost["end"])
        assert again["lease"] != lost["lease"]
        expired = coordinator.metrics.counter("repro_leases_expired_total")
        assert expired.value() == 1

    def test_report_rejects_a_bad_max_leases_before_folding(self, clock, pool):
        coordinator = CampaignCoordinator(
            expand_manifest(ONE_POINT), lease_trials=4
        )
        node = coordinator.register(name="bad")["node"]
        (lease,) = coordinator.lease(node)["leases"]
        report = self.report_for(lease, pool, node)
        for bad in (0, True, "1"):
            with pytest.raises(ConfigurationError, match="max_leases"):
                coordinator.report(dict(report, max_leases=bad))
        with pytest.raises(ConfigurationError, match="missing 'node'"):
            coordinator.report(dict(report, node=None, max_leases=1))
        assert coordinator.report(report)["status"] == "accepted"


class CountingCoordinator(CampaignCoordinator):
    """Counts empty grants: answers with no lease and ``done: false``."""

    def __init__(self, *args, **kwargs):
        self.empty = 0
        super().__init__(*args, **kwargs)

    def lease(self, node_id, max_leases=1):
        answer = super().lease(node_id, max_leases)
        if not answer["leases"] and not answer["done"]:
            self.empty += 1
        return answer


class TestOneRequestPerLease:
    def test_run_node_leases_once_plus_once_per_empty_poll(self):
        points = expand_manifest(MANIFEST)
        coordinator = CountingCoordinator(points, lease_trials=8)
        server = make_coordinator_server(coordinator)
        routes = server.RequestHandlerClass.routes
        lease_route, report_route = routes[("POST", "/lease")], routes[("POST", "/report")]
        requests = {"/lease": 0, "/report": 0}

        def counted(path, route):
            def call(body):
                requests[path] += 1
                return route(body)

            return call

        routes[("POST", "/lease")] = counted("/lease", lease_route)
        routes[("POST", "/report")] = counted("/report", report_route)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        host, port = server.server_address[:2]
        nodes, exit_codes = 2, []
        threads = [
            threading.Thread(
                target=lambda: exit_codes.append(
                    run_node(f"{host}:{port}", workers=1, poll=0.01, retries=2)
                )
            )
            for _ in range(nodes)
        ]
        try:
            for t in threads:
                t.start()
            rows = sorted(
                json.dumps(r.to_row(), sort_keys=True)
                for r in coordinator.results()
            )
            coordinator.await_nodes_done(timeout=5.0)
            for t in threads:
                t.join(timeout=30)
        finally:
            stop_server(server, loop)
        assert rows == single_host_rows(points)
        assert exit_codes == [0, 0]
        assert requests["/lease"] == nodes + coordinator.empty
        granted = coordinator.metrics.counter("repro_leases_granted_total")
        assert requests["/report"] == granted.value()


class TestHTTP:
    @pytest.fixture()
    def served(self):
        points = expand_manifest(MANIFEST)
        coordinator = CampaignCoordinator(points, lease_trials=16)
        server, thread = serve_coordinator(coordinator, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        try:
            yield coordinator, f"{host}:{port}", points
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_run_node_over_real_http_matches_single_host(self, served):
        coordinator, address, points = served
        expected = single_host_rows(points)
        exit_codes = []
        nodes = [
            threading.Thread(
                target=lambda: exit_codes.append(
                    run_node(address, workers=1, poll=0.01, retries=2)
                )
            )
            for _ in range(2)
        ]
        for t in nodes:
            t.start()
        rows = sorted(
            json.dumps(r.to_row(), sort_keys=True)
            for r in coordinator.results()
        )
        coordinator.await_nodes_done(timeout=5.0)
        for t in nodes:
            t.join(timeout=30)
        assert rows == expected
        assert exit_codes == [0, 0]

    def test_metrics_endpoint_is_valid_prometheus_text(self, served):
        coordinator, address, points = served
        run_node(address, workers=1, poll=0.01, retries=2, name="probe")
        list(coordinator.results())
        with urllib.request.urlopen(f"http://{address}/metrics") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            families = parse_text(resp.read().decode("utf-8"))
        total = sum(p.trials or 0 for p in points if p.budget is None)
        assert families["repro_trials_total"][0][1] >= total
        for family in (
            "repro_trials_per_second",
            "repro_lease_queue_depth",
            "repro_leases_active",
            "repro_node_per_trial_seconds",
            "repro_node_healthy",
            "repro_reports_total",
            "repro_http_disconnects_total",
        ):
            assert family in families
        ((labels, healthy),) = [
            s for s in families["repro_node_healthy"]
            if s[0].get("node", "").startswith("probe")
        ]
        assert healthy == 1

    def test_status_and_healthz(self, served):
        coordinator, address, _ = served
        with urllib.request.urlopen(f"http://{address}/healthz") as resp:
            assert json.loads(resp.read())["status"] == "ok"
        with urllib.request.urlopen(f"http://{address}/status") as resp:
            status = json.loads(resp.read())
        assert status["pending"] == status["points"]
        assert not status["done"]

    def test_infinite_elapsed_cannot_poison_the_node_cost(self, served):
        """JSON parses ``"elapsed": Infinity``; such a report still
        folds its trials, but its elapsed must not become the node's
        per-trial cost, or ``/status`` would emit the non-JSON token
        ``Infinity`` and ``/metrics`` a ``+Inf`` sample forever."""
        coordinator, address, _ = served
        client = CoordinatorClient(address)
        node = client.post("/register", {"name": "inf"})["node"]
        (lease,) = client.post("/lease", {"node": node})["leases"]
        with WorkerPool(1) as pool:
            report = lease_fold(lease, pool)
        # json.dumps writes float("inf") as the bare token Infinity.
        report.update(node=node, elapsed=float("inf"))
        assert client.post("/report", report)["status"] == "accepted"

        def strict(token):
            raise AssertionError(f"/status emitted non-JSON {token}")

        with urllib.request.urlopen(f"http://{address}/status") as resp:
            status = json.loads(resp.read().decode("utf-8"), parse_constant=strict)
        assert status["nodes"][node]["per_trial_seconds"] is None
        with urllib.request.urlopen(f"http://{address}/metrics") as resp:
            assert "Inf" not in resp.read().decode("utf-8")

    def test_client_surfaces_protocol_errors(self, served):
        _, address, _ = served
        client = CoordinatorClient(address)
        with pytest.raises(ConfigurationError, match="missing 'node'"):
            client.post("/lease", {})
        with pytest.raises(ConfigurationError, match="unknown path"):
            client.post("/nonsense", {})


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(coordinator, port=0):
    """A coordinator server on a daemon thread that records the peer
    address of every connection it accepts in ``server.peers``."""
    server = make_coordinator_server(coordinator, "127.0.0.1", port)
    server.peers = []
    accept = server.process_request

    def record(request, client_address):
        server.peers.append(client_address)
        accept(request, client_address)

    server.process_request = record
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestClientConnection:
    """The node's client keeps one HTTP/1.1 connection to the
    coordinator and reconnects once when a reused one was dropped."""

    @pytest.fixture()
    def live(self):
        server, thread = start_server(CampaignCoordinator([]))
        host, port = server.server_address[:2]
        client = CoordinatorClient(f"{host}:{port}")
        try:
            yield server, client
        finally:
            client.close()
            stop_server(server, thread)

    def test_posts_share_one_connection(self, live):
        server, client = live
        node = client.post("/register", {"name": "ka"})["node"]
        for _ in range(19):
            assert client.post("/lease", {"node": node})["done"]
        assert len(server.peers) == 1

    def test_round_trips_do_not_stall_on_nagle(self, live):
        """Headers and body written as two sends on a kept-alive
        connection without TCP_NODELAY wait out the peer's delayed ACK:
        about 40 ms per request, 2 s for these 50."""
        _, client = live
        node = client.post("/register", {"name": "fast"})["node"]
        started = time.perf_counter()
        for _ in range(50):
            client.post("/lease", {"node": node})
        assert time.perf_counter() - started < 1.0

    def test_coordinator_restart_costs_one_reconnect(self):
        port = free_port()
        first, thread = start_server(CampaignCoordinator([]), port)
        client = CoordinatorClient(f"127.0.0.1:{port}")
        try:
            assert client.post("/register", {"name": "a"})["node"]
            stop_server(first, thread)
            restarted = CampaignCoordinator([])
            second, thread = start_server(restarted, port)
            try:
                assert client.post("/register", {"name": "b"})["node"]
                assert len(second.peers) == 1
                assert list(restarted.status()["nodes"]) == ["b-1"]
            finally:
                stop_server(second, thread)
        finally:
            client.close()

    def test_refused_connection_raises_oserror(self):
        client = CoordinatorClient(f"127.0.0.1:{free_port()}")
        for _ in range(2):
            with pytest.raises(OSError):
                client.post("/register", {})

    def test_garbled_response_raises_oserror(self):
        """A peer that does not speak HTTP is connection trouble for the
        retry loop, not an ``http.client`` exception escaping it."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def answer():
                peer, _ = listener.accept()
                with peer:
                    peer.recv(65536)
                    peer.sendall(b"not http\r\n\r\n")

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            client = CoordinatorClient(f"127.0.0.1:{port}")
            with pytest.raises(OSError):
                client.post("/register", {})
            thread.join(timeout=5)

    @pytest.mark.parametrize("length", ["not-a-number", "-1"])
    def test_unread_body_closes_the_connection(self, live, length):
        """A bad Content-Length leaves the body unread; it must not be
        parsed as the next request on the kept-alive connection."""
        server, _ = live
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request(
                "POST", "/lease",
                body=f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n",
                headers={"Content-Length": length},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
            conn.request("GET", "/status")
            assert "nodes" in json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def test_non_json_body_is_rejected_not_registered(self):
        """A body that is not a JSON object is a 400, not an empty
        request: ``POST /register`` must not register a node."""
        coordinator = CampaignCoordinator([])
        server, thread = start_server(coordinator)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("POST", "/register", body="{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON object" in json.loads(response.read())["error"]
            assert coordinator.status()["nodes"] == {}
        finally:
            conn.close()
            stop_server(server, thread)


class TestCli:
    def test_campaign_coordinate_cli_matches_local_run(self, tmp_path):
        """``campaign --coordinate`` + an in-process node produce the
        same ``--out`` file a plain ``campaign`` run writes."""
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(MANIFEST))
        local = tmp_path / "local.jsonl"
        assert main(["campaign", str(manifest), "--out", str(local)]) == 0

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sharded = tmp_path / "sharded.jsonl"
        exit_codes = []

        def coordinate():
            exit_codes.append(
                main(
                    [
                        "campaign", str(manifest), "--coordinate",
                        "--listen", f"127.0.0.1:{port}",
                        "--lease-trials", "8",
                        "--out", str(sharded),
                    ]
                )
            )

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        assert run_node(
            f"127.0.0.1:{port}", workers=1, poll=0.01, retries=50,
            retry_delay=0.1,
        ) == 0
        coordinator.join(timeout=60)
        assert exit_codes == [0]
        assert sorted(local.read_text().splitlines()) == sorted(
            sharded.read_text().splitlines()
        )

    def test_coordinate_defaults_lease_trials(self, tmp_path):
        """A bare ``--coordinate`` (no ``--lease-trials``) falls back to
        the coordinator default instead of rejecting the unset flag."""
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(MANIFEST))
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        out = tmp_path / "default.jsonl"
        exit_codes = []

        def coordinate():
            exit_codes.append(
                main(
                    [
                        "campaign", str(manifest), "--coordinate",
                        "--listen", f"127.0.0.1:{port}",
                        "--out", str(out),
                    ]
                )
            )

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        assert run_node(
            f"127.0.0.1:{port}", workers=1, poll=0.01, retries=50,
            retry_delay=0.1,
        ) == 0
        coordinator.join(timeout=60)
        assert exit_codes == [0]
        assert sorted(out.read_text().splitlines()) == single_host_rows(
            expand_manifest(MANIFEST)
        )

    def test_coordinate_rejects_max_wall_clock(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(MANIFEST))
        with pytest.raises(SystemExit, match="max-wall-clock"):
            main(
                [
                    "campaign", str(manifest), "--coordinate",
                    "--max-wall-clock", "5",
                    "--out", str(tmp_path / "x.jsonl"),
                ]
            )
