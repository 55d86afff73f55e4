"""The distributed campaign: coordinator, leases, nodes, and identity.

The load-bearing assertion is byte-identity: a campaign sharded across
any number of nodes at any lease size — including after a node dies
mid-lease — emits exactly the rows the single-host orchestrator does.
Everything else (exactly-once folding, expiry, the HTTP protocol, the
``/metrics`` surface) exists in service of that contract.
"""

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
