"""The estimate service: stored results first, trials only on a miss.

The load-bearing guarantees, each pinned directly:

- a cached hit answers from the store without dispatching a single
  trial (proved by making trial-running impossible, not by timing);
- a cold miss runs one adaptive point, persists it, and the identical
  re-query is then a store hit;
- a read-only service refuses a cold miss instead of computing;
- numeric param spellings alias (``n=16.0`` hits rows under ``n=16``);
- a row that ran to its trial ceiling without converging is returned
  under its exact adaptive key with ``satisfied: false`` rather than
  recomputed forever;
- distinct cold points compute *concurrently* (a barrier inside a
  monkeypatched compute proves overlap — a global compute lock would
  deadlock it) while identical in-flight queries still coalesce to one
  compute;
- the HTTP layer maps these to 200/400/404/409 end to end over a real
  ephemeral-port server.
"""

import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.serve as serve_mod
from repro.experiments import ResultStore, run_scenario
from repro.httpd import JsonHTTPServer
from repro.metrics import parse_text
from repro.serve import ComputeRefused, EstimateService, make_server
from repro.util.errors import ConfigurationError

POINT = {"n": 16, "target": 5}
SCENARIO = "attack/basic-cheat"
# attack/basic-cheat at these params succeeds 2/2 at base_seed 0; the
# Wilson width of 2/2 is ~0.66, so ci_width=0.9 is satisfiable by a
# 2-trial row while ci_width=0.05 is far out of its reach.
WIDE, NARROW = 0.9, 0.05


def seeded_store(tmp_path, name="r.db"):
    store = ResultStore(str(tmp_path / name))
    row = run_scenario(SCENARIO, trials=2, params=dict(POINT)).to_row()
    assert store.append_row(row) == "stored"
    return store


def no_trials_allowed(monkeypatch):
    """Make dispatching trials an error: any cache 'hit' that computes
    fails loudly instead of silently passing."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("a cached query dispatched trials")

    monkeypatch.setattr(serve_mod, "run_campaign", boom)


class TestEstimateService:
    def test_cached_hit_runs_no_trials(self, tmp_path, monkeypatch):
        no_trials_allowed(monkeypatch)
        with seeded_store(tmp_path) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)
            answer = service.estimate(SCENARIO, dict(POINT), WIDE)
        assert answer["source"] == "store"
        assert answer["satisfied"] is True
        assert answer["trials"] == 2
        assert answer["width"] <= WIDE

    def test_numeric_aliasing_still_hits_the_cache(
        self, tmp_path, monkeypatch
    ):
        no_trials_allowed(monkeypatch)
        with seeded_store(tmp_path) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)
            answer = service.estimate(
                SCENARIO, {"n": 16.0, "target": 5.0}, WIDE
            )
        assert answer["source"] == "store"

    def test_cold_miss_computes_persists_then_hits(self, tmp_path):
        with seeded_store(tmp_path) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)
            try:
                cold = service.estimate(SCENARIO, {"n": 24, "target": 5}, WIDE)
                assert cold["source"] == "computed"
                assert cold["trials"] == 2  # the 2-trial adaptive point
                # persisted under fully resolved params (defaults in)
                assert len(store.lookup(
                    SCENARIO, {"cheater": 2, "n": 24, "target": 5}
                )) == 1
                again = service.estimate(
                    SCENARIO, {"n": 24, "target": 5}, WIDE
                )
                assert again["source"] == "store"
                assert again["trials"] == cold["trials"]
                assert again["successes"] == cold["successes"]
            finally:
                service.close()

    def test_read_only_miss_is_refused(self, tmp_path, monkeypatch):
        no_trials_allowed(monkeypatch)
        seeded_store(tmp_path).close()
        with ResultStore(str(tmp_path / "r.db"), read_only=True) as store:
            service = EstimateService(store)
            # read_only is inherited from the store, not just the flag
            assert service.read_only
            hit = service.estimate(SCENARIO, dict(POINT), WIDE)
            assert hit["source"] == "store"
            with pytest.raises(ComputeRefused):
                service.estimate(SCENARIO, {"n": 24, "target": 5}, WIDE)

    def test_unconverged_ceiling_row_is_returned_not_recomputed(
        self, tmp_path, monkeypatch
    ):
        """A point that ran to max_trials without reaching the width is
        stored under exactly the adaptive key this query would run;
        re-running it would spend the same trials to learn the same
        thing, so the service returns it with ``satisfied: false``."""
        with seeded_store(tmp_path) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)
            first = service.estimate(SCENARIO, dict(POINT), NARROW)
            assert first["source"] == "computed"
            assert first["satisfied"] is False  # 2 trials can't pin 0.05
            no_trials_allowed(monkeypatch)
            again = service.estimate(SCENARIO, dict(POINT), NARROW)
            assert again["source"] == "store"
            assert again["satisfied"] is False
            service.close()

    def test_malformed_requests_raise_configuration_error(self, tmp_path):
        with seeded_store(tmp_path) as store:
            service = EstimateService(store)
            for bad_width in (0, -0.1, 1.5, True, "wide", None):
                with pytest.raises(ConfigurationError):
                    service.estimate(SCENARIO, dict(POINT), bad_width)
            with pytest.raises(ConfigurationError):
                service.estimate("no/such-scenario", {}, WIDE)

    @pytest.mark.parametrize("bound", ["min_trials", "max_trials"])
    def test_impossible_trial_bounds_refused_at_start_up(self, tmp_path, bound):
        # No cold query could run under a zero bound: that is the
        # operator's error, not a 400 blamed on every client.
        with ResultStore(str(tmp_path / "r.db")) as store:
            with pytest.raises(ConfigurationError, match="min_trials"):
                EstimateService(store, **{bound: 0})


class TestConcurrentCompute:
    def test_distinct_cold_points_compute_concurrently(
        self, tmp_path, monkeypatch
    ):
        """Two cold queries for *different* points must both be inside
        their compute sections at the same time. The barrier makes this
        a proof, not a timing heuristic: under the old global compute
        lock the first thread would block at the barrier while holding
        the lock, the second could never enter, and both would die in
        ``BrokenBarrierError`` — per-point locks let both arrive."""
        barrier = threading.Barrier(2, timeout=10)

        def overlapping_campaign(points, pool=None, chunker=None, **kwargs):
            barrier.wait()
            point = points[0]
            yield run_scenario(
                point.scenario,
                trials=2,
                params=point.params,
                base_seed=point.base_seed,
                keep_outcomes=False,
            )

        monkeypatch.setattr(serve_mod, "run_campaign", overlapping_campaign)
        answers, errors = {}, []
        with ResultStore(str(tmp_path / "r.db")) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)

            def ask(n):
                try:
                    answers[n] = service.estimate(
                        SCENARIO, {"n": n, "target": 5}, WIDE
                    )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=ask, args=(n,)) for n in (16, 24)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        assert answers[16]["source"] == "computed"
        assert answers[24]["source"] == "computed"
        assert answers[16]["params"]["n"] == 16
        assert answers[24]["params"]["n"] == 24

    def test_identical_inflight_queries_coalesce(self, tmp_path, monkeypatch):
        """Identical queries racing a cold point run ONE compute: the
        loser of the lock re-probes the store and answers from the
        winner's just-persisted row."""
        computes = []
        entered = threading.Event()
        release = threading.Event()

        def gated_campaign(points, pool=None, chunker=None, **kwargs):
            computes.append(points[0].key())
            entered.set()
            assert release.wait(timeout=10)
            point = points[0]
            yield run_scenario(
                point.scenario,
                trials=2,
                params=point.params,
                base_seed=point.base_seed,
                keep_outcomes=False,
            )

        monkeypatch.setattr(serve_mod, "run_campaign", gated_campaign)
        answers = []
        with ResultStore(str(tmp_path / "r.db")) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)

            def ask():
                answers.append(
                    service.estimate(SCENARIO, dict(POINT), WIDE)
                )

            first = threading.Thread(target=ask)
            second = threading.Thread(target=ask)
            first.start()
            assert entered.wait(timeout=10)  # the winner is computing
            second.start()  # the loser queues on the same point lock
            release.set()
            first.join(timeout=30)
            second.join(timeout=30)
        assert len(computes) == 1  # one compute, not two
        assert sorted(a["source"] for a in answers) == ["computed", "store"]
        assert all(a["trials"] == 2 for a in answers)

    def test_lock_table_stays_empty_at_rest(self, tmp_path):
        """Entries are refcounted away: the table tracks in-flight
        points, not the query history."""
        with seeded_store(tmp_path) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)
            service.estimate(SCENARIO, {"n": 24, "target": 5}, WIDE)
            service.estimate(SCENARIO, dict(POINT), WIDE)
            assert service._locks == {}
            service.close()


@pytest.fixture
def http_service(tmp_path, monkeypatch):
    """A live ephemeral-port server over a seeded store, with trial
    dispatch forbidden — every request in these tests must be answered
    from the store or rejected."""
    no_trials_allowed(monkeypatch)
    store = seeded_store(tmp_path)
    service = EstimateService(store, min_trials=2, max_trials=2)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join()
    store.close()


def fetch(url, data=None):
    try:
        with urllib.request.urlopen(url, data=data) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHttpLayer:
    def test_healthz(self, http_service):
        status, payload = fetch(http_service + "/healthz")
        assert (status, payload) == (
            200, {"status": "ok", "read_only": False}
        )

    def test_estimate_get_coerces_query_params(self, http_service):
        status, payload = fetch(
            http_service
            + f"/estimate?scenario={SCENARIO}&ci_width={WIDE}&n=16&target=5"
        )
        assert status == 200
        assert payload["source"] == "store"
        assert payload["params"]["n"] == 16  # "16" coerced, not a string

    def test_estimate_post_json_body(self, http_service):
        body = json.dumps({
            "scenario": SCENARIO, "ci_width": WIDE, "params": POINT,
        }).encode()
        status, payload = fetch(http_service + "/estimate", data=body)
        assert status == 200
        assert payload["source"] == "store"

    def test_error_statuses(self, http_service):
        assert fetch(http_service + "/nope")[0] == 404
        assert fetch(http_service + "/estimate?ci_width=0.5")[0] == 400
        assert fetch(
            http_service + f"/estimate?scenario={SCENARIO}"
        )[0] == 400
        assert fetch(
            http_service + f"/estimate?scenario={SCENARIO}&ci_width=oops"
        )[0] == 400
        assert fetch(
            http_service + "/estimate?scenario=no/such&ci_width=0.5"
        )[0] == 400
        status, _ = fetch(http_service + "/scenarios")
        assert status == 200

    @pytest.mark.parametrize(
        "path, headers",
        [("/nope", {}), ("/estimate", {"Content-Length": "-1"})],
    )
    def test_unread_body_is_not_parsed_as_the_next_request(
        self, http_service, path, headers
    ):
        """An answer sent before the body was read closes the
        connection; on a kept-alive one the body used to be parsed as
        the next request, so ``GET /scenarios`` got the smuggled
        ``/healthz`` answer."""
        host, port = http_service.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.request(
                "POST", path,
                body=f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n",
                headers=headers,
            )
            response = conn.getresponse()
            assert response.status in (400, 404)
            assert response.getheader("Connection") == "close"
            response.read()
            conn.request("GET", "/scenarios")
            response = conn.getresponse()
            assert response.status == 200
            assert SCENARIO in json.loads(response.read())["scenarios"]
        finally:
            conn.close()

    def test_duplicate_query_params_are_rejected(self, http_service):
        """``?n=8&n=64`` used to silently last-win through
        ``dict(parse_qsl(...))``; ambiguity is now a 400."""
        status, payload = fetch(
            http_service
            + f"/estimate?scenario={SCENARIO}&ci_width={WIDE}"
            + "&n=8&n=64&target=5"
        )
        assert status == 400
        assert "duplicate query parameter" in payload["error"]
        assert "n" in payload["error"]

    def test_blank_query_value_is_rejected_not_dropped(self, http_service):
        """``&target=`` used to vanish from ``parse_qsl`` entirely,
        turning a typo into a silent default; it is now an explicit
        error naming the parameter."""
        status, payload = fetch(
            http_service
            + f"/estimate?scenario={SCENARIO}&ci_width={WIDE}"
            + "&n=16&target="
        )
        assert status == 400
        assert "target" in payload["error"]
        assert "blank" in payload["error"]

    def test_read_only_miss_maps_to_409(self, tmp_path, monkeypatch):
        no_trials_allowed(monkeypatch)
        seeded_store(tmp_path).close()
        store = ResultStore(str(tmp_path / "r.db"), read_only=True)
        server = make_server(EstimateService(store))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            status, _ = fetch(
                base + f"/estimate?scenario={SCENARIO}&ci_width={WIDE}"
                "&n=16&target=5"
            )
            assert status == 200  # cached reads still work
            status, payload = fetch(
                base + f"/estimate?scenario={SCENARIO}&ci_width={WIDE}"
                "&n=24&target=5"
            )
            assert status == 409
            assert "read-only" in payload["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
            store.close()


class TestForeignRows:
    def test_bool_successes_row_does_not_poison_the_cache(
        self, tmp_path, monkeypatch
    ):
        """``isinstance(True, int)`` holds, so a foreign row carrying
        ``"successes": true`` used to sail through the cache's integer
        guard and into the Wilson arithmetic. It must be skipped — a
        read-only service then *refuses* rather than answering from
        garbage."""
        no_trials_allowed(monkeypatch)
        with ResultStore(str(tmp_path / "r.db")) as store:
            row = run_scenario(SCENARIO, trials=2, params=dict(POINT)).to_row()
            row["successes"] = True
            assert store.append_row(row) == "stored"
        with ResultStore(str(tmp_path / "r.db"), read_only=True) as store:
            service = EstimateService(store, min_trials=2, max_trials=2)
            with pytest.raises(ComputeRefused):
                service.estimate(SCENARIO, dict(POINT), WIDE)


class TestDisconnects:
    @pytest.fixture()
    def live_service(self, tmp_path, monkeypatch):
        no_trials_allowed(monkeypatch)
        store = seeded_store(tmp_path)
        service = EstimateService(store, min_trials=2, max_trials=2)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield service, host, port
        server.shutdown()
        server.server_close()
        thread.join()
        store.close()

    def test_client_hangup_is_counted_not_a_traceback(self, live_service):
        """A client that disconnects before reading its response used to
        blow an unguarded ``wfile.write`` into a BrokenPipeError
        traceback on the server. It is now swallowed and counted, and
        the server keeps answering."""
        service, host, port = live_service
        path = (
            f"/estimate?scenario={SCENARIO}&ci_width={WIDE}&n=16&target=5"
        )
        assert service.disconnects.value() == 0
        sock = socket.create_connection((host, port), timeout=5)
        # RST on close (SO_LINGER 0): the server's response write hits a
        # dead connection deterministically instead of racing the FIN.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
        )
        sock.close()
        deadline = time.monotonic() + 5
        while (
            service.disconnects.value() == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert service.disconnects.value() >= 1
        # The server survived: a well-behaved request still answers.
        status, payload = fetch(f"http://{host}:{port}" + path)
        assert status == 200
        assert payload["source"] == "store"

    def test_reset_after_a_response_is_counted_not_a_traceback(
        self, live_service, monkeypatch
    ):
        """A kept-alive connection is read again after every response,
        so a peer that resets it then (a ``kill -9``'d node) raises on
        the read side. That is a disconnect, not a server error."""
        errors = []
        monkeypatch.setattr(
            JsonHTTPServer, "handle_error",
            lambda server, request, address: errors.append(address),
        )
        service, host, port = live_service
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(
            f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.status == 200
        response.read()
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        deadline = time.monotonic() + 5
        while (
            service.disconnects.value() == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert service.disconnects.value() == 1
        assert errors == []


class TestMetricsEndpoint:
    def test_metrics_render_store_hits_and_misses(self, http_service):
        hit = (
            f"/estimate?scenario={SCENARIO}&ci_width={WIDE}&n=16&target=5"
        )
        assert fetch(http_service + hit)[0] == 200
        assert fetch(http_service + hit)[0] == 200
        with urllib.request.urlopen(http_service + "/metrics") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            families = parse_text(resp.read().decode("utf-8"))
        assert families["repro_store_hits_total"][0][1] == 2
        for family in (
            "repro_store_misses_total",
            "repro_trials_total",
            "repro_trials_per_second",
            "repro_http_disconnects_total",
            "repro_pool_workers",
            "repro_inflight_computes",
        ):
            assert family in families
