"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They check the parts a wrong benchmark would get wrong silently: that
output checks catch a corrupted row or answer (the negative controls),
that the inputs are a function of the seed, that the last line has
exactly the agreed shape, and that a directory without the program
fails instead of printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench

bench.require_program()

import campaigns  # noqa: E402 - needs the program on the path
import serve_mixed  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.campaign import expand_manifest  # noqa: E402
from repro.experiments.chunking import AdaptiveChunker  # noqa: E402
from repro.experiments.pool import WorkerPool  # noqa: E402
from repro.experiments.store import ResultStore  # noqa: E402

TINY = {
    "trials": 8,
    "base_seed": 3,
    "entries": [
        {"scenario": "honest/alead-uni", "grid": {"n": 8}},
        {"scenario": "cointoss/biased-coin", "grid": {"n": 8, "target": 5}},
        {"scenario": "sync/broadcast", "grid": {"n": 4}},
    ],
}


@pytest.fixture
def work():
    path = bench.work_dir("tests")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_parallel_rows_match_serial_reference(work):
    points = expand_manifest(TINY)
    expected = campaigns.reference_rows(points)
    with WorkerPool(2) as pool:
        _, trials, lines = campaigns._local_round(
            points, pool, os.path.join(work, "r.db"), AdaptiveChunker()
        )
    outcome = bench.Outcome("test")
    campaigns.check_rows(outcome, expected, lines, "round")
    assert trials == 24
    assert outcome.attempted == len(points) and outcome.failed == 0


def test_one_corrupted_row_makes_failed_frac_positive():
    points = expand_manifest(TINY)
    expected = campaigns.reference_rows(points)
    row = json.loads(expected[0])
    row["successes"] += 1
    corrupted = [json.dumps(row, sort_keys=True)] + expected[1:]
    outcome = bench.Outcome("test")
    campaigns.check_rows(outcome, expected, corrupted, "round")
    assert outcome.failed_frac > 0
    assert outcome.failed == 2  # the missing row and the unexpected one


def test_wrong_serve_answer_is_counted(work):
    (point,) = expand_manifest(
        {"trials": 64, "entries": [{"scenario": "honest/alead-uni", "grid": {"n": 8}}]}
    )
    (line,) = campaigns.reference_rows([point])
    row = json.loads(line)
    path = os.path.join(work, "s.db")
    with ResultStore(path) as store:
        store.append_row(row)
    ident = serve_mixed.tracing.point_id(row["scenario"], row["params"])
    answer = {"source": "store", "scenario": row["scenario"], "trials": row["trials"]}
    good = dict(answer, successes=row["successes"])
    bad = dict(answer, successes=row["successes"] - 1)

    def request(body, status=200):
        return serve_mixed.Request(
            0, "plain", "hit", row["scenario"], dict(point.params), 0.0, 0.001,
            status, json.dumps(body).encode(),
        )

    outcome = bench.Outcome("test")
    serve_mixed._check_responses(
        outcome, [request(good), request(bad), request(good, status=500)],
        {ident: row}, path, 0, None,
    )
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_inputs_are_a_function_of_the_seed():
    for make in (
        workloads.ring_executor,
        workloads.kernel_grid,
        workloads.sharded_lease,
        workloads.serve_prefill,
    ):
        assert make(7) == make(7)
        assert make(7) != make(8)
    assert 45 <= len(expand_manifest(workloads.kernel_grid(1))) <= 55
    misses = workloads.serve_misses(7, 0) + workloads.serve_misses(7, 1)
    assert len(misses) >= 3000
    keys = {(s, json.dumps(p, sort_keys=True)) for s, p in misses}
    assert len(keys) == len(misses)  # distinct, and disjoint between clients
    prefill = {
        (p.scenario, json.dumps(p.params, sort_keys=True))
        for p in expand_manifest(workloads.serve_prefill(7))
    }
    assert not keys & prefill


def test_result_line_shape():
    outcome = bench.Outcome("test")
    outcome.check(True, "ok")
    outcome.e2e["setup_s"] = (0.5, "s")
    line = json.loads(bench.result_line(outcome, [("setup_s", "s")]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}
    assert line["correct"] is True


def test_traced_run_prints_every_per_layer_metric():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-grid",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert "trace overhead points_per_s" in proc.stdout


def test_fails_without_the_program():
    alone = os.path.join(bench.OUT_DIR, "alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    try:
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(
            os.path.dirname(os.path.abspath(__file__)),
            os.path.join(alone, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ring-executor",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, env=env, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
