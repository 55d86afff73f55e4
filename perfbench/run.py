"""The repository's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ring-executor --seed 1 --seconds 10 --trace 0

Workloads: ``ring-executor``, ``kernel-grid``, ``serve-mixed``,
``sharded-lease`` (see ``perfbench/README.md``). The run prints a
human-readable report — host block, every end-to-end metric with its
unit, and with ``--trace 1`` every per-layer metric, each layer's self
time and the tracing overhead — and, as its last line, one JSON object
with the metrics ``BENCHMARK.json`` names: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. The full result
(host block included) is kept in ``.perfbench_out/``; traced runs also
write their spans there.

Exit status is 0 when the run measured; 2 when the checkout holds no
program to measure; 1 on any other error. A run whose outputs mismatch
still exits 0, with ``"correct": false`` and the mismatches counted in
``failed``.
"""

import argparse
import json
import os
import sys

import bench

WORKLOADS = ("ring-executor", "kernel-grid", "serve-mixed", "sharded-lease")


def _run(workload: str, seed: int, seconds: float, trace: bool) -> bench.Outcome:
    import campaigns
    import serve_mixed
    import workloads

    if workload == "ring-executor":
        return campaigns.run_local(workload, workloads.ring_executor(seed), seconds, trace)
    if workload == "kernel-grid":
        return campaigns.run_local(workload, workloads.kernel_grid(seed), seconds, trace)
    if workload == "serve-mixed":
        return serve_mixed.run_serve(seed, seconds, trace)
    return campaigns.run_sharded(workloads.sharded_lease(seed), seconds, trace)


def _report(outcome: bench.Outcome, host: dict) -> None:
    print(f"host {json.dumps(host, sort_keys=True)}")
    outcome.e2e["failed_frac"] = (outcome.failed_frac, "ratio")
    for name, (value, unit) in sorted(outcome.e2e.items()):
        print(f"e2e   {name:26s} {value:.6g} {unit}")
    print(f"checks: {outcome.failed} of {outcome.attempted} failed")
    if "round_seconds" in outcome.extra:
        rounds = " ".join(f"{s:.3f}" for s in outcome.extra["round_seconds"])
        print(f"round seconds: {rounds}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in sorted(outcome.layers.items()):
        print(f"layer {name:32s} {value:.6g} {unit}")
    traced = outcome.extra.get("traced_e2e")
    if traced:
        overhead = {}
        for name, value in sorted(traced.items()):
            base = outcome.e2e[name][0]
            overhead[name] = value - base
            share = f"{(value - base) / base:+.1%}" if base else "n/a"
            print(
                f"trace overhead {name:22s} untraced {base:.6g} "
                f"traced {value:.6g} diff {value - base:+.6g} ({share})"
            )
        outcome.extra["trace_overhead"] = overhead
    if outcome.tracer is not None:
        import tracing

        print("self time by layer (traced passes):")
        for line in tracing.self_time_lines(outcome.tracer):
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench.require_program()
    except bench.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    host = bench.host_block()
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(outcome, host)
    if outcome.tracer is not None:
        spans = os.path.join(
            bench.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        outcome.tracer.dump(spans)
        print(f"spans written to {os.path.relpath(spans, bench.ROOT)}")
    path = bench.write_result(outcome, args.seed, args.trace, host)
    print(f"result written to {os.path.relpath(path, bench.ROOT)}")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(bench.result_line(outcome, [(m["name"], m["unit"]) for m in metrics]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
