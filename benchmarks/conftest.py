"""Shared helpers for the benchmark/experiment harness.

Every bench file reproduces one paper claim (E1–F2, A1–A6; the
`benchmarks/` row of the README's repository layout). The pattern: a
pytest-benchmark measurement of the representative workload,
plus printed series mirroring the quantity the paper's theorem states
(success probabilities, bias, thresholds). Shape assertions are included
so `pytest benchmarks/ --benchmark-only` doubles as a regression gate on
the scientific claims, not just on speed.
"""

import pytest


def report(title: str, rows) -> None:
    """Uniform experiment output: one table per experiment."""
    print(f"\n[{title}]")
    for row in rows:
        print("   ", row)


@pytest.fixture
def experiment_report(capsys):
    """Print experiment tables past pytest's capture, so the regenerated
    paper-shaped series appear in ``pytest benchmarks/`` output (and in
    bench_output.txt) even on passing runs."""

    def _report(title: str, rows) -> None:
        with capsys.disabled():
            report(title, rows)

    return _report
