"""F1 (Figure 1): honest-segment geometry across placements.

Figure 1 of the paper illustrates the adversary locations a_1..a_k and
the honest segments I_j between them — the geometry every attack's
feasibility condition is stated in. This bench tabulates the segment
profiles of the three placement families and checks each family meets
its attack's precondition:

- equal spacing: max l_j ≤ k-1 once k ≥ √n (Lemma 4.1's condition);
- cubic staircase: l_i ≤ l_{i+1} + (k-1), l_k ≤ k-1 (Thm 4.3);
- random: max l_j concentrates near its logarithmic envelope (Thm C.1)
  — estimated as the ``placement/random-segments`` scenario on the
  experiment runner (one i.i.d. placement per trial).
"""

import math

from repro.analysis.segments import segment_statistics
from repro.attacks import RingPlacement
from repro.analysis.scenarios import segment_probability
from repro.experiments import run_scenario


def test_f1_segment_geometry(benchmark, experiment_report):
    rows = []
    for n in (64, 144, 256):
        k = math.isqrt(n)
        stats = segment_statistics(RingPlacement.equal_spacing(n, k))
        rows.append(
            f"equal  n={n:<4} k={k:<3} l in [{stats.min_length},"
            f"{stats.max_length}] rushing_feasible={stats.rushing_feasible}"
        )
        assert stats.rushing_feasible
    experiment_report("F1a equal-spacing profiles", rows)

    rows = []
    for k in (5, 7, 9):
        n = k + (k - 1) * k * (k + 1) // 2
        stats = segment_statistics(RingPlacement.cubic(n, k))
        rows.append(
            f"cubic  n={n:<4} k={k:<3} staircase={list(stats.lengths)} "
            f"cubic_feasible={stats.cubic_feasible}"
        )
        assert stats.cubic_feasible
    experiment_report("F1b cubic staircase profiles", rows)

    rows = []
    for n in (256, 400):
        params = {"n": n, "p": None}
        result = run_scenario(
            "placement/random-segments", trials=12, params=params
        )
        maxima = [t.outcome for t in result.outcomes if t.outcome > 0]
        mean_max = sum(maxima) / len(maxima)
        # Extreme-value envelope: the max of ~np geometric(p) gaps
        # concentrates below ~ln(n)/p (the log factor in Thm C.1).
        p = segment_probability(result.params)
        envelope = math.log(n) / p
        rows.append(
            f"random n={n:<4} p={p:.3f} mean max l_j={mean_max:.1f} "
            f"ln(n)/p≈{envelope:.1f} under-envelope "
            f"rate={result.success_rate:.2f}"
        )
        assert mean_max <= envelope
    experiment_report("F1c random-placement segment maxima", rows)

    benchmark(
        lambda: segment_statistics(RingPlacement.equal_spacing(400, 20))
    )
