"""Measurement toolkit: outcome distributions, bias, synchronization.

These are the instruments behind the experiments in ``benchmarks/``:

- :mod:`repro.analysis.distribution` — outcome histograms (what every
  :func:`repro.experiments.run_scenario` estimate folds into), chi-square
  uniformity tests, fail rates;
- :mod:`repro.analysis.bias` — the paper's ε (``max_j Pr[outcome=j] - 1/n``)
  read off a histogram;
- :mod:`repro.analysis.sync` — ``Sent_i^t`` synchronization-gap series
  (Section 5's ``m``-synchronization measure);
- :mod:`repro.analysis.segments` — honest-segment geometry statistics
  (Figure 1's quantities).
"""

from repro.analysis.distribution import (
    OutcomeDistribution,
    chi_square_uniformity,
)
from repro.analysis.bias import BiasReport
from repro.analysis.sync import sync_gap_for, honest_sync_profile, max_send_lead
from repro.analysis.segments import segment_statistics, SegmentStats
from repro.analysis.lemma33 import Lemma33Verdict, lemma33_verdict, honest_secret
from repro.analysis.frontier import (
    FrontierPoint,
    forcing_frontier,
    smallest_forcing_coalition,
)
from repro.analysis.stats import (
    Proportion,
    proportion,
    proportions_differ,
    wilson_interval,
)
from repro.analysis.render import render_sync_timeline, trace_to_dicts

__all__ = [
    "OutcomeDistribution",
    "chi_square_uniformity",
    "BiasReport",
    "sync_gap_for",
    "honest_sync_profile",
    "max_send_lead",
    "segment_statistics",
    "SegmentStats",
    "Lemma33Verdict",
    "lemma33_verdict",
    "honest_secret",
    "FrontierPoint",
    "forcing_frontier",
    "smallest_forcing_coalition",
    "Proportion",
    "proportion",
    "proportions_differ",
    "wilson_interval",
    "render_sync_timeline",
    "trace_to_dicts",
]
