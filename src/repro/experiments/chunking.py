"""The observed cost model: per-trial seconds, and chunks sized from them.

The static heuristic the runner shipped with — ~4 chunks per worker —
sizes chunks by *trial count*, which was the right proxy when every
trial cost roughly the same. PR 6's batch kernels broke that premise by
two orders of magnitude: a biased-coin trial folds in under a
microsecond while an executor-backed ring trial still takes ~11 ms, so
one heuristic now either shreds cheap work into dispatch confetti (an
adaptive budget's 32-trial batch becomes sixteen 2-trial chunks, each
paying a pool round-trip for 30 µs of arithmetic) or would starve
deadline responsiveness on slow scenarios if simply made coarser.

:class:`AdaptiveChunker` replaces the proxy with the quantity the
heuristic was always approximating: **wall-seconds per chunk**. It is
the one cost model of the system — an EWMA of per-trial seconds per
cost key (a scenario's kernel path and its scalar loop are separate
keys, see :func:`~repro.experiments.runner.cost_key`), which the
coordinator keeps per node, ``campaign --dry-run`` prices points by,
and the ``--out`` store persists (its ``timings`` table seeds it
across runs, and every folded chunk sharpens it in-run). Chunks are
sized toward :data:`TARGET_CHUNK_SECONDS`, floored at
:data:`MIN_CHUNK_SECONDS` so cheap scenarios are never shredded for load
balance, and capped at an even split across the workers so expensive
ones still parallelise.
Keys the model has never seen fall back to the caller's cold rule
(returning ``None`` here; :func:`~repro.experiments.runner.chunk_payloads`
splits a kernel range at most once per worker, in chunks of at most
:data:`CALIBRATION_TRIALS`, and a scalar-loop range ~4 times per
worker), optionally after a bounded *calibration* chunk — see
:meth:`AdaptiveChunker.calibration_trials`.

The contract that makes all of this free to take: **chunking never
affects results**. Trial ``i``'s seed is a pure function of
``(base_seed, i)`` and chunk folds are commutative counters, so the
rows are byte-identical however the index range is sliced — the
1-vs-4-worker determinism and golden-row suites pin it. Chunk sizing
may therefore depend on wall-clock measurements without ever
threatening reproducibility: it is scheduling metadata.
"""

import math
import threading
from typing import Any, Dict, List, Optional

#: Wall-seconds one chunk should cost: coarse enough that dispatch and
#: kernel-call overhead vanish next to trial work, fine enough that
#: deadline checks (``--point-timeout``) and pool rebalancing happen a
#: few times a second.
TARGET_CHUNK_SECONDS = 0.25

#: Wall-seconds below which a chunk is not worth a dispatch: the
#: load-balance split (one chunk per worker) is ignored rather than
#: produce chunks cheaper than this — shipping 30 µs of kernel work to
#: four processes is how the static heuristic lost its factor.
MIN_CHUNK_SECONDS = 0.05

#: EWMA weight of the newest observation.
ALPHA = 0.5

#: Trials in the calibration chunk of a scenario the model has never
#: seen: big enough to amortise per-chunk overhead out of the first
#: per-trial estimate, small enough that probing an unknown (possibly
#: ~10 ms per trial) scenario stays a few seconds at worst. Being the
#: largest chunk ever shipped blind, it also caps cold kernel chunks.
CALIBRATION_TRIALS = 256


def _positive(value: Any) -> bool:
    """Whether ``value`` is a finite positive number (bools excluded)."""
    # `not >` plus isfinite (instead of `<= 0`): JSON and SQLite happily
    # hand back NaN/Infinity, and one such value folded into the EWMA
    # would poison every estimate — and the sort built on them — forever.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value > 0
        and math.isfinite(value)
    )


class AdaptiveChunker:
    """Observed per-trial seconds, and the chunk sizes they imply.

    :meth:`estimate_seconds` prices a key the model has seen at
    ``planned trials × EWMA per-trial seconds``, and an unseen key not
    at all.

    Thread-safe: the estimate service observes folds from many request
    threads against one chunker. The model is a pure fold over
    observation order. Estimates are scheduling metadata only; rows and
    resume keys never see them.

    Every method's ``scenario`` argument is a cost key: the scenario
    name, or its scalar-path key when a kernel-capable scenario runs the
    per-trial loop (:func:`~repro.experiments.runner.cost_key`).
    ``chunk_size`` answers with ``None`` for keys the model has no
    evidence about — the caller (:func:`~repro.experiments.runner.
    chunk_payloads`) falls back to its cold rule, and an explicit user
    ``chunk_size`` always wins before either is consulted.
    """

    #: Lock discipline, checked by ``python -m repro lint`` (R201): the
    #: EWMA state is read by every dispatching thread and written by
    #: observe() — PR 9 fixed exactly this class of unlocked-read bug by
    #: hand.
    _GUARDED_BY = {"_per_trial": "_lock"}

    def __init__(self):
        self._per_trial: Dict[str, float] = {}
        self._lock = threading.Lock()

    def per_trial_seconds(self, scenario: str) -> Optional[float]:
        """The scenario's EWMA per-trial seconds (None when unseen)."""
        with self._lock:
            return self._per_trial.get(scenario)

    def scenarios(self) -> List[str]:
        """Sorted scenario names with an observed cost (the ``/metrics``
        per-scenario cost gauge iterates this)."""
        with self._lock:
            return sorted(self._per_trial)

    def observe(self, scenario: Any, trials: Any, elapsed: Any) -> bool:
        """Fold one measured ``(trials, elapsed)`` into the model.

        Returns whether the observation was accepted. Foreign or
        non-positive values are *rejected*, not raised — stored timings
        may be damaged and a clock may hiccup, and either must only
        cost the model an observation, never the campaign a run.
        """
        if not isinstance(scenario, str):
            return False
        if not isinstance(trials, int) or isinstance(trials, bool) or trials <= 0:
            return False
        if not _positive(elapsed):
            return False
        per = elapsed / trials
        with self._lock:
            prev = self._per_trial.get(scenario)
            self._per_trial[scenario] = (
                per if prev is None else ALPHA * per + (1 - ALPHA) * prev
            )
        return True

    def estimate_seconds(self, scenario: str, planned_trials: int) -> Optional[float]:
        """Estimated wall-clock seconds for ``planned_trials`` trials of
        ``scenario`` (None when the model has not seen it)."""
        per = self.per_trial_seconds(scenario)
        return None if per is None else planned_trials * per

    def chunk_size(self, scenario: str, count: int, workers: int = 1) -> Optional[int]:
        """Trials per chunk for ``count`` trials of ``scenario``, or
        ``None`` when the model has no estimate (the caller falls back
        to its cold rule: at most one kernel chunk per worker, capped at
        :data:`CALIBRATION_TRIALS`, or ~4 scalar-loop chunks per
        worker).

        Three forces, in priority order:

        - chunks never exceed :data:`TARGET_CHUNK_SECONDS`
          (responsiveness: deadlines and rebalancing act at chunk
          boundaries);
        - subject to that, the range splits across the workers (load
          balance — trials of one point are uniform, so an even split
          is also the minimal-dispatch one);
        - but never below :data:`MIN_CHUNK_SECONDS` per chunk (cheap
          work is run in fewer, larger chunks instead of being shredded
          — splitting 30 µs of kernel time four ways buys nothing but
          IPC).
        """
        if count <= 0:
            return None
        with self._lock:
            per = self._per_trial.get(scenario)
        # observe() admits only finite positive costs, but a quotient of
        # a tiny elapsed and a huge trial count can still underflow to 0.
        if per is None or not per > 0:
            return None
        target = max(1, int(TARGET_CHUNK_SECONDS / per))
        balanced = math.ceil(count / max(workers, 1))
        floor = max(1, int(MIN_CHUNK_SECONDS / per))
        size = max(min(target, balanced), floor)
        return max(1, min(size, count))

    def calibration_trials(self, scenario: str, count: int) -> int:
        """Trials the runner should probe before chunking the remaining
        ``count - probe`` trials adaptively, or ``0`` when no probe is
        warranted (the scenario is already observed, or the range is too
        small for the split to pay for itself).

        The probe is the in-run feedback path: the first chunk of an
        unknown scenario runs at a bounded size, its fold's measured
        elapsed lands in the model, and the rest of the *same point* is
        then chunked from evidence instead of the count proxy.
        """
        if count <= 2 * CALIBRATION_TRIALS:
            return 0
        if self.per_trial_seconds(scenario) is not None:
            return 0
        return CALIBRATION_TRIALS
