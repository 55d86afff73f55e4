"""Work orders: a chunk ships its trials as a ``range``, not a tuple.

A :class:`~repro.experiments.runner.ChunkPayload` crosses the pool pipe
once per chunk, and a :class:`~repro.experiments.runner.ChunkFold`
comes back, so neither may grow with the chunk's trial count:

- cutting a million-trial point gives payloads whose ``indices`` are a
  ``range``, and each payload and each chunk's fold pickles under
  256 bytes;
- a range payload folds exactly as the same indices as a tuple do, on
  every kernel and on the scalar loop, and the fold survives the
  node-to-coordinator report codec (``to_report``/``from_report``) with
  only its outcome keys stringified;
- a ``keep_outcomes`` fold hands the range back as its ``indices``
  column, which :class:`~repro.experiments.campaign.PointState` still
  sorts by;
- no kernel loads numpy, so a worker's footprint is the stdlib's.
"""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.experiments import CampaignPoint, all_scenarios, get_scenario
from repro.experiments.campaign import PointState
from repro.experiments.runner import (
    ChunkFold,
    _run_chunk_folded,
    chunk_payloads,
    run_one_trial,
)

#: Smaller points for kernels whose scalar loop is slow at the defaults.
SMALL_PARAMS = {
    "attack/cubic": {"n": 34},
    "attack/random-location": {"n": 32},
}

#: Every batch-capable scenario, plus one that only has the scalar loop.
FOLD_NAMES = sorted(
    spec.name for spec in all_scenarios() if spec.run_batch is not None
) + ["honest/basic-lead"]


def cut(name, trials, keep_outcomes=False, **kwargs):
    spec = get_scenario(name)
    params = spec.resolve_params(SMALL_PARAMS.get(name, {}))
    return chunk_payloads(
        spec, params, 7, range(trials), keep_outcomes, workers=2, **kwargs
    )


def as_tuple(payload):
    return payload[:3] + (tuple(payload[3]),) + payload[4:]


def test_million_trial_point_ships_two_small_ranges():
    payloads = cut("cointoss/biased-coin", 10**6, chunk_size=500_000)
    assert [p[3] for p in payloads] == [range(500_000), range(500_000, 10**6)]
    for payload in payloads:
        assert type(payload[3]) is range
        assert len(pickle.dumps(payload)) < 256
        # The fold coming back is as small: IPC volume does not scale
        # with the trial count in either direction.
        fold = _run_chunk_folded(payload)
        assert fold.trials == 500_000
        assert len(pickle.dumps(fold)) < 256


@pytest.mark.parametrize("name", FOLD_NAMES)
def test_range_payload_folds_like_the_tuple(name):
    payloads = cut(name, 12, chunk_size=5)
    for payload in payloads:
        assert type(payload[3]) is range
        fold = _run_chunk_folded(payload)
        # Element 4 is the chunk's wall time, never part of a result.
        assert fold[:4] == _run_chunk_folded(as_tuple(payload))[:4]
        assert fold[3] == len(payload[3])
        # The report codec: only outcome keys change, to str(outcome).
        stringified = {str(outcome): n for outcome, n in fold.counts.items()}
        assert ChunkFold.from_report(fold.to_report()) == fold._replace(
            counts=stringified
        )


@pytest.mark.parametrize("name", ["cointoss/biased-coin", "honest/basic-lead"])
def test_kept_outcomes_carry_the_range_and_sort(name):
    payloads = cut(name, 12, keep_outcomes=True, chunk_size=5)
    spec = get_scenario(payloads[0][0])
    params = payloads[0][1]
    state = PointState(0, CampaignPoint(spec.name, params, 12, 7, None, None), spec)
    for payload in reversed(payloads):  # arrival order is not trial order
        fold = _run_chunk_folded(payload)
        assert fold[5] == payload[3] and type(fold[5]) is range
        assert fold[6:] == _run_chunk_folded(as_tuple(payload))[6:]
        state.fold(fold)
    assert state.finalize().outcomes == [
        run_one_trial(spec, params, 7, i) for i in range(12)
    ]


def test_running_a_kernel_leaves_numpy_unloaded():
    """The placement kernel draws from ``random.Random``: a worker that
    ran it has imported no numpy."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from repro.experiments import get_scenario\n"
        "from repro.experiments.runner import _run_chunk_folded\n"
        "params = get_scenario('placement/random-segments').resolve_params({})\n"
        "fold = _run_chunk_folded(\n"
        "    ('placement/random-segments', params, 3, range(64), False, None, True)\n"
        ")\n"
        "assert fold[3] == 64, fold\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
