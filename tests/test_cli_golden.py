"""Golden stdout of the ``run``, ``attack`` and ``bias`` commands.

Each case pins the exact stdout and exit code of one invocation, so a
change to how these commands build their executions (topology,
protocol, seed streams, step budget) or fold their trials cannot shift
a printed outcome, step count, failure reason or bias estimate without
failing here. The points are the ones ``tests/test_cli.py`` drives,
plus the step-budget and ``--workers 2`` variants.
"""

import pytest

from repro.cli import main

#: ``(argv, exit code, stdout)``.
CASES = [
    (
        "run --protocol basic-lead --n 6 --seed 0",
        0,
        "protocol : basic-lead (n=6, seed=0)\n"
        "outcome  : 1\n"
        "steps    : 36\n"
    ),
    (
        "run --protocol basic-lead --n 6 --seed 1",
        0,
        "protocol : basic-lead (n=6, seed=1)\n"
        "outcome  : 4\n"
        "steps    : 36\n"
    ),
    (
        "run --protocol basic-lead --n 6 --max-steps 3",
        1,
        "protocol : basic-lead (n=6, seed=0)\n"
        "outcome  : FAIL\n"
        "steps    : 3\n"
        "reason   : step budget exhausted after 3 deliveries\n"
    ),
    (
        "run --protocol alead-uni --n 6 --seed 0",
        0,
        "protocol : alead-uni (n=6, seed=0)\n"
        "outcome  : 1\n"
        "steps    : 36\n"
    ),
    (
        "run --protocol alead-uni --n 6 --seed 1",
        0,
        "protocol : alead-uni (n=6, seed=1)\n"
        "outcome  : 4\n"
        "steps    : 36\n"
    ),
    (
        "run --protocol alead-uni --n 6 --max-steps 3",
        1,
        "protocol : alead-uni (n=6, seed=0)\n"
        "outcome  : FAIL\n"
        "steps    : 3\n"
        "reason   : step budget exhausted after 3 deliveries\n"
    ),
    (
        "run --protocol phase-async --n 6 --seed 0",
        0,
        "protocol : phase-async (n=6, seed=0)\n"
        "outcome  : 5\n"
        "steps    : 72\n"
    ),
    (
        "run --protocol phase-async --n 6 --seed 1",
        0,
        "protocol : phase-async (n=6, seed=1)\n"
        "outcome  : 3\n"
        "steps    : 72\n"
    ),
    (
        "run --protocol phase-async --n 6 --max-steps 3",
        1,
        "protocol : phase-async (n=6, seed=0)\n"
        "outcome  : FAIL\n"
        "steps    : 3\n"
        "reason   : step budget exhausted after 3 deliveries\n"
    ),
    (
        "run --protocol async-complete --n 6 --seed 0",
        0,
        "protocol : async-complete (n=6, seed=0)\n"
        "outcome  : 1\n"
        "steps    : 60\n"
    ),
    (
        "run --protocol async-complete --n 6 --seed 1",
        0,
        "protocol : async-complete (n=6, seed=1)\n"
        "outcome  : 4\n"
        "steps    : 60\n"
    ),
    (
        "run --protocol async-complete --n 6 --max-steps 3",
        1,
        "protocol : async-complete (n=6, seed=0)\n"
        "outcome  : FAIL\n"
        "steps    : 3\n"
        "reason   : step budget exhausted after 3 deliveries\n"
    ),
    (
        "attack --name basic-cheat --n 8 --target 3",
        0,
        "attack   : basic-cheat (n=8, target=3)\n"
        "outcome  : 3 (FORCED)\n"
    ),
    (
        "attack --name basic-cheat --n 8 --target 3 --max-steps 2",
        1,
        "attack   : basic-cheat (n=8, target=3)\n"
        "outcome  : FAIL (not forced)\n"
        "reason   : step budget exhausted after 2 deliveries\n"
    ),
    (
        "attack --name rushing --n 25 --target 5",
        0,
        "attack   : rushing (n=25, target=5)\n"
        "outcome  : 5 (FORCED)\n"
    ),
    (
        "attack --name random-location --n 256 --target 9 --seed 2",
        0,
        "attack   : random-location (n=256, target=9)\n"
        "outcome  : 9 (FORCED)\n"
    ),
    (
        "attack --name cubic --n 34 --k 4 --target 9",
        0,
        "attack   : cubic (n=34, target=9)\n"
        "outcome  : 9 (FORCED)\n"
    ),
    (
        "attack --name partial-sum --n 28 --target 2",
        0,
        "attack   : partial-sum (n=28, target=2)\n"
        "outcome  : 2 (FORCED)\n"
    ),
    (
        "attack --name phase-rushing --n 36 --target 4",
        0,
        "attack   : phase-rushing (n=36, target=4)\n"
        "outcome  : 4 (FORCED)\n"
    ),
    (
        "attack --name shamir-pool --n 8 --target 6",
        0,
        "attack   : shamir-pool (n=8, target=6)\n"
        "outcome  : 6 (FORCED)\n"
    ),
    (
        "bias --protocol basic-lead --n 6 --trials 60",
        0,
        "protocol : basic-lead (n=6, 60 trials)\n"
        "fail rate: 0.0000\n"
        "max Pr   : 0.2500 (1/n = 0.1667)\n"
        "epsilon  : 0.0833\n"
        "chi2 p   : 0.2521\n"
    ),
    (
        "bias --protocol alead-uni --n 6 --trials 60",
        0,
        "protocol : alead-uni (n=6, 60 trials)\n"
        "fail rate: 0.0000\n"
        "max Pr   : 0.2500 (1/n = 0.1667)\n"
        "epsilon  : 0.0833\n"
        "chi2 p   : 0.2521\n"
    ),
    (
        "bias --protocol phase-async --n 6 --trials 60",
        0,
        "protocol : phase-async (n=6, 60 trials)\n"
        "fail rate: 0.0000\n"
        "max Pr   : 0.2500 (1/n = 0.1667)\n"
        "epsilon  : 0.0833\n"
        "chi2 p   : 0.0407\n"
    ),
    (
        "bias --protocol async-complete --n 6 --trials 60",
        0,
        "protocol : async-complete (n=6, 60 trials)\n"
        "fail rate: 0.0000\n"
        "max Pr   : 0.2500 (1/n = 0.1667)\n"
        "epsilon  : 0.0833\n"
        "chi2 p   : 0.2521\n"
    ),
    (
        "bias --protocol alead-uni --n 6 --trials 60 --workers 2",
        0,
        "protocol : alead-uni (n=6, 60 trials)\n"
        "fail rate: 0.0000\n"
        "max Pr   : 0.2500 (1/n = 0.1667)\n"
        "epsilon  : 0.0833\n"
        "chi2 p   : 0.2521\n"
    ),
    (
        "bias --protocol alead-uni --n 8 --trials 5 --max-steps 2",
        1,
        "protocol : alead-uni (n=8, 5 trials)\n"
        "fail rate: 1.0000\n"
        "max Pr   : 0.0000 (1/n = 0.1250)\n"
        "epsilon  : 0.0000\n"
        "chi2 p   : 1.0000\n"
    ),
]


@pytest.mark.parametrize(
    "argv, code, stdout", CASES, ids=[argv for argv, _, _ in CASES]
)
def test_golden_stdout(argv, code, stdout, capsys):
    assert main(argv.split()) == code
    assert capsys.readouterr().out == stdout
