"""Statistical-contract tests: estimates vs the paper's analytic values.

The golden-row and determinism suites pin the engine's *reproducibility*
— the same request always yields byte-identical rows. None of that would
notice if every row were reproducibly *wrong*: a bias in the per-trial
seed derivation, a success predicate drifting off its scenario, or a
fold miscounting successes would sail through byte-identity checks.

This layer closes that gap for the scenarios whose success probabilities
the paper gives in closed form: the uniform honest A-LEADuni election
(every id at rate 1/n), the fair coin extracted from an honest
election (Theorem 8.1), the deterministically forced biased coin, the
uniform synchronous broadcast election, Saks' pass-the-baton game
against the greedy coalition (computed exactly by a tiny Markov-chain
DP below, independent of the simulation code), and the sequential coin
game's exact backward induction (cross-checked against a closed-form
binomial tail).

Each contract runs the scenario at a fixed seed and asserts the
estimate's own 99% Wilson interval contains the analytic value — at one
worker and at four, through one shared pool. The checks are fully
deterministic (fixed seed, worker-invariant rows), so a failure is a
real regression, never test flake; the (seed, trials) pairs below were
chosen once and verified against the 99% band. Run just this layer with
``pytest -m statistical``.
"""

import math
from functools import lru_cache

import pytest

from repro.analysis.stats import wilson_interval
from repro.experiments import WorkerPool, run_scenario

pytestmark = pytest.mark.statistical

#: Two-sided 99% normal critical value: the contracts' Wilson z.
Z99 = 2.576


# ----------------------------------------------------------------------
# Analytic values, derived independently of the simulation code
# ----------------------------------------------------------------------


def baton_coalition_win(n: int, k: int) -> float:
    """Exact Pr[leader in coalition] for the greedy baton deviation.

    The game state reduces to ``(honest unheld, coalition unheld,
    holder-is-coalition)``: coalition holders burn an honest unheld
    player whenever one exists, honest holders pass uniformly over all
    unheld, and the leader is the last player added — so the chain below
    is an exact description of ``repro.fullinfo.baton.pass_the_baton``'s
    rules without sharing a line of its code.
    """

    @lru_cache(maxsize=None)
    def win(h: int, c: int, holder_coalition: bool) -> float:
        if h == 0 and c == 0:
            return 1.0 if holder_coalition else 0.0
        if holder_coalition:
            return win(h - 1, c, False) if h > 0 else win(h, c - 1, True)
        total = h + c
        p = 0.0
        if h:
            p += (h / total) * win(h - 1, c, False)
        if c:
            p += (c / total) * win(h, c - 1, True)
        return p

    # Start holder uniform over all n players; guard each branch so a
    # zero-probability start (k = 0 or k = n) is never evaluated.
    p = 0.0
    if n > k:
        p += ((n - k) / n) * win(n - k - 1, k, False)
    if k:
        p += (k / n) * win(n - k, k - 1, True)
    return p


def majority_forced_probability(n: int, k: int) -> float:
    """Closed-form forced probability for ``k`` late movers on majority.

    The coalition moves last and sets its ``k`` bits to 1, so the
    outcome is 1 iff the ``n - k`` honest fair bits already carry at
    least ``ceil((n+1)/2) - k`` ones: a plain binomial tail.
    """
    honest = n - k
    need = (n + 1 + 1) // 2 - k  # majority of n needs ceil((n+1)/2) ones
    return sum(math.comb(honest, s) for s in range(max(need, 0), honest + 1)) / (
        2 ** honest
    )


# ----------------------------------------------------------------------
# The contracts
# ----------------------------------------------------------------------

#: (id, scenario, params, trials, base_seed, [(check-id, analytic p,
#: observed-count extractor)]). One scenario run serves every check in
#: its list; extractors read either the success counter or one outcome's
#: histogram count, so both the success predicate and the outcome
#: distribution are under contract.
CONTRACTS = [
    (
        "sync-broadcast",
        "sync/broadcast",
        {"n": 6},
        300,
        0,
        [
            # The honest lockstep broadcast always elects (never FAILs)...
            ("always-elects", 1.0, lambda r: r.successes.successes),
            # ...and elects uniformly: each of the 6 ids at rate 1/6.
            ("uniform-leader", 1 / 6, lambda r: r.distribution.counts.get(1, 0)),
        ],
    ),
    (
        "alead-uni-uniform",
        "honest/alead-uni",
        {"n": 16},
        1600,
        1,
        # Lemma 3.3: honest A-LEADuni always elects, and every one of the
        # 16 ids at rate 1/16 (checked id by id, not only in aggregate).
        [("always-elects", 1.0, lambda r: r.successes.successes)]
        + [
            (f"uniform-id-{pid}", 1 / 16, lambda r, pid=pid: r.distribution.counts.get(pid, 0))
            for pid in range(1, 17)
        ],
    ),
    (
        "fle-coin",
        "cointoss/fle-coin",
        {"n": 8},
        400,
        0,
        [
            # An honest A-LEADuni election never fails...
            ("always-tosses", 1.0, lambda r: r.successes.successes),
            # ...and a uniform leader's low bit is a fair coin (Thm 8.1).
            ("fair-coin", 0.5, lambda r: r.distribution.counts.get(1, 0)),
        ],
    ),
    (
        "biased-coin",
        "cointoss/biased-coin",
        {"n": 8},
        300,
        0,
        [
            # The Basic-LEAD cheater forces its target deterministically
            # (Claim B.1), so the coin always lands on the forced parity
            # — the saturated end of the (n/2)-epsilon bias bound.
            ("forced-parity", 1.0, lambda r: r.successes.successes),
        ],
    ),
    (
        "baton-12-2",
        "fullinfo/baton",
        {"n": 12, "k": 2},
        600,
        0,
        [
            (
                "coalition-win",
                baton_coalition_win(12, 2),
                lambda r: r.successes.successes,
            ),
        ],
    ),
    (
        "baton-16-3",
        "fullinfo/baton",
        {"n": 16, "k": 3},
        2000,
        0,
        [
            (
                "coalition-win",
                baton_coalition_win(16, 3),
                lambda r: r.successes.successes,
            ),
        ],
    ),
    (
        "sequential-parity",
        "fullinfo/sequential-coin",
        {"game": "parity", "n": 6, "k": 1, "target": 1},
        16,
        0,
        [
            # One late mover always forces parity: forced probability 1,
            # so the bias-achieved predicate fires on every trial.
            ("always-forced", 1.0, lambda r: r.successes.successes),
        ],
    ),
    (
        "sequential-majority",
        "fullinfo/sequential-coin",
        {"game": "majority", "n": 7, "k": 2, "target": 1},
        16,
        0,
        [
            # 13/16 > 1/2, so the coalition beats the honest half in
            # every (deterministic) trial.
            ("bias-achieved", 1.0, lambda r: r.successes.successes),
        ],
    ),
    (
        "fair-renaming",
        "blocks/fair-renaming",
        {"n": 6},
        300,
        0,
        [
            # The honest renaming block always completes (never FAILs)...
            ("always-renames", 1.0, lambda r: r.successes.successes),
            # ...and the uniform origin-of-names rotation makes processor
            # 1's new name uniform over [6]: name 1 at rate 1/6 — the
            # fairness claim E12 measures.
            ("uniform-first-name", 1 / 6, lambda r: r.distribution.counts.get(1, 0)),
        ],
    ),
    (
        "xor-chain-dictator",
        "tree/xor-chain",
        {"chain": 3, "expect": "B"},
        16,
        0,
        [
            # Lemma F.3: collapsing an XOR chain to two parties leaves
            # the last mover B a dictator, and the Lemma F.2 search must
            # find (and witness-verify) exactly that on every run — the
            # game is deterministic, so anything below 1.0 is a real
            # regression in the tree machinery.
            ("dictator-found", 1.0, lambda r: r.successes.successes),
        ],
    ),
]

CONTRACT_IDS = [contract[0] for contract in CONTRACTS]


@pytest.fixture(scope="module")
def shared_pool():
    """One 4-worker pool for every parallel contract (spawn cost paid
    once for the whole module)."""
    with WorkerPool(4) as pool:
        yield pool


def _check_contract(contract, pool=None):
    _, scenario, params, trials, base_seed, checks = contract
    result = run_scenario(
        scenario,
        trials,
        base_seed=base_seed,
        params=params,
        keep_outcomes=False,
        pool=pool,
        workers=pool.workers if pool is not None else 1,
    )
    assert result.trials == trials
    for check_id, analytic, observed_count in checks:
        count = observed_count(result)
        low, high = wilson_interval(count, trials, Z99)
        assert low <= analytic <= high, (
            f"{scenario} {params} [{check_id}]: analytic {analytic:.4f} "
            f"outside 99% Wilson [{low:.4f}, {high:.4f}] "
            f"({count}/{trials} at seed {base_seed})"
        )


@pytest.mark.parametrize("contract", CONTRACTS, ids=CONTRACT_IDS)
def test_estimate_brackets_analytic_value_serial(contract):
    _check_contract(contract)


@pytest.mark.parametrize("contract", CONTRACTS, ids=CONTRACT_IDS)
def test_estimate_brackets_analytic_value_4_workers(contract, shared_pool):
    _check_contract(contract, pool=shared_pool)


class TestExactValues:
    """Contracts that hold exactly, not just statistically."""

    def test_sequential_majority_matches_binomial_closed_form(self):
        """The game engine's backward induction over the majority-of-7
        tree must land on the closed-form binomial tail: 13/16."""
        analytic = majority_forced_probability(7, 2)
        assert analytic == 13 / 16
        result = run_scenario(
            "fullinfo/sequential-coin",
            4,
            params={"game": "majority", "n": 7, "k": 2, "target": 1},
        )
        (outcome,) = result.distribution.counts
        assert outcome == round(analytic, 6)

    def test_sequential_parity_is_fully_forced(self):
        """Any late mover flips the last bit: forced probability exactly 1."""
        result = run_scenario(
            "fullinfo/sequential-coin",
            4,
            params={"game": "parity", "n": 6, "k": 1, "target": 1},
        )
        (outcome,) = result.distribution.counts
        assert outcome == 1.0

    def test_baton_dp_matches_honest_uniformity_at_k_0(self):
        """Sanity-check the independent DP itself: with no coalition the
        greedy deviation vanishes and the win probability is k/n = 0."""
        assert baton_coalition_win(10, 0) == 0.0

    def test_xor_chain_dictator_is_exactly_the_last_mover(self):
        """The collapsed XOR chain's outcome distribution is the single
        dictator label on every trial, not merely a 100% success rate —
        pinning the outcome itself, not just the predicate."""
        result = run_scenario("tree/xor-chain", 8, params={"chain": 3})
        assert dict(result.distribution.counts) == {"B": 8}
