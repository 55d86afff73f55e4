"""Integration tests: the three attacks on A-LEADuni.

Each attack must satisfy the success characterization of Lemma 3.3 —
honest processors all terminate with the coalition's target — and the
claimed coalition-size scaling.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.basic_cheat import basic_cheat_protocol
from repro.attacks.cubic import cubic_attack_protocol
from repro.attacks.equal_spacing import (
    equal_spacing_attack_protocol,
    equal_spacing_attack_protocol_unchecked,
)
from repro.attacks.placement import RingPlacement
from repro.attacks.random_location import (
    random_location_attack_protocol,
    recommended_probability,
)
from repro.sim.execution import FAIL, run_protocol
from repro.sim.topology import unidirectional_ring
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry


class TestBasicCheat:
    @pytest.mark.parametrize("n", [3, 5, 8, 16])
    def test_single_cheater_forces_every_target(self, n):
        topo = unidirectional_ring(n)
        for target in range(1, n + 1):
            res = run_protocol(
                topo, basic_cheat_protocol(topo, cheater=2, target=target),
                seed=target,
            )
            assert res.outcome == target, res.fail_reason

    @given(
        n=st.integers(3, 20),
        cheater=st.integers(1, 20),
        target=st.integers(1, 20),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_cheater_anywhere_property(self, n, cheater, target, seed):
        cheater = (cheater - 1) % n + 1
        target = (target - 1) % n + 1
        topo = unidirectional_ring(n)
        res = run_protocol(
            topo, basic_cheat_protocol(topo, cheater, target), seed=seed
        )
        assert res.outcome == target

    def test_honest_validations_pass(self):
        n = 8
        topo = unidirectional_ring(n)
        res = run_protocol(topo, basic_cheat_protocol(topo, 3, 5), seed=1)
        # No aborts: all processors terminated with the target.
        assert all(out == 5 for out in res.outputs.values())

    def test_rejects_bad_target(self):
        topo = unidirectional_ring(4)
        with pytest.raises(ConfigurationError):
            basic_cheat_protocol(topo, 2, 9)

    def test_rejects_unknown_cheater(self):
        topo = unidirectional_ring(4)
        with pytest.raises(ConfigurationError):
            basic_cheat_protocol(topo, 42, 1)


class TestEqualSpacingAttack:
    @pytest.mark.parametrize("n", [16, 25, 49, 81])
    def test_sqrt_coalition_controls_outcome(self, n):
        k = math.isqrt(n)
        topo = unidirectional_ring(n)
        pl = RingPlacement.equal_spacing(n, k)
        for target in (1, n // 2, n):
            res = run_protocol(
                topo, equal_spacing_attack_protocol(topo, pl, target),
                seed=target,
            )
            assert res.outcome == target, res.fail_reason

    @given(seed=st.integers(0, 10**6), target=st.integers(1, 36))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_any_target(self, seed, target):
        n, k = 36, 6
        topo = unidirectional_ring(n)
        pl = RingPlacement.equal_spacing(n, k)
        res = run_protocol(
            topo, equal_spacing_attack_protocol(topo, pl, target), seed=seed
        )
        assert res.outcome == target

    def test_lemma33_conditions_hold(self):
        """Every adversary sends n messages; outgoing sums agree mod n."""
        n, k = 25, 5
        topo = unidirectional_ring(n)
        pl = RingPlacement.equal_spacing(n, k)
        target = 13
        res = run_protocol(
            topo, equal_spacing_attack_protocol(topo, pl, target), seed=2
        )
        sums = set()
        for pid in pl.positions:
            sent = res.trace.sent_values(pid)
            assert len(sent) == n  # condition 1
            sums.add(sum(sent) % n)
        assert len(sums) == 1  # condition 2
        # Condition 3: last l_j messages are the segment secrets in order.
        for j, pid in enumerate(pl.positions):
            l = pl.distances()[j]
            seg = pl.segment(j)
            sent = res.trace.sent_values(pid)
            expected = [
                res.trace.sent_values(h)[0] if h != 1 else None
                for h in reversed(seg)
            ]
            # Honest normal processor's first send is its secret; origin is
            # honest but sends its secret first too.
            actual = sent[-l:]
            for h, got in zip(reversed(seg), actual):
                first_sent = res.trace.sent_values(h)[0]
                assert got == first_sent

    def test_below_threshold_fails(self):
        """With a segment longer than k-1 the attack cannot finish.

        Every ``(n, k)`` up to n = 36 where the checked builder refuses
        (Lemma 4.1 needs ``l_j <= k-1``) but the placement itself is
        valid: the unchecked run ends ``FAIL`` on both seeds. This is the
        refusal the frontier scan reads as "rushing does not force".
        The one exception is n=5, k=2 (segments 2 and 1): seed 1
        happens to elect the target anyway, so that case asserts only
        that the two seeds do not both elect it.
        """
        cases = 0
        for n in range(2, 37):
            topo = unidirectional_ring(n)
            target = (n + 1) // 2
            for k in range(1, n // 2 + 1):
                pl = RingPlacement.equal_spacing(n, k)
                try:
                    pl.check_attack(n, target)
                except ConfigurationError:
                    continue  # an adversarial origin: no attack at all
                try:
                    equal_spacing_attack_protocol(topo, pl, target)
                    continue  # at or above the threshold
                except ConfigurationError:
                    pass
                cases += 1
                outcomes = [
                    run_protocol(
                        topo,
                        equal_spacing_attack_protocol_unchecked(
                            topo, pl, target
                        ),
                        seed=seed,
                    ).outcome
                    for seed in (0, 1)
                ]
                if (n, k) == (5, 2):
                    assert outcomes != [target, target]
                else:
                    assert outcomes == [FAIL, FAIL], (n, k, outcomes)
        assert cases == 125

    def test_rejects_adversarial_origin(self):
        topo = unidirectional_ring(16)
        pl = RingPlacement(16, (1, 5, 9, 13))
        with pytest.raises(ConfigurationError):
            equal_spacing_attack_protocol(topo, pl, 1)


class TestCubicAttack:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_controls_outcome_at_max_n(self, k):
        n = k + (k - 1) * k * (k + 1) // 2
        topo = unidirectional_ring(n)
        pl = RingPlacement.cubic(n, k)
        for target in (1, n):
            res = run_protocol(
                topo, cubic_attack_protocol(topo, pl, target), seed=target
            )
            assert res.outcome == target, res.fail_reason

    def test_controls_outcome_on_grid(self):
        """Every ``(n, k)`` up to n = 36 where the Thm 4.3 staircase
        constructs elects the target on every seed: constructible means
        forced, the certificate the frontier scan reads."""
        cases = 0
        for n in range(2, 37):
            topo = unidirectional_ring(n)
            target = (n + 1) // 2
            for k in range(2, n + 1):
                try:
                    pl = RingPlacement.cubic(n, k)
                except ConfigurationError:
                    continue
                cases += 1
                for seed in (0, 1):
                    res = run_protocol(
                        topo, cubic_attack_protocol(topo, pl, target),
                        seed=seed,
                    )
                    assert res.outcome == target, (n, k, seed, res.fail_reason)
        assert cases == 235

    def test_coalition_sublinear(self):
        """At the feasibility frontier k ~ (2n)^(1/3) << sqrt(n)."""
        k = 8
        n = k + (k - 1) * k * (k + 1) // 2  # 260
        assert k < math.isqrt(n)  # strictly below the rushing threshold
        topo = unidirectional_ring(n)
        pl = RingPlacement.cubic(n, k)
        res = run_protocol(topo, cubic_attack_protocol(topo, pl, 100), seed=1)
        assert res.outcome == 100

    def test_sync_gap_grows(self):
        """The cubic attack desynchronizes the ring (Section 6 motivation)."""
        k = 6
        n = k + (k - 1) * k * (k + 1) // 2
        topo = unidirectional_ring(n)
        pl = RingPlacement.cubic(n, k)
        res = run_protocol(topo, cubic_attack_protocol(topo, pl, 1), seed=1)
        gap = res.trace.max_sync_gap(list(pl.positions))
        assert gap > k  # far beyond the honest gap of 1

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_deterministic_success_property(self, seed):
        k = 4
        n = k + (k - 1) * k * (k + 1) // 2
        topo = unidirectional_ring(n)
        pl = RingPlacement.cubic(n, k)
        res = run_protocol(topo, cubic_attack_protocol(topo, pl, 7), seed=seed)
        assert res.outcome == 7

    def test_rejects_bad_profile(self):
        topo = unidirectional_ring(12)
        pl = RingPlacement(12, (2, 4, 11))  # l = [1, 6, 2]: 6 > 2 + 2
        with pytest.raises(ConfigurationError):
            cubic_attack_protocol(topo, pl, 1)


class TestRandomLocationAttack:
    def test_succeeds_in_regime(self):
        """At n=256 and the paper's density the attack wins consistently."""
        n = 256
        p = recommended_probability(n)
        topo = unidirectional_ring(n)
        wins = 0
        trials = 8
        for t in range(trials):
            pl = RingPlacement.random_locations(n, p, random.Random(t))
            if pl is None:
                continue
            res = run_protocol(
                topo,
                random_location_attack_protocol(topo, pl, target=77),
                rng=RngRegistry(t),
            )
            wins += res.outcome == 77
        assert wins >= trials - 1

    def test_fails_gracefully_when_sparse(self):
        """Far below the density the attack fails without crashing."""
        n = 128
        topo = unidirectional_ring(n)
        pl = RingPlacement.random_locations(n, 0.03, random.Random(5))
        if pl is None:
            pytest.skip("sample degenerated")
        res = run_protocol(
            topo, random_location_attack_protocol(topo, pl, 5),
            rng=RngRegistry(1),
        )
        assert res.outcome in (5, FAIL)

    def test_adversaries_estimate_k(self):
        n = 200
        topo = unidirectional_ring(n)
        pl = RingPlacement.random_locations(
            n, recommended_probability(n) / 2, random.Random(3)
        )
        proto = random_location_attack_protocol(topo, pl, 9)
        res = run_protocol(topo, proto, rng=RngRegistry(4))
        if res.outcome == 9:
            for pid in pl.positions:
                assert proto[pid].estimated_k == pl.k

    def test_window_parameter_validated(self):
        from repro.attacks.random_location import RandomLocationAdversary

        with pytest.raises(ConfigurationError):
            RandomLocationAdversary(10, 1, window=0)

    def test_recommended_probability_monotone(self):
        assert recommended_probability(10_000) < recommended_probability(100)


A_LEAD_ATTACKS = [
    equal_spacing_attack_protocol,
    equal_spacing_attack_protocol_unchecked,
    cubic_attack_protocol,
    random_location_attack_protocol,
]


@pytest.mark.parametrize("build", A_LEAD_ATTACKS, ids=lambda b: b.__name__)
class TestPlacementRefusals:
    """Every A-LEADuni attack refuses a misfit placement or target with
    :meth:`RingPlacement.check_attack`'s exact messages."""

    N = 16

    def refusal(self, build, placement, target):
        with pytest.raises(ConfigurationError) as info:
            build(unidirectional_ring(self.N), placement, target)
        return str(info.value)

    def test_ring_size_mismatch(self, build):
        placement = RingPlacement.equal_spacing(self.N + 4, 4)
        assert self.refusal(build, placement, 1) == (
            "placement ring size mismatch"
        )

    @pytest.mark.parametrize("target", [0, N + 1])
    def test_target_out_of_range(self, build, target):
        placement = RingPlacement.equal_spacing(self.N, 4)
        assert self.refusal(build, placement, target) == (
            f"target {target} out of range 1..{self.N}"
        )

    def test_adversarial_origin(self, build):
        placement = RingPlacement(self.N, (1, 5, 9, 13))
        assert self.refusal(build, placement, 1) == (
            "attack requires the origin to be honest"
        )
