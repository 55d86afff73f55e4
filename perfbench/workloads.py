"""Workload inputs, generated from the seed.

The seed sets every point's base seed, the target-like parameters
(attack targets, cheater positions) and the order of client requests.
The scenario mix, sizes and trial counts are fixed, so runs with
different seeds do about the same amount of work and their figures can
be compared. The program only ever sees the generated manifests and
requests.
"""

import random

#: Width every serve-mixed request asks for; pre-filled rows and
#: computed misses both satisfy it.
SERVE_CI_WIDTH = 0.2
#: Adaptive bounds the estimate service computes misses under.
SERVE_MIN_TRIALS = 32
SERVE_MAX_TRIALS = 4096
#: Every this many serve-mixed requests of a client, one asks for an
#: unseen point (the rest are cache hits).
SERVE_MISS_EVERY = 10
#: Trials per coordinator lease on sharded-lease (the default is 1024).
LEASE_TRIALS = 64


def _picks(rng: random.Random, n: int, count: int, exclude=()) -> list:
    return rng.sample([t for t in range(1, n + 1) if t not in exclude], count)


def _fixed(scenario: str, grid: dict, trials: int) -> dict:
    return {"scenario": scenario, "grid": grid, "trials": trials}


def _budget(scenario: str, grid: dict, ci_width: float) -> dict:
    return {
        "scenario": scenario,
        "grid": grid,
        "budget": {"ci_width": ci_width, "min_trials": 64, "max_trials": 4096},
    }


def ring_executor(seed: int) -> dict:
    """Executor-backed ring scenarios in campaign-weight order; about
    3 s of single-core trial time."""
    rng = random.Random(seed)
    entries = [
        _fixed("attack/basic-cheat", {"n": 64, "target": t}, 64)
        for t in _picks(rng, 64, 2, exclude=(2,))
    ]
    entries.append(_fixed("honest/alead-uni", {"n": 16}, 400))
    entries.append(_fixed("honest/alead-uni", {"n": 32}, 200))
    entries += [
        _fixed("attack/cubic", {"n": 111, "k": 6, "target": t}, 24)
        for t in _picks(rng, 111, 2)
    ]
    entries += [
        _fixed("attack/equal-spacing", {"n": 64, "target": t}, 48)
        for t in _picks(rng, 64, 2)
    ]
    entries += [
        _fixed("attack/random-location", {"n": 256, "target": t}, 8)
        for t in _picks(rng, 256, 2)
    ]
    return {"base_seed": seed, "entries": entries}


def kernel_grid(seed: int) -> dict:
    """About fifty shallow points of roughly equal cost (~40 ms of
    single-core time each): batch kernels, Wilson-budget points and a
    few scalar points."""
    rng = random.Random(seed)
    entries = []
    for n in (8, 12, 16, 20, 24, 32):
        (target,) = _picks(rng, n, 1, exclude=(2,))
        entries.append(
            _fixed("cointoss/biased-coin", {"n": n, "target": target}, 40000)
        )
    for n, trials in ((4, 500), (8, 200), (16, 80), (32, 32)):
        entries.append(_fixed("cointoss/coin-fle", {"n": n}, trials))
    for n, trials in (
        (8, 600), (10, 480), (12, 400), (14, 360), (16, 320),
        (18, 280), (20, 240), (24, 200),
    ):
        entries.append(_fixed("cointoss/fle-coin", {"n": n}, trials))
    for n, k, trials in (
        (32, 4, 1600), (40, 5, 1200), (48, 6, 1000), (56, 7, 950),
        (64, 8, 900), (80, 10, 700), (96, 12, 600),
    ):
        entries.append(_fixed("fullinfo/baton", {"n": n, "k": k}, trials))
    for n, k in ((7, 2), (9, 3)):
        for target in (0, 1):
            entries.append(
                _fixed(
                    "fullinfo/sequential-coin",
                    {"n": n, "k": k, "target": target},
                    40000,
                )
            )
    for scenario in ("blocks/fair-consensus", "blocks/fair-renaming"):
        for n, trials in ((4, 1200), (6, 800), (8, 640)):
            entries.append(_fixed(scenario, {"n": n}, trials))
    for n in (64, 96, 128, 160, 192, 224, 256):
        entries.append(_fixed("placement/random-segments", {"n": n}, 1400))
    entries.append(_budget("fullinfo/baton", {"n": 48, "k": 6}, 0.06))
    entries.append(_budget("fullinfo/baton", {"n": 64, "k": 8}, 0.06))
    entries.append(_budget("placement/random-segments", {"n": 128}, 0.05))
    entries.append(_budget("placement/random-segments", {"n": 256}, 0.05))
    for n, trials in ((4, 450), (6, 300)):
        entries.append(_fixed("sync/broadcast", {"n": n}, trials))
    for n, trials in ((8, 240), (10, 180)):
        entries.append(_fixed("honest/alead-uni", {"n": n}, trials))
    return {"base_seed": seed, "entries": entries}


def sharded_lease(seed: int) -> dict:
    """A subset of the other two manifests, about 0.6 s of single-core
    time; the benchmark repeats it to fill a round."""
    rng = random.Random(seed)
    (target,) = _picks(rng, 64, 1, exclude=(2,))
    (spaced,) = _picks(rng, 64, 1)
    entries = [
        _fixed("attack/basic-cheat", {"n": 64, "target": target}, 32),
        _fixed("honest/alead-uni", {"n": 32}, 100),
        _fixed("attack/equal-spacing", {"n": 64, "target": spaced}, 24),
        _fixed("cointoss/fle-coin", {"n": 8}, 600),
        _fixed("fullinfo/baton", {"n": 48, "k": 6}, 1000),
        _fixed("placement/random-segments", {"n": 128}, 1400),
        _budget("fullinfo/baton", {"n": 64, "k": 8}, 0.06),
        _fixed("sync/broadcast", {"n": 4}, 450),
    ]
    return {"base_seed": seed, "entries": entries}


def serve_prefill(seed: int) -> dict:
    """The rows serve-mixed pre-fills (untimed): every one satisfies
    :data:`SERVE_CI_WIDTH`, so requests for them are cache hits."""
    rng = random.Random(seed)
    entries = [_fixed("honest/alead-uni", {"n": n}, 64) for n in (8, 10, 12)]
    # Sizes outside SERVE_MISS_SIZES, so no miss is ever pre-filled.
    for n in (28, 30, 32):
        (target,) = _picks(rng, n, 1, exclude=(2,))
        entries.append(_fixed("attack/basic-cheat", {"n": n, "target": target}, 64))
    entries += [_fixed("cointoss/fle-coin", {"n": n}, 64) for n in (8, 12, 16)]
    entries += [
        _fixed("fullinfo/baton", {"n": n, "k": k}, 400) for n, k in ((32, 4), (48, 6))
    ]
    entries += [
        _fixed("placement/random-segments", {"n": n}, 400) for n in (64, 128, 256)
    ]
    entries += [_fixed("blocks/fair-consensus", {"n": n}, 64) for n in (4, 6)]
    entries += [_fixed("blocks/fair-renaming", {"n": n}, 64) for n in (4, 6)]
    entries += [_fixed("sync/broadcast", {"n": n}, 64) for n in (4, 6)]
    entries += [_fixed("cointoss/coin-fle", {"n": n}, 64) for n in (4, 8)]
    return {"base_seed": seed, "entries": entries}


#: Ring sizes of the unseen points serve-mixed asks for (an odd count,
#: so both clients see every size in every stretch of 26 misses).
SERVE_MISS_SIZES = range(12, 25)


def _stratified(rng: random.Random, scenario: str) -> list:
    """Every ``(cheater, target)`` pair of every size in
    :data:`SERVE_MISS_SIZES`, shuffled within each size and dealt out
    one size at a time, so any stretch has the same size mix (and so
    the same cost) whatever the seed."""
    columns = []
    for n in SERVE_MISS_SIZES:
        pairs = [(c, t) for c in range(1, n + 1) for t in range(1, n + 1) if c != t]
        rng.shuffle(pairs)
        columns.append(
            [(scenario, {"n": n, "cheater": c, "target": t}) for c, t in pairs]
        )
    depth = min(len(column) for column in columns)
    return [column[i] for i in range(depth) for column in columns]


def serve_misses(seed: int, client: int) -> list:
    """Distinct unseen cheap points for one client, as ``(scenario,
    params)``, alternating an executor miss with a kernel miss; the two
    clients' lists are disjoint."""
    rng = random.Random(seed)
    executor = _stratified(rng, "attack/basic-cheat")[client::2]
    kernel = _stratified(rng, "cointoss/biased-coin")[client::2]
    return [p for pair in zip(executor, kernel) for p in pair]


def serve_warmup(rep: int) -> tuple:
    """The point set-up ``rep`` computes to spawn and warm the
    service's pool (distinct per rep, never requested later)."""
    return ("attack/basic-cheat", {"n": 40, "cheater": 2, "target": 3 + rep})
