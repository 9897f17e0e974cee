"""A fixed computation that measures how fast the machine runs right now.

The benchmark's host gives it shared vCPUs whose speed changes by up to 2x
for stretches of seconds to minutes, in CPU time as much as in wall time, so
games per second taken alone measures the host's load as much as the
program. run.py times `reference_work` between batches; the mean of those
times over a run says how much slower than nominal the machine ran while the
batches did, and run.py scales its timings by it.

The work is pure Python shaped like a naming game (3-D distances, a nearest
prototype, dict updates, an occasional sort) and imports nothing from the
package, so no change to the package can move it. Changing it, its size or
NOMINAL_S changes every normalised figure: do it only in a change to the
benchmark, and measure the baseline again.
"""
from __future__ import annotations

import math
import random
import time

# Seconds `reference_work` takes on an uncontended 2.1 GHz x86_64 vCPU under
# CPython 3.11 (the fastest tenth of 142 timings). Normalised figures read
# as if every batch had run at that speed.
NOMINAL_S = 0.21
GAMES = 25_000


def reference_work(games: int = GAMES) -> float:
    rng = random.Random(20050)
    prototypes = [(rng.random(), rng.random(), rng.random()) for _ in range(40)]
    scores: dict[int, float] = {}
    total = 0.0
    for game in range(games):
        scene = [(rng.random(), rng.random(), rng.random()) for _ in range(4)]
        topic = scene[rng.randrange(4)]
        best = min(prototypes, key=lambda p: math.dist(p, topic))
        key = prototypes.index(best) % 17
        scores[key] = scores.get(key, 0.5) * 0.9 + 0.1
        total += sum(scores.values()) / len(scores)
        if game % 50 == 0:
            ranked = sorted(scores.items(), key=lambda kv: -kv[1])
            total += ranked[0][1]
    return total


def time_reference() -> float:
    """Wall seconds of one `reference_work`."""
    begin = time.perf_counter()
    reference_work()
    return time.perf_counter() - begin
