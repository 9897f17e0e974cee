"""The named workloads of the colourgame benchmark.

A workload is a set of config entries for `colourgame.cli.parse_config`. The
benchmark adds the seed (the batch plays seeds seed, seed+1, ...) and the
output directory; everything else comes from the package defaults. Why each
workload exists is recorded next to its name in `BENCHMARK.json`.
"""
from __future__ import annotations

# Seed whose output bytes are pinned in golden.json.
GOLDEN_SEED = 0

WORKLOADS: dict[str, dict] = {
    # The acceptance ensemble: default game (pop 5, 1000 games), 20 runs,
    # one series row per game, every run exported.
    "ensemble": {"runs": 20, "parallel": 1, "series_interval": 1},
    # Pop 50 up to convergence (windowed success ~1 from about 6k games),
    # with a series row per game: monitor-bound.
    "pop50_dense": {
        "population_size": 50,
        "num_interactions": 7_000,
        "series_interval": 1,
    },
}

# Smaller versions of the same workloads for the self-test: the same shape,
# few enough games to run in seconds.
SELF_TEST_SIZES: dict[str, dict] = {
    "ensemble": {"runs": 3, "num_interactions": 300},
    "pop50_dense": {"num_interactions": 800},
}
