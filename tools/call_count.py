"""Count the Python calls one seeded run makes, in total, per game and per
function.

    python tools/call_count.py                        # the default game, seed 0
    python tools/call_count.py --population-size 50 --num-interactions 2000

Plays `ExperimentParams()` with the given population size and game count
through `colourgame.engine.run_experiment` at seed 0, under `sys.setprofile`,
and counts each `call` event of a frame whose code lies in the package: a
function call, a comprehension's call before CPython 3.12 inlined them, and a
generator's resume. A function is keyed by its module and code name
(`world.clipped`), since `co_qualname` is missing before 3.11. Prints the
total, the calls a game and one row per function, most calls first.

The counts are exact and do not depend on the hash seed, so two runs print
the same text; `tests/test_call_count.py` pins them. A count is not a time:
it misses the work done in C. Run the script as its own process, so the
count starts from a fresh interpreter, and the package it imports is the
checkout's `src/`.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from colourgame.engine import ExperimentParams, run_experiment


def count_calls(params: ExperimentParams) -> Counter:
    """The `call` events of the package's frames in a run at seed 0, keyed by
    `<module>.<code name>`."""
    by_code: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            by_code[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        run_experiment(params, 0)
    finally:
        sys.setprofile(None)
    package = Path(run_experiment.__code__.co_filename).parent
    calls: Counter = Counter()
    for code, n in by_code.items():
        path = Path(code.co_filename)
        if path.parent == package:
            calls[f"{path.stem}.{code.co_name}"] += n
    return calls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = ExperimentParams()
    parser.add_argument(
        "--population-size", type=int, default=defaults.population_size
    )
    parser.add_argument(
        "--num-interactions", type=int, default=defaults.num_interactions
    )
    args = parser.parse_args(argv)
    params = defaults._replace(
        population_size=args.population_size,
        num_interactions=args.num_interactions,
    )
    calls = count_calls(params)
    games = params.num_interactions
    total = sum(calls.values())
    print(
        f"population {params.population_size}, {games} games, seed 0, "
        f"Python {sys.version_info.major}.{sys.version_info.minor}"
    )
    print(f"{total:>9} {total / games:>9.3f}  total")
    for name, n in sorted(calls.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:>9} {n / games:>9.3f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
