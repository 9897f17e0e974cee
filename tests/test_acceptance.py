"""Acceptance suite: one test per stated criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The ensembles use fixed seeds 0..9 so every execution checks the same
runs.
"""
import random
import re
import time

import pytest

from colourgame.cli import parse_config, run_command
from colourgame.conceptual import Ontology
from colourgame.engine import ExperimentParams, run_experiment
from colourgame.lexicon import HEARER, SPEAKER, ConstructionInventory, invent_word_form

from helpers import (
    constructions_of,
    oracle_conceptualise,
    oracle_interpret,
    random_int_colour,
    register_recording_backend,
    split_into_games,
)

SEEDS = tuple(range(10))


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_ensemble():
    """Ten seeded default-parameter runs of 2000 games each."""
    return [
        run_experiment(ExperimentParams(num_interactions=2000), seed)
        for seed in SEEDS
    ]


def at(series, interaction):
    return next(p for p in series if p.interaction == interaction)


def test_criterion_1_success_convergence():
    started = time.perf_counter()
    runs = [
        run_experiment(ExperimentParams(num_interactions=500), seed)
        for seed in SEEDS
    ]
    elapsed = time.perf_counter() - started
    converged = sum(
        max(p.success_window_avg for p in run.series if p.interaction <= 500)
        >= 0.95
        for run in runs
    )
    report(
        1,
        "windowed success >= 0.95 by interaction 500 in >= 9/10 runs, < 10 s",
        converged >= 9 and elapsed < 10.0,
        f"{converged}/10 runs, {elapsed:.2f}s",
    )


def test_criterion_2_ontology_size(default_ensemble):
    in_band = sum(
        6.0 <= at(run.series, 1000).mean_ontology_size <= 7.0
        for run in default_ensemble
    )
    reached_before_300 = sum(
        any(
            p.mean_ontology_size >= 6.0
            for p in run.series
            if p.interaction < 300
        )
        for run in default_ensemble
    )
    report(
        2,
        "mean ontology size in [6, 7] at 1000 in >= 9/10 runs and >= 6 "
        "before 300 in all runs",
        in_band >= 9 and reached_before_300 == 10,
        f"band {in_band}/10, early {reached_before_300}/10",
    )


def test_criterion_3_synonymy_peak_and_collapse(default_ensemble):
    good = 0
    for run in default_ensemble:
        peak = max(
            p.distinct_forms_population
            for p in run.series
            if p.interaction < 300
        )
        final = at(run.series, 2000).distinct_forms_population
        good += peak >= 7 and 5 <= final <= 7
    report(
        3,
        "distinct forms peak >= 7 before 300 and settle at 6 +/- 1 by 2000 "
        "in >= 8/10 runs",
        good >= 8,
        f"{good}/10 runs",
    )


def test_criterion_4_ratio_convergence(default_ensemble):
    good = 0
    for run in default_ensemble:
        point = at(run.series, 2000)
        good += (
            1.0 <= point.mean_forms_per_meaning <= 1.1
            and 1.0 <= point.mean_meanings_per_form <= 1.1
        )
    report(
        4,
        "forms-per-meaning and meanings-per-form in [1.0, 1.1] at 2000 "
        "in >= 8/10 runs",
        good >= 8,
        f"{good}/10 runs",
    )


def test_criterion_5_oracle_equivalence():
    rng = random.Random(90210)
    mismatches = 0
    for _ in range(1000):
        ontology = Ontology()
        for _ in range(rng.randint(0, 10)):
            ontology.invent_category(random_int_colour(rng))
        model = {
            f"o{i}": random_int_colour(rng) for i in range(rng.randint(1, 10))
        }
        topic_id = rng.choice(tuple(model))
        found_id = ontology.conceptualise(topic_id, model)
        expected = oracle_conceptualise(ontology.prototypes, topic_id, model)
        if found_id != expected:
            mismatches += 1
        if ontology.prototypes:
            category_id = rng.randint(1, len(ontology.prototypes))
            found = ontology.interpret(category_id, model)
            reference = oracle_interpret(ontology.prototypes, category_id, model)
            if found != reference:
                mismatches += 1
    report(
        5,
        "conceptualise/interpret match the brute-force oracle on 1000 "
        "random instances",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_6_score_dynamics_properties():
    rng = random.Random(60606)
    violations = 0
    for _ in range(10_000):
        inventory = ConstructionInventory()
        for _ in range(rng.randint(1, 5)):
            inventory.add_construction(
                invent_word_form(rng, set(inventory.by_form)),
                rng.randint(1, 4),
                round(rng.uniform(0.05, 1.0), 2),
            )
        for _ in range(rng.randint(1, 8)):
            if not inventory.by_form:
                break
            used = rng.choice(constructions_of(inventory))
            op = rng.random()
            if op < 0.5:
                inventory.reward_and_inhibit(
                    used,
                    rng.choice((SPEAKER, HEARER)),
                    rng.uniform(0, 0.3),
                    rng.uniform(0, 0.3),
                )
            else:
                inventory.punish(used, rng.uniform(0, 0.3))
            if any(
                not 0.0 < c.score <= 1.0 for c in constructions_of(inventory)
            ):
                violations += 1
    report(
        6,
        "10,000 random update sequences keep scores in (0, 1] with no dead "
        "constructions retained",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_7_byte_identical_replay(tmp_path):
    stable = 0
    for seed in (11, 29, 47):
        outputs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"seed-{seed}-{attempt}"
            config = parse_config(
                None,
                {
                    "out_dir": str(out_dir),
                    "seed": seed,
                    "num_interactions": 300,
                    "runs": 1,
                },
            )
            assert run_command(config) == 0
            outputs.append(
                tuple(
                    (out_dir / rel).read_bytes()
                    for rel in (
                        "run-0/series.csv",
                        "run-0/snapshots.json",
                        "aggregate.csv",
                    )
                )
            )
        stable += outputs[0] == outputs[1]
    report(
        7,
        "identical config and seed reproduce byte-identical exports for 3 seeds",
        stable == 3,
        f"{stable}/3 seeds stable",
    )


def test_criterion_8_script_order_conformance():
    trace: list = []
    register_recording_backend(trace)
    run_experiment(
        ExperimentParams(num_interactions=100, backend_kind="recording"), seed=8
    )
    games = split_into_games(trace)
    shape = re.compile(
        r"^embody,embody,observe_world,observe_world,speak,hear,"
        r"(point,)?(nod|point)$"
    )
    conforming = sum(bool(shape.match(",".join(game))) for game in games)
    report(
        8,
        "all 100 recorded games follow the scripted capability order",
        len(games) == 100 and conforming == 100,
        f"{conforming}/{len(games)} games conform",
    )


def test_criterion_9_zero_noise_sanity():
    passing = 0
    details = []
    for seed in SEEDS:
        params = ExperimentParams(num_interactions=1000, noise_std=0.0)
        run = run_experiment(params, seed)
        # Before game `window` the average covers fewer than `window` games,
        # so only a full window of successes counts as perfect.
        first_perfect = next(
            (
                p.interaction
                for p in run.series
                if p.interaction >= params.window
                and p.success_window_avg >= 1.0
            ),
            None,
        )
        ontology_at_1000 = at(run.series, 1000).mean_ontology_size
        ok = first_perfect is not None and ontology_at_1000 == 6.0
        passing += ok
        details.append(f"seed {seed}: 1.0@{first_perfect} ont={ontology_at_1000}")
    report(
        9,
        "zero-noise runs reach a full 50-game window of windowed success 1.0 "
        "within 1000 games and end with exactly 6 categories at 1000 "
        "in 10/10 runs",
        passing == 10,
        f"{passing}/10 runs — " + "; ".join(details),
    )
