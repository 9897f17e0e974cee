import csv
import dataclasses
import json
import math
import random
import statistics
import sys

import pytest

from colourgame import monitors
from colourgame.engine import (
    Agent,
    ExperimentParams,
    InteractionRecord,
    run_experiment,
)
from colourgame.errors import ConfigurationError
from colourgame.lexicon import SPEAKER
from colourgame.monitors import (
    SERIES_HEADER,
    PopulationMonitor,
    SeriesPoint,
    aggregate_runs,
    compute_series_point,
    export_aggregate,
    export_run,
    take_snapshot,
)
from colourgame.world import Colour
from helpers import oracle_series_point, windowed_success


def records_with(successes: list[bool]) -> list[InteractionRecord]:
    return [
        InteractionRecord(
            interaction_number=i + 1,
            speaker_id=0,
            hearer_id=1,
            scene_object_ids=("obj-0",),
            topic_id="obj-0",
            utterance="fusemo",
            pointed_id="obj-0" if ok else None,
            success=ok,
            failure_reason="none" if ok else "unknown_word",
        )
        for i, ok in enumerate(successes)
    ]


def monitor_after(successes: list[bool], window: int = 50) -> PopulationMonitor:
    monitor = PopulationMonitor([Agent(0), Agent(1)], window)
    for record in records_with(successes):
        monitor.observe(record)
    return monitor


def test_windowed_success_basics():
    assert monitor_after([True] * 50).windowed_success() == 1.0
    assert monitor_after([False]).windowed_success() == 0.0
    assert monitor_after([]).windowed_success() == 0.0


def test_windowed_success_alternating_and_clamping():
    assert monitor_after([i % 2 == 0 for i in range(100)]).windowed_success() == 0.5
    # only three games have been played
    assert monitor_after([True, True, False]).windowed_success() == pytest.approx(
        2 / 3
    )
    with pytest.raises(ValueError):
        PopulationMonitor([Agent(0), Agent(1)], window=0)


def test_windowed_success_uses_most_recent_games():
    assert monitor_after([False] * 50 + [True] * 50).windowed_success() == 1.0
    assert monitor_after([False] * 50).windowed_success() == 0.0


def test_windowed_success_never_drops_when_success_evicts_failure():
    import random as _random

    rng = _random.Random(40)
    flags = [rng.random() < 0.5 for _ in range(200)]
    records = records_with(flags)
    monitor = PopulationMonitor([Agent(0), Agent(1)], 50)
    previous = 0.0
    for n, record in enumerate(records, start=1):
        monitor.observe(record)
        current = monitor.windowed_success()
        assert current == windowed_success(records, 50, n)
        if n > 50 and flags[n - 1] and not flags[n - 51]:
            assert current >= previous
        previous = current


def agent_with(agent_id: int, pairs: list[tuple[str, int]]) -> Agent:
    agent = Agent(agent_id)
    categories = {}
    for form, meaning in pairs:
        if meaning not in categories:
            categories[meaning] = agent.ontology.invent_category(
                Colour(min(255, meaning * 40), 0, 0)
            )
        agent.inventory.add_construction(
            form, categories[meaning].category_id, 0.5
        )
    return agent


def test_series_point_on_empty_population():
    monitor = PopulationMonitor([Agent(0), Agent(1)], window=50)
    point = compute_series_point(monitor, at=0)
    assert point.mean_ontology_size == 0.0
    assert point.mean_inventory_size == 0.0
    assert point.distinct_forms_population == 0
    assert point.mean_forms_per_meaning == 0.0  # empty-denominator convention
    assert point.mean_meanings_per_form == 0.0


def test_series_point_on_converged_population():
    forms = ["bakala", "defile", "gikolu", "lamune", "pesoro", "tivuwa"]
    population = [
        agent_with(i, [(form, m) for m, form in enumerate(forms, start=1)])
        for i in range(5)
    ]
    monitor = PopulationMonitor(population, window=50)
    monitor.observe(records_with([True])[0])
    point = compute_series_point(monitor, at=1)
    assert point.mean_ontology_size == 6.0
    assert point.mean_inventory_size == 6.0
    assert point.distinct_forms_population == 6
    assert point.mean_forms_per_meaning == 1.0
    assert point.mean_meanings_per_form == 1.0


def test_series_point_synonymy_and_homonymy_counts():
    # one agent holding two forms for one meaning
    population = [agent_with(0, [("bakala", 1), ("defile", 1)]), Agent(1)]
    point = compute_series_point(PopulationMonitor(population, 50), at=0)
    assert point.mean_forms_per_meaning == 2.0
    assert point.mean_meanings_per_form == 1.0
    assert point.distinct_forms_population == 2
    # agents without constructions are excluded from the ratio means
    population.append(agent_with(2, [("bakala", 1)]))
    point = compute_series_point(PopulationMonitor(population, 50), at=0)
    assert point.mean_forms_per_meaning == pytest.approx(1.5)


def test_distinct_forms_dominates_per_agent_counts():
    population = [
        agent_with(0, [("bakala", 1), ("defile", 2)]),
        agent_with(1, [("bakala", 1), ("gikolu", 2)]),
    ]
    point = compute_series_point(PopulationMonitor(population, 50), at=0)
    per_agent_max = max(len(a.inventory.forms()) for a in population)
    assert point.distinct_forms_population >= per_agent_max
    assert point.distinct_forms_population == 3


def test_recount_follows_inventory_edits_between_rows():
    population = [
        agent_with(0, [("bakala", 1), ("defile", 2)]),
        agent_with(1, [("bakala", 1), ("gikolu", 1)]),
        agent_with(2, [("lamune", 1)]),
    ]
    monitor = PopulationMonitor(population, window=50)
    records = []

    def play(speaker_id, hearer_id, at):
        record = dataclasses.replace(
            records_with([True])[0],
            interaction_number=at,
            speaker_id=speaker_id,
            hearer_id=hearer_id,
        )
        monitor.observe(record)
        records.append(record)
        point = compute_series_point(monitor, at)
        assert point == oracle_series_point(population, records, at, 50)
        return point

    assert compute_series_point(monitor, 0) == oracle_series_point(
        population, records, 0, 50
    )
    # Agent 0 swaps a word: one construction in, one pruned out, so its
    # inventory size stays 2 while its form set changes. Agent 1 only sees
    # scores move, and is skipped.
    swapper, scorer = population[0].inventory, population[1].inventory
    bakala = swapper.constructions[0]
    swapper.add_construction("zulewa", bakala.category_id, 0.5)
    swapper.punish(bakala, 1.0)
    assert len(swapper) == 2 and swapper.forms() == {"defile", "zulewa"}
    scorer.reward_and_inhibit(scorer.constructions[0], SPEAKER, 0.1, 0.2)
    scorer.punish(scorer.constructions[1], 0.1)
    assert len(scorer) == 2
    assert play(0, 1, 1).distinct_forms_population == 5
    # A word adopted for a category the agent already has: the ontology
    # stays, only the inventory grows.
    adopter = population[2].inventory
    adopter.add_construction("defile", adopter.constructions[0].category_id, 0.5)
    assert play(2, 1, 2).mean_forms_per_meaning == pytest.approx(5 / 3)
    # A construction pruned with nothing added in its place.
    adopter.punish(adopter.constructions[0], 1.0)
    assert play(1, 2, 3).distinct_forms_population == 4


# Windows 1 and 7 ride along with the palette kind, so each runs over every
# population size, series interval and noise level next to the default 50.
@pytest.mark.parametrize(
    ("random_palette", "window"),
    [
        pytest.param(False, 50, id="False"),
        pytest.param(True, 50, id="True"),
        pytest.param(False, 1, id="False-window1"),
        pytest.param(True, 7, id="True-window7"),
    ],
)
@pytest.mark.parametrize("noise_std", [0.0, 3.0, 20.0])
@pytest.mark.parametrize("series_interval", [1, 7])
@pytest.mark.parametrize("population_size", [2, 3, 20, 50])
def test_incremental_series_equals_full_rescan(
    monkeypatch, population_size, series_interval, noise_std, random_palette, window
):
    checked = []

    class CheckedMonitor(PopulationMonitor):
        """Keeps the observed records for the oracle's re-summed window."""

        def __init__(self, population, window):
            super().__init__(population, window)
            self.records = []

        def observe(self, record):
            super().observe(record)
            self.records.append(record)

    incremental = monitors.compute_series_point

    def checked_point(monitor, at):
        point = incremental(monitor, at)
        assert point == oracle_series_point(
            monitor.population, monitor.records, at, window
        )
        checked.append(at)
        return point

    monkeypatch.setattr(monitors, "PopulationMonitor", CheckedMonitor)
    monkeypatch.setattr(monitors, "compute_series_point", checked_point)
    params = ExperimentParams(
        population_size=population_size,
        num_interactions=1500,
        noise_std=noise_std,
        random_palette=random_palette,
        window=window,
        series_interval=series_interval,
        snapshot_points=(),
    )
    for seed in (0, 1):
        checked.clear()
        result = run_experiment(params, seed)
        assert checked == [p.interaction for p in result.series]
        assert len(checked) == 1500 // series_interval


def test_take_snapshot_shape_and_copy_semantics():
    agent = agent_with(3, [("fusemo", 1)])
    agent.ontology.categories[0].prototype = Colour(7, 246, 9)
    snapshot = take_snapshot(agent, at=10)
    assert snapshot.interaction_number == 10
    assert snapshot.agent_id == 3
    assert snapshot.entries == (
        {
            "category_id": 1,
            "prototype": [7.0, 246.0, 9.0],
            "forms": [{"form": "fusemo", "score": 0.5}],
        },
    )
    # later mutation must not leak into the stored snapshot
    agent.inventory.constructions[0].score = 0.9
    agent.ontology.categories[0].prototype = Colour(0, 0, 0)
    assert snapshot.entries[0]["forms"][0]["score"] == 0.5
    assert snapshot.entries[0]["prototype"] == [7.0, 246.0, 9.0]


def test_take_snapshot_of_empty_agent():
    assert take_snapshot(Agent(0), at=5).entries == ()


def synthetic_series(n: int) -> list[SeriesPoint]:
    return [
        SeriesPoint(
            interaction=i + 1,
            success_window_avg=(i % 100) / 100,
            mean_ontology_size=6.0,
            mean_inventory_size=6.5,
            distinct_forms_population=7,
            mean_forms_per_meaning=1.25,
            mean_meanings_per_form=1.0,
        )
        for i in range(n)
    ]


def test_export_run_writes_csv_json_and_html(tmp_path):
    agent = agent_with(3, [("fusemo", 1)])
    agent.ontology.categories[0].prototype = Colour(7, 246, 9)
    snapshots = [take_snapshot(agent, at=10)]
    series = synthetic_series(1000)

    paths = export_run(series, snapshots, tmp_path)
    series_path, json_path, html_path = paths

    text = series_path.read_text()
    lines = text.splitlines()
    assert len(lines) == 1001  # header + one row per point
    assert lines[0] == ",".join(SERIES_HEADER)
    assert "\r" not in text

    with series_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1000
    for row, point in zip(rows, series):
        assert int(row["interaction"]) == point.interaction
        for field in (
            "success_window_avg",
            "mean_ontology_size",
            "mean_inventory_size",
            "mean_forms_per_meaning",
            "mean_meanings_per_form",
        ):
            assert float(row[field]) == pytest.approx(
                getattr(point, field), abs=1e-6
            )
        assert int(row["distinct_forms_population"]) == 7

    stored = json.loads(json_path.read_text())
    assert stored[0]["agent_id"] == 3
    assert stored[0]["entries"][0]["prototype"] == [7.0, 246.0, 9.0]

    html = html_path.read_text()
    assert "rgb(7,246,9)" in html
    assert "fusemo" in html and "0.50" in html


def test_export_run_unwritable_directory(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    with pytest.raises(OSError):
        export_run(synthetic_series(3), [], blocker / "out")


def test_aggregate_runs_degenerate_and_two_run_cases():
    series = synthetic_series(5)
    identical = aggregate_runs([series] * 10)
    assert all(row["success_window_avg_std"] == 0.0 for row in identical)
    assert identical[0]["mean_ontology_size_mean"] == 6.0

    run_a = [synthetic_series(1)[0]]
    run_b = [
        SeriesPoint(
            interaction=1,
            success_window_avg=0.6,
            mean_ontology_size=6.0,
            mean_inventory_size=6.5,
            distinct_forms_population=7,
            mean_forms_per_meaning=1.25,
            mean_meanings_per_form=1.0,
        )
    ]
    run_a[0] = run_b[0].__class__(**{**run_b[0].__dict__, "success_window_avg": 0.4})
    rows = aggregate_runs([run_a, run_b])
    assert rows[0]["success_window_avg_mean"] == pytest.approx(0.5)
    # sample standard deviation, as documented
    assert rows[0]["success_window_avg_std"] == statistics.stdev([0.4, 0.6])
    assert rows[0]["success_window_avg_std"] == pytest.approx(0.141421356)

    single = aggregate_runs([run_b])
    assert single[0]["success_window_avg_mean"] == 0.6
    assert single[0]["success_window_avg_std"] == 0.0


def stdev_vectors(count: int, seed: int) -> list[list[float]]:
    """Seeded vectors of 2..30 finite floats of every kind `_stdev` must
    round like `statistics.stdev`, then the fixed edge cases."""
    rng = random.Random(seed)
    vectors = []
    for i in range(count):
        n = rng.randint(2, 30)
        kind = i % 5
        if kind == 0:  # uniform floats
            scale = 10.0 ** rng.randint(-3, 3)
            vector = [rng.uniform(-scale, scale) for _ in range(n)]
        elif kind == 1:  # non-dyadic ratios, like means over a population of 5
            d = rng.choice((3, 5, 7))
            vector = [rng.randint(0, 60) / d for _ in range(n)]
        elif kind == 2:  # across the exponent range, subnormals included
            vector = [
                math.copysign(
                    math.ldexp(rng.random(), rng.randint(-1074, 1020)),
                    rng.random() - 0.5,
                )
                for _ in range(n)
            ]
        elif kind == 3:  # one shared exponent, full 53-bit mantissas
            e = rng.randint(-1074, 960)
            vector = [math.ldexp(rng.getrandbits(53), e) for _ in range(n)]
        else:  # 1-ulp neighbours
            x = rng.uniform(-1e6, 1e6)
            vector = [rng.choice((x, math.nextafter(x, math.inf))) for _ in range(n)]
        vectors.append(vector)
    tiny = 5e-324
    vectors += [
        [tiny, 0.0],
        [tiny, 2 * tiny, 0.0],
        [tiny] * 3 + [-tiny],
        [1e308, -1e308],
        [1e308, 1e308, -1e308],
        [-1e308, 0.0, 1e308],
        [0.0, -0.0],
        [-0.0, -0.0, -0.0],
        [2.5] * 7,
        [0.1] * 20,
        [1.0, math.nextafter(1.0, 2.0)],
        [1.0, math.nextafter(1.0, 0.0), 1.0],
        [0.4, 0.6],
    ]
    return vectors


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="statistics.stdev is correctly rounded only from CPython 3.11",
)
def test_stdev_matches_statistics_stdev():
    mismatches = [
        (vector, got, want)
        for vector in stdev_vectors(3000, seed=20)
        if (got := repr(monitors._stdev(vector)))
        != (want := repr(statistics.stdev(vector)))
    ]
    assert mismatches == [], f"{len(mismatches)} mismatches, first {mismatches[:3]}"


def test_aggregate_runs_rejects_mismatched_runs():
    with pytest.raises(ConfigurationError):
        aggregate_runs([])
    with pytest.raises(ConfigurationError):
        aggregate_runs([synthetic_series(5), synthetic_series(6)])
    shifted = synthetic_series(5)
    shifted[0] = SeriesPoint(**{**shifted[0].__dict__, "interaction": 99})
    with pytest.raises(ConfigurationError):
        aggregate_runs([synthetic_series(5), shifted])


def test_export_aggregate_file_shape(tmp_path):
    rows = aggregate_runs([synthetic_series(4), synthetic_series(4)])
    path = export_aggregate(rows, tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    header = lines[0].split(",")
    assert header[0] == "interaction"
    assert "success_window_avg_mean" in header
    assert "mean_meanings_per_form_std" in header
    assert len(header) == 13
