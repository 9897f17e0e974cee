import csv
import json
import statistics

import pytest

from colourgame import monitors
from colourgame.engine import (
    Agent,
    ExperimentParams,
    InteractionRecord,
    run_experiment,
)
from colourgame.errors import ConfigurationError
from colourgame.monitors import (
    SERIES_HEADER,
    PopulationMonitor,
    SeriesPoint,
    aggregate_runs,
    compute_series_point,
    export_aggregate,
    export_run,
    take_snapshot,
    windowed_success,
)
from colourgame.world import Colour
from helpers import oracle_series_point


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


def test_windowed_success_basics():
    records = records_with([True] * 50)
    assert windowed_success(records, window=50, at=50) == 1.0
    assert windowed_success(records_with([False]), window=50, at=1) == 0.0
    assert windowed_success([], window=50, at=0) == 0.0


def test_windowed_success_alternating_and_clamping():
    records = records_with([i % 2 == 0 for i in range(100)])
    assert windowed_success(records, window=50, at=100) == 0.5
    # only the first three games exist at at=3
    records = records_with([True, True, False])
    assert windowed_success(records, window=50, at=3) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        windowed_success(records, window=0, at=3)


def test_windowed_success_uses_most_recent_games():
    records = records_with([False] * 50 + [True] * 50)
    assert windowed_success(records, window=50, at=100) == 1.0
    assert windowed_success(records, window=50, at=50) == 0.0


def test_windowed_success_never_drops_when_success_evicts_failure():
    import random as _random

    rng = _random.Random(40)
    flags = [rng.random() < 0.5 for _ in range(200)]
    records = records_with(flags)
    for n in range(51, 201):
        if flags[n - 1] and not flags[n - 51]:
            assert windowed_success(records, 50, n) >= windowed_success(
                records, 50, n - 1
            )


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
    monitor = PopulationMonitor([Agent(0), Agent(1)])
    point = compute_series_point(monitor, [], at=0, window=50)
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
    point = compute_series_point(
        PopulationMonitor(population), records_with([True]), at=1, window=50
    )
    assert point.mean_ontology_size == 6.0
    assert point.mean_inventory_size == 6.0
    assert point.distinct_forms_population == 6
    assert point.mean_forms_per_meaning == 1.0
    assert point.mean_meanings_per_form == 1.0


def test_series_point_synonymy_and_homonymy_counts():
    # one agent holding two forms for one meaning
    population = [agent_with(0, [("bakala", 1), ("defile", 1)]), Agent(1)]
    point = compute_series_point(PopulationMonitor(population), [], at=0, window=50)
    assert point.mean_forms_per_meaning == 2.0
    assert point.mean_meanings_per_form == 1.0
    assert point.distinct_forms_population == 2
    # agents without constructions are excluded from the ratio means
    population.append(agent_with(2, [("bakala", 1)]))
    point = compute_series_point(PopulationMonitor(population), [], at=0, window=50)
    assert point.mean_forms_per_meaning == pytest.approx(1.5)


def test_distinct_forms_dominates_per_agent_counts():
    population = [
        agent_with(0, [("bakala", 1), ("defile", 2)]),
        agent_with(1, [("bakala", 1), ("gikolu", 2)]),
    ]
    point = compute_series_point(PopulationMonitor(population), [], at=0, window=50)
    per_agent_max = max(len(a.inventory.forms()) for a in population)
    assert point.distinct_forms_population >= per_agent_max
    assert point.distinct_forms_population == 3


@pytest.mark.parametrize("random_palette", [False, True])
@pytest.mark.parametrize("noise_std", [0.0, 3.0, 20.0])
@pytest.mark.parametrize("series_interval", [1, 7])
@pytest.mark.parametrize("population_size", [2, 3, 20, 50])
def test_incremental_series_equals_full_rescan(
    monkeypatch, population_size, series_interval, noise_std, random_palette
):
    incremental = monitors.compute_series_point
    checked = []

    def checked_point(monitor, records, at, window):
        point = incremental(monitor, records, at, window)
        assert point == oracle_series_point(monitor.population, records, at, window)
        checked.append(at)
        return point

    monkeypatch.setattr(monitors, "compute_series_point", checked_point)
    params = ExperimentParams(
        population_size=population_size,
        num_interactions=1500,
        noise_std=noise_std,
        use_random_palette=random_palette,
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
    assert rows[0]["success_window_avg_std"] == pytest.approx(
        statistics.stdev([0.4, 0.6])
    )
    assert rows[0]["success_window_avg_std"] == pytest.approx(0.141421356)

    single = aggregate_runs([run_b])
    assert single[0]["success_window_avg_mean"] == 0.6
    assert single[0]["success_window_avg_std"] == 0.0


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
