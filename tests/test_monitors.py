import csv
import html
import io
import json
import math
import random
import re
import statistics
import sys
import weakref
from fractions import Fraction

import pytest

from colourgame import monitors
from colourgame.embodiment import make_body
from colourgame.engine import (
    Agent,
    ExperimentParams,
    InteractionRecord,
    make_population,
    run_experiment,
    run_interaction,
)
from colourgame.errors import ConfigurationError
from colourgame.lexicon import SPEAKER
from colourgame.monitors import (
    AGGREGATE_HEADER,
    SERIES_FIELDS,
    SERIES_HEADER,
    PopulationMonitor,
    SeriesPoint,
    aggregate_runs,
    compute_series_point,
    export_aggregate,
    export_run,
    take_snapshot,
)
from colourgame.world import DEFAULT_PALETTE, Colour, make_world
from helpers import (
    oracle_aggregate_csv,
    oracle_aggregate_rows,
    oracle_series_csv,
    oracle_series_point,
    stdev,
    windowed_success,
)


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


def success_after(successes: list[bool], window: int = 50) -> float:
    """The windowed success of a series point taken after `successes`."""
    monitor = PopulationMonitor([Agent(0), Agent(1)], window)
    for record in records_with(successes):
        monitor.observe(record)
    return compute_series_point(monitor, len(successes)).success_window_avg


def test_windowed_success_basics():
    assert success_after([True] * 50) == 1.0
    assert success_after([False]) == 0.0
    assert success_after([]) == 0.0


def test_windowed_success_alternating_and_clamping():
    assert success_after([i % 2 == 0 for i in range(100)]) == 0.5
    # only three games have been played
    assert success_after([True, True, False]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        PopulationMonitor([Agent(0), Agent(1)], window=0)


def test_windowed_success_uses_most_recent_games():
    assert success_after([False] * 50 + [True] * 50) == 1.0
    assert success_after([False] * 50) == 0.0


def test_windowed_success_never_drops_when_success_evicts_failure():
    import random as _random

    rng = _random.Random(40)
    flags = [rng.random() < 0.5 for _ in range(200)]
    records = records_with(flags)
    monitor = PopulationMonitor([Agent(0), Agent(1)], 50)
    previous = 0.0
    for n, record in enumerate(records, start=1):
        monitor.observe(record)
        current = compute_series_point(monitor, n).success_window_avg
        assert current == windowed_success(records, 50, n)
        if n > 50 and flags[n - 1] and not flags[n - 51]:
            assert current >= previous
        previous = current


def agent_with(agent_id: int, pairs: list[tuple[str, int]]) -> Agent:
    agent = Agent(agent_id)
    category_ids = {}
    for form, meaning in pairs:
        if meaning not in category_ids:
            category_ids[meaning] = agent.ontology.invent_category(
                Colour(min(255, meaning * 40), 0, 0)
            )
        agent.inventory.add_construction(form, category_ids[meaning], 0.5)
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
    per_agent_max = max(len(a.inventory.by_form) for a in population)
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
        record = records_with([True])[0]._replace(
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
    [bakala] = swapper.by_form["bakala"]
    swapper.add_construction("zulewa", bakala.category_id, 0.5)
    swapper.punish(bakala, 1.0)
    assert len(swapper) == 2 and set(swapper.by_form) == {"defile", "zulewa"}
    scorer.reward_and_inhibit(scorer.by_form["bakala"][0], SPEAKER, 0.1, 0.2)
    scorer.punish(scorer.by_form["gikolu"][0], 0.1)
    assert len(scorer) == 2
    assert play(0, 1, 1).distinct_forms_population == 5
    # A word adopted for a category the agent already has: the ontology
    # stays, only the inventory grows.
    adopter = population[2].inventory
    [lamune] = adopter.by_form["lamune"]
    adopter.add_construction("defile", lamune.category_id, 0.5)
    assert play(2, 1, 2).mean_forms_per_meaning == pytest.approx(5 / 3)
    # A construction pruned with nothing added in its place.
    adopter.punish(lamune, 1.0)
    assert play(1, 2, 3).distinct_forms_population == 4


def test_a_form_lost_and_regained_between_rows_leaves_no_note():
    population = [
        agent_with(0, [("bakala", 1), ("defile", 2)]),
        agent_with(1, [("gikolu", 1)]),
    ]
    monitor = PopulationMonitor(population, window=50)
    records = []

    def row(at):
        record = records_with([True])[0]._replace(
            interaction_number=at, speaker_id=0, hearer_id=1
        )
        monitor.observe(record)
        records.append(record)
        point = compute_series_point(monitor, at)
        assert point == oracle_series_point(population, records, at, 50)
        return point

    assert compute_series_point(monitor, 0) == oracle_series_point(
        population, records, 0, 50
    )
    # Between two rows agent 0 loses "bakala" and adopts it again, and
    # coins "zulewa" and loses it: each pair of notes nets out.
    inventory = population[0].inventory
    [bakala] = inventory.by_form["bakala"]
    inventory.punish(bakala, 1.0)
    inventory.add_construction("bakala", bakala.category_id, 0.5)
    inventory.punish(inventory.add_construction("zulewa", 2, 0.5), 1.0)
    assert inventory.form_changes == {}
    assert row(1).distinct_forms_population == 3
    # Losing "bakala" for good takes it out of the population's forms.
    inventory.punish(inventory.by_form["bakala"][0], 1.0)
    assert inventory.form_changes == {"bakala": -1}
    assert row(2).distinct_forms_population == 2
    assert inventory.form_changes == {}


def test_a_second_monitor_over_a_counted_population_equals_the_oracle():
    # One monitor counts the first 300 games and drains the inventories'
    # notes; a fresh one then takes over. Its first count of each agent
    # reads the inventory whole, not the notes left since the last drain.
    params = ExperimentParams(population_size=6, noise_std=20.0)
    population = make_population(params.population_size)
    world = make_world(DEFAULT_PALETTE, params.objects_per_scene)
    bodies = tuple(
        make_body("simulated", name, noise_std=params.noise_std)
        for name in ("body-a", "body-b")
    )
    rng = random.Random(4)
    first = PopulationMonitor(population, params.window)
    for n in range(1, 301):
        first.observe(run_interaction(population, world, bodies, params, rng, n))
        if n % 7 == 0:
            compute_series_point(first, n)
    second = PopulationMonitor(population, params.window)
    records = []
    for n in range(301, 601):
        record = run_interaction(population, world, bodies, params, rng, n)
        second.observe(record)
        records.append(record)
        # The oracle's window counts games from the second monitor's first.
        assert compute_series_point(second, n) == oracle_series_point(
            population, records, len(records), params.window
        )._replace(interaction=n)
    assert len({len(agent.inventory.by_form) for agent in population}) > 1


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
@pytest.mark.parametrize("population_size", [2, 3, 20, 50, 200])
def test_incremental_series_equals_full_rescan(
    monkeypatch, population_size, series_interval, noise_std, random_palette, window
):
    checked = []

    class CheckedMonitor(PopulationMonitor):
        """Keeps the population and the observed records for the oracle's
        full rescan and re-summed window."""

        def __init__(self, population, window):
            super().__init__(population, window)
            self.population = population
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
    agent.ontology.prototypes[0] = Colour(7, 246, 9)
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
    agent.inventory.by_form["fusemo"][0].score = 0.9
    agent.ontology.prototypes[0] = Colour(0, 0, 0)
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
    agent.ontology.prototypes[0] = Colour(7, 246, 9)
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


# Values whose six-decimal text is easy to get wrong: a zero, a sum off its
# decimal, ties and near-ties at the sixth decimal, a float past 2**53, and
# ints where the columns hold floats.
CSV_FLOATS = (0.0, 0.1 + 0.2, 5e-7, 2.5e-7, 1.5e-6, 1e16, 1 / 3, 0, 6, 10**6)
CSV_INTS = (0, 1, 7, 999_999, 10**6)


def stretches(first: tuple, int_columns=()) -> list[tuple]:
    """Rows that repeat every value after the interaction number, three at a
    time, with each stretch changing one column of the last: in turn, each
    column to a value one ulp away (an int column to the next int), and each
    float column to 0.0, then the int 0, zeros that are == and must print
    alike (an int column to the int 0)."""
    rows = []
    values = list(first)
    changes = [
        (k, math.nextafter(values[k], math.inf) if k not in int_columns
         else values[k] + 1)
        for k in range(len(values))
    ]
    changes += [
        (k, zero)
        for k in range(len(values))
        for zero in ((0,) if k in int_columns else (0.0, 0))
    ]
    for k, value in changes:
        values[k] = value
        for _ in range(3):
            rows.append((len(rows) + 1, *values))
    return rows


def test_csv_lines_match_the_csv_module_oracle(tmp_path):
    # Each point shifts the float values one column along, so every float
    # field takes every value; the two int fields run through CSV_INTS.
    # Then stretches of points repeat all values after the interaction.
    series = [
        SeriesPoint(
            CSV_INTS[i % len(CSV_INTS)],
            *(CSV_FLOATS[(i + k) % len(CSV_FLOATS)] for k in range(3)),
            CSV_INTS[-1 - i % len(CSV_INTS)],
            *(CSV_FLOATS[(i + k) % len(CSV_FLOATS)] for k in range(3, 5)),
        )
        for i in range(2 * len(CSV_FLOATS))
    ]
    series += [
        SeriesPoint(*row)
        for row in stretches((0.25, 0.0, 6.5, 7, 1 / 3, 1.0), int_columns={3})
    ]
    series_path = export_run(series, [], tmp_path)[0]
    assert series_path.read_bytes() == oracle_series_csv(series).encode()

    rows = [
        (
            CSV_INTS[i % len(CSV_INTS)],
            *(
                CSV_FLOATS[(i + k) % len(CSV_FLOATS)]
                for k in range(len(AGGREGATE_HEADER) - 1)
            ),
        )
        for i in range(2 * len(CSV_FLOATS))
    ]
    rows += stretches(CSV_FLOATS[1:] + CSV_FLOATS[1:4])
    lines = io.StringIO(newline="")
    lines.write(",".join(AGGREGATE_HEADER) + "\n")
    monitors._write_rows(lines, rows, monitors._AGGREGATE_TAIL)
    assert lines.getvalue() == oracle_aggregate_csv(rows)
    # The same interactions with another run's values, for nonzero deviations.
    other = [SeriesPoint(a[0], *b[1:]) for a, b in zip(series, reversed(series))]
    for runs in ([series], [series, other]):
        aggregate_path = export_aggregate(runs, tmp_path)
        expected = oracle_aggregate_csv(aggregate_runs(runs))
        assert aggregate_path.read_bytes() == expected.encode()


def test_one_run_aggregate_csv_matches_the_oracle(tmp_path):
    # A single run's aggregate.csv is written from its points: every value
    # spelt as fsum([v]) / 1 spells it (an int as the equal float), and each
    # deviation 0.0. The points hold stretches that repeat all values after
    # the interaction, one column moving by an ulp or to a zero at a time.
    first = (0.0, 2**53 - 1, 0.1 + 0.2, 7, 2.0**60, 1 / 3)
    series = [SeriesPoint(*row) for row in stretches(first)]
    series.append(SeriesPoint(len(series) + 1, 2**53 - 1, *first[1:]))
    expected = [
        tuple(row[key] for key in AGGREGATE_HEADER)
        for row in oracle_aggregate_rows([series])
    ]
    path = export_aggregate([series], tmp_path)
    assert path.read_bytes() == oracle_aggregate_csv(expected).encode()


def test_a_single_run_aggregate_is_written_without_folding(tmp_path, monkeypatch):
    # A single run's aggregate.csv is written straight from its points,
    # which costs a fraction of folding it; the fold gives the same rows.
    first = (0.0, 2**53 - 1, 0.1 + 0.2, 7, 2.0**60, 1 / 3)
    series = [SeriesPoint(*row) for row in stretches(first)]
    expected = [
        tuple(row[key] for key in AGGREGATE_HEADER)
        for row in oracle_aggregate_rows([series])
    ]

    class NoFold:
        def __init__(self, length):
            raise AssertionError("a single run was folded")

    with monkeypatch.context() as patched:
        patched.setattr(monitors, "_RunSums", NoFold)
        path = export_aggregate(iter([series]), tmp_path)
    assert path.read_bytes() == oracle_aggregate_csv(expected).encode()
    assert [repr(row) for row in aggregate_runs([series])] == list(
        map(repr, expected)
    )


# Forms json must escape (a quote, a backslash, control characters, non-ASCII
# text, a surrogate pair) next to plain ones.
SNAPSHOT_FORMS = (
    "fusemo", 'sa"ki', "ba\\lu", "ta\tb\x01", "\x7f\n", "héllo", "日本語",
    "\u2028", "😀", "",
)
# Channels and scores as ints and floats, with the spellings json has to
# get right: a small and a large exponent, a negative zero, NaN and both
# infinities.
SNAPSHOT_NUMBERS = (
    0, 7, 255, 10**20, 0.0, -0.0, 0.5, 1e-7, 1e16, 1 / 3, 246.00000000000003,
    123.456, math.nan, math.inf, -math.inf,
)


def seeded_snapshots(rng: random.Random, count: int) -> list:
    """`count` snapshots of 0-3 categories of 0-3 forms each, from the
    values above."""
    snapshots = []
    for _ in range(count):
        entries = tuple(
            {
                "category_id": category_id,
                "prototype": [rng.choice(SNAPSHOT_NUMBERS) for _ in range(3)],
                "forms": [
                    {
                        "form": rng.choice(SNAPSHOT_FORMS),
                        "score": rng.choice(SNAPSHOT_NUMBERS),
                    }
                    for _ in range(rng.randint(0, 3))
                ],
            }
            for category_id in range(1, rng.randint(0, 3) + 1)
        )
        at, agent_id = rng.randint(0, 10**6), rng.randint(0, 49)
        snapshots.append(monitors.LexiconSnapshot(at, agent_id, entries))
    return snapshots


def json_dump_text(snapshots) -> str:
    """snapshots.json as json.dump(indent=2, sort_keys=True) writes it."""
    buffer = io.StringIO()
    json.dump(
        [
            {
                "interaction_number": s.interaction_number,
                "agent_id": s.agent_id,
                "entries": s.entries,
            }
            for s in snapshots
        ],
        buffer,
        indent=2,
        sort_keys=True,
    )
    buffer.write("\n")
    return buffer.getvalue()


def test_snapshot_writer_matches_json_dump_byte_for_byte(tmp_path):
    rng = random.Random(314)
    empty_agent = monitors.LexiconSnapshot(3, 1, ())
    formless = monitors.LexiconSnapshot(
        4, 2, ({"category_id": 1, "prototype": [1, 2.5, -0.0], "forms": []},)
    )
    # Every special score and form at least once, on int and float channels.
    scored = monitors.LexiconSnapshot(
        5,
        0,
        (
            {
                "category_id": 2,
                "prototype": [0, 246.00000000000003, math.nan],
                "forms": [
                    {"form": form, "score": score}
                    for form, score in zip(
                        SNAPSHOT_FORMS,
                        (1e-7, 1e16, -0.0, math.nan, math.inf, -math.inf, 0.5, 1),
                    )
                ],
            },
        ),
    )
    # A registered backend may observe a bool channel, which json spells
    # true or false.
    boolean = monitors.LexiconSnapshot(
        6, 3, ({"category_id": 1, "prototype": [True, False, 0.5], "forms": []},)
    )
    cases = [[], [empty_agent], [formless], [empty_agent, formless], [scored]]
    cases.append([boolean])
    cases += [seeded_snapshots(rng, rng.randint(1, 6)) for _ in range(200)]
    played = run_experiment(ExperimentParams(num_interactions=120), 5)
    cases.append(played.snapshots)
    for snapshots in cases:
        buffer = io.StringIO()
        monitors.write_snapshots_json(snapshots, buffer)
        assert buffer.getvalue() == json_dump_text(snapshots)
    # Every value above was written at least once.
    text = "".join(map(json_dump_text, cases))
    for value in SNAPSHOT_NUMBERS:
        assert json.dumps(value) in text
    # export_run writes the same bytes to the file.
    json_path = export_run([], played.snapshots, tmp_path)[1]
    assert json_path.read_bytes() == json_dump_text(played.snapshots).encode()


def test_snapshot_html_escapes_forms_as_html_escape_does():
    # Each form is rendered in place of a placeholder that needs no escaping,
    # so the page must equal the placeholder page with every placeholder
    # replaced by html.escape(form, quote=True).
    forms = SNAPSHOT_FORMS + ("&<>\"'", "&amp;", "'<b>'")
    placeholders = [f"zq{i}zq" for i in range(len(forms))]

    def page(labels) -> str:
        entry = {
            "category_id": 1,
            "prototype": [1, 2, 3],
            "forms": [{"form": label, "score": 0.5} for label in labels],
        }
        return monitors.render_snapshots_html(
            [monitors.LexiconSnapshot(10, 0, (entry,))]
        )

    expected = page(placeholders)
    for placeholder, form in zip(placeholders, forms):
        assert expected.count(placeholder) == 1
        expected = expected.replace(placeholder, html.escape(form, quote=True))
    assert page(forms) == expected


def test_export_run_unwritable_directory(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    with pytest.raises(OSError):
        export_run(synthetic_series(3), [], blocker / "out")


def row_dicts(rows) -> list[dict]:
    """Tuple rows as dicts keyed by aggregate.csv's header."""
    return [dict(zip(AGGREGATE_HEADER, row, strict=True)) for row in rows]


def test_aggregate_runs_degenerate_and_two_run_cases():
    series = synthetic_series(5)
    identical = row_dicts(aggregate_runs([series] * 10))
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
    run_a[0] = run_b[0]._replace(success_window_avg=0.4)
    rows = row_dicts(aggregate_runs([run_a, run_b]))
    assert rows[0]["success_window_avg_mean"] == pytest.approx(0.5)
    # sample standard deviation, as documented
    assert rows[0]["success_window_avg_std"] == statistics.stdev([0.4, 0.6])
    assert rows[0]["success_window_avg_std"] == pytest.approx(0.141421356)

    single = row_dicts(aggregate_runs([run_b]))
    assert single[0]["success_window_avg_mean"] == 0.6
    assert single[0]["success_window_avg_std"] == 0.0


def stdev_vectors(count: int, seed: int) -> list[list[float]]:
    """Seeded vectors of 2..30 finite floats of every kind `stdev` must
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
        if (got := repr(stdev(vector)))
        != (want := repr(statistics.stdev(vector)))
    ]
    assert mismatches == [], f"{len(mismatches)} mismatches, first {mismatches[:3]}"


def test_stdev_of_equal_values_is_exactly_zero():
    # Needs no statistics module, so it runs on every CPython.
    for values in (
        [2.5] * 7,
        [5e-324] * 4,
        [-0.0] * 3,
        [0.0, -0.0],
        [1e308] * 2,
        [2**60 + 1] * 3,
    ):
        assert repr(stdev(values)) == "0.0", values


def test_stdev_is_the_correctly_rounded_root_of_a_float_variance():
    # Where the exact sample variance is itself a float, math.sqrt rounds
    # its root correctly (IEEE 754), so this needs no statistics module and
    # runs on every CPython. Most of these roots are inexact, so they check
    # the rounding to odd as well.
    rng = random.Random(5)
    checked = 0
    for _ in range(2000):
        ints = [rng.randint(-40, 40) for _ in range(rng.randint(2, 6))]
        n = len(ints)
        variance = Fraction(
            n * sum(v * v for v in ints) - sum(ints) ** 2, n * (n - 1)
        )
        if variance.denominator & (variance.denominator - 1):
            continue  # not a dyadic rational, so not a float
        scale = 2.0 ** rng.randint(-60, 60)
        values = [v * scale for v in ints]
        expected = math.sqrt(float(variance) * scale * scale)
        assert repr(stdev(values)) == repr(expected), ints
        checked += 1
    assert checked > 500


def varied_runs(rng: random.Random, runs: int, length: int) -> list:
    """`runs` series on one interaction grid whose fields often repeat their
    previous value, as a converged run's do, and take values that are == but
    spelt differently: 0.0 and -0.0, ints and the equal floats."""
    zeros_and_ints = (0.0, -0.0, 0, 1, 1.0, 6, 6.0)
    series = [[] for _ in range(runs)]
    for i in range(length):
        for points in series:
            if points and rng.random() < 0.6:
                values = list(points[-1][1:])
            else:
                values = [rng.uniform(0, 8) for _ in SERIES_FIELDS]
            for k in range(len(values)):
                if rng.random() < 0.25:
                    values[k] = rng.choice(zeros_and_ints)
            points.append(SeriesPoint(i * 3 + 1, *values))
    return series


def test_aggregate_runs_matches_the_dict_oracle():
    rng = random.Random(77)
    cases = [
        varied_runs(rng, rng.randint(1, 5), rng.randint(0, 60)) for _ in range(150)
    ]
    # Columns equal to the previous row's in every field, and columns that
    # are == to it only across zero sign and int/float spelling.
    same = [SeriesPoint(1, 0.25, 6.0, 6.5, 7, 1.25, 1.0)] * 3
    cases.append([same, same])
    cases.append(
        [
            [
                SeriesPoint(1, 0.0, 6, 1.5, 7, 0, 1),
                SeriesPoint(2, -0.0, 6.0, 1.5, 7.0, -0.0, 1.0),
            ],
            [
                SeriesPoint(1, -0.0, 6.0, 2.5, 7, 0.0, 1),
                SeriesPoint(2, 0, 6, 2.5, 7, 0, 1.0),
            ],
        ]
    )
    # One run: a mean over n = 1 rounds each value once, as fsum([v]) / 1
    # does, so even -0.0 and an int past 2**53 come out as fsum spells them.
    cases.append([[SeriesPoint(1, -0.0, 6, 0.0, 7, -0.0, 2**60 + 1)]])
    repeated = 0
    for series_per_run in cases:
        rows = list(aggregate_runs(series_per_run))
        expected = oracle_aggregate_rows(series_per_run)
        assert [repr(row) for row in rows] == [
            repr(tuple(row[key] for key in AGGREGATE_HEADER)) for row in expected
        ]
        assert all(type(row) is tuple for row in rows)
        if len(series_per_run) > 1:
            columns = [list(zip(*points))[1:] for points in zip(*series_per_run)]
            repeated += sum(
                a == b
                for previous, current in zip(columns, columns[1:])
                for a, b in zip(previous, current)
            )
    assert repeated > 1000


def test_aggregate_runs_folds_runs_handed_over_one_at_a_time():
    # Ints just below 2**53, whose sums pass it and are rounded once, as
    # fsum rounds them; a denominator finer than any before it arriving
    # with the last run; and a row where two runs swap sums, so that the
    # total stays put while the sum of squares moves.
    big = 2**53 - 1
    batch = [
        [
            SeriesPoint(1, 1.0, big, 3, 7, 0.5, big - 4),
            SeriesPoint(2, 2.0, big, 3, 7, 0.5, 1),
            SeriesPoint(3, 2.0, big - 2, 3, 8, 0.5, 1),
            SeriesPoint(4, 2.0, big - 2, 3, 2**52 + 1, 0.5, 1),
        ],
        [
            SeriesPoint(1, 3.0, 2**52 + 1, 3, 8, 0.5, big - 4),
            SeriesPoint(2, 2.0, 2**52 + 1, 6.0, 8, 0.1, 2),
            SeriesPoint(3, 2.0, big, 6, 8.0, 0.1, 2**52),
            SeriesPoint(4, 2.0, big, 6, 2**52 + 1, 0.1, 2**52),
        ],
        [
            SeriesPoint(1, 0.25, 7, 3.0, 7, 0.5, 0),
            SeriesPoint(2, 0.25, 7, 3.0, 7, 5e-324, 0.0),
            SeriesPoint(3, 0.25, 0, 3.0, 7, 5e-324, 0.0),
            SeriesPoint(4, 0.25, 0, 3.0, 2**52 + 1, 5e-324, 0.0),
        ],
    ]
    handed = iter(batch)
    rows = aggregate_runs(handed)
    assert next(handed, None) is None  # every run was read at the call
    assert [repr(row) for row in rows] == [
        repr(tuple(row[key] for key in AGGREGATE_HEADER))
        for row in oracle_aggregate_rows(batch)
    ]


def is_plus_finite_float(value) -> bool:
    """Whether `value` is a float that is finite, >= 0 and not -0.0."""
    return type(value) is float and math.isfinite(value) and (
        math.copysign(1.0, value) == 1.0
    )


def test_a_run_makes_only_the_values_the_exporters_take():
    # The kind of value SeriesPoint documents, on which the exporters rely:
    # ints below 2**53 for the interaction and the form count, and finite
    # floats >= 0, never -0.0, for every other field and aggregate value.
    configs = [
        ExperimentParams(),
        ExperimentParams(noise_std=0.0),
        ExperimentParams(noise_std=60.0),
        ExperimentParams(population_size=50, num_interactions=2000),
        ExperimentParams(
            random_palette=True, palette_size=12, min_separation=60.0,
            noise_std=30.0,
        ),
        ExperimentParams(series_interval=7, window=1),
        ExperimentParams(num_interactions=0),
    ]
    points = 0
    for params in configs:
        runs = [run_experiment(params, seed).series for seed in range(3)]
        for series in runs:
            for point in series:
                points += 1
                assert type(point.interaction) is int, point
                forms = point.distinct_forms_population
                assert type(forms) is int and 0 <= forms < 2**53, point
                assert all(
                    is_plus_finite_float(getattr(point, field))
                    for field in SERIES_FIELDS
                    if field != "distinct_forms_population"
                ), point
        for row in aggregate_runs(runs):
            assert all(map(is_plus_finite_float, row[1:])), row
    assert points > 3 * 5000


def test_export_aggregate_keeps_no_run_it_has_folded(tmp_path):
    # export_aggregate reads two runs ahead to tell one run from several.
    # After that, each run is let go once folded: when the batch plays run
    # k, no run before k - 1 (the one the fold last read) is alive.
    class Run(list):
        """A series a weak reference can watch."""

    played = []

    def runs():
        for k in range(6):
            folded = played[: max(k - 1, 0)]
            assert all(ref() is None for ref in folded), f"held at run {k}"
            run = Run(synthetic_series(5))
            played.append(weakref.ref(run))
            yield run
            del run

    path = export_aggregate(runs(), tmp_path)
    assert len(played) == 6
    assert len(path.read_text().splitlines()) == 6


def test_aggregate_runs_rejects_mismatched_runs(tmp_path):
    with pytest.raises(ConfigurationError):
        aggregate_runs([])
    with pytest.raises(ConfigurationError):
        aggregate_runs([synthetic_series(5), synthetic_series(6)])
    shifted = synthetic_series(5)
    shifted[0] = shifted[0]._replace(interaction=99)
    with pytest.raises(ConfigurationError):
        aggregate_runs([synthetic_series(5), shifted])
    # The same messages as the dict oracle's.
    for bad in ([], [synthetic_series(5), synthetic_series(6)],
                [synthetic_series(5), shifted]):
        with pytest.raises(ConfigurationError) as got:
            aggregate_runs(bad)
        with pytest.raises(ConfigurationError) as want:
            oracle_aggregate_rows(bad)
        assert str(got.value) == str(want.value)
        # export_aggregate makes the same checks before it writes anything.
        with pytest.raises(ConfigurationError, match=re.escape(str(want.value))):
            export_aggregate(bad, tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_aggregate_runs_checks_every_row_before_producing_one():
    # The runs agree on every interaction number but the last: the call
    # itself raises, with the oracle's message, before any row exists.
    late = synthetic_series(40)
    late[-1] = late[-1]._replace(interaction=late[-1].interaction + 1)
    with pytest.raises(ConfigurationError, match="at row 39") as got:
        aggregate_runs([synthetic_series(40), late, synthetic_series(40)])
    with pytest.raises(ConfigurationError) as want:
        oracle_aggregate_rows([synthetic_series(40), late, synthetic_series(40)])
    assert str(got.value) == str(want.value)
    # Runs that agree are only checked at the call; each row is built as
    # the iterator is advanced.
    rows = aggregate_runs([synthetic_series(40), synthetic_series(40)])
    assert not isinstance(rows, (list, tuple))
    assert next(rows)[0] == synthetic_series(40)[0].interaction
    assert len(list(rows)) == 39


def test_export_aggregate_file_shape(tmp_path):
    path = export_aggregate([synthetic_series(4), synthetic_series(4)], tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    header = lines[0].split(",")
    assert header[0] == "interaction"
    assert "success_window_avg_mean" in header
    assert "mean_meanings_per_form_std" in header
    assert len(header) == 13
