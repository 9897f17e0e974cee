"""Shared test helpers: brute-force oracles and a call-recording backend.

The oracles intentionally re-derive results through squared distances and
explicit scans so they share no code path with the library implementation.
`oracle_series_point` rescans every agent's whole inventory and re-sums the
success window from the records, the reference for the incremental
`monitors.compute_series_point`. `oracle_perceive` replays perception with
min/max clamps and `rng.gauss`, the reference for `world.perceive`'s
comparison clamps and in-line noise draws. `oracle_produce` and
`oracle_comprehend` filter, take the top score, then break ties, the
reference for the lexicon's indexed lookups. `constructions_of` lists an
inventory's constructions from its `by_form` index, which is where a test
finds the objects an inventory holds; a construction equals only itself, so
`fields_of` is the value a test compares across copies or inventories.
`oracle_series_csv` and
`oracle_aggregate_csv` write each field with its own f-string through
`csv.writer`, the reference for the one `%` format per line of
`monitors.export_run` and `monitors.export_aggregate`.
`oracle_aggregate_rows` builds one dict per row with a fresh `math.fsum` and
`stdev` on every column, the reference for `monitors.aggregate_runs`' tuple
rows, its one-run pass-through and its reuse of repeated columns. `stdev`
sums a column's values and squares afresh for `monitors._deviation`, the
reference for the aggregate's folded sums and, against `statistics.stdev`,
for `_deviation`'s rounding.
Oracle comparisons should use integer-valued colours: squared distances are
then exact integers and agree with the library's sqrt-based ordering.
"""
from __future__ import annotations

import csv
import io
import math
import operator
import random

from colourgame.embodiment import SimulatedBackend, register_backend
from colourgame.errors import ConfigurationError
from colourgame.monitors import (
    AGGREGATE_HEADER,
    SERIES_FIELDS,
    SERIES_HEADER,
    SeriesPoint,
    _deviation,
)
from colourgame.world import RGB, Colour, World


def squared_distance(a: RGB, b: RGB) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total


def oracle_closest(prototypes: list[RGB], observation: RGB) -> int | None:
    """Id of the prototype nearest to `observation`, ties to the smallest id;
    category k's prototype is `prototypes[k - 1]`."""
    if not prototypes:
        return None
    ranked = sorted(
        range(1, len(prototypes) + 1),
        key=lambda k: (squared_distance(prototypes[k - 1], observation), k),
    )
    return ranked[0]


def oracle_conceptualise(
    prototypes: list[RGB], topic_id: str, model: dict[str, RGB]
) -> int | None:
    best = oracle_closest(prototypes, model[topic_id])
    if best is None:
        return None
    prototype = prototypes[best - 1]
    topic_d = squared_distance(prototype, model[topic_id])
    for object_id, observed in model.items():
        if object_id == topic_id:
            continue
        if squared_distance(prototype, observed) <= topic_d:
            return None
    return best


def oracle_interpret(
    prototypes: list[RGB], category_id: int, model: dict[str, RGB]
) -> str | None:
    prototype = prototypes[category_id - 1]
    distances = [
        (squared_distance(prototype, observed), object_id)
        for object_id, observed in model.items()
    ]
    if not distances:
        return None
    smallest = min(d for d, _ in distances)
    winners = [oid for d, oid in distances if d == smallest]
    if len(winners) != 1:
        return None
    return winners[0]


def oracle_perceive(
    world: World, scene: tuple[str, ...], noise_std: float, rng: random.Random
) -> list[tuple[str, tuple[float, float, float]]]:
    """Each scene object's observed channels, clamped with min and max, from
    the same stream of `rng.gauss` draws as `world.perceive`."""
    observed = []
    for object_id in scene:
        true = world.true_colours[object_id]
        channels = tuple(
            min(255.0, max(0.0, v + rng.gauss(0.0, noise_std)))
            for v in true
        )
        observed.append((object_id, channels))
    return observed


def constructions_of(inventory) -> list:
    """Every construction `inventory` holds, bucket by bucket of `by_form`:
    forms in the order they were first held, each bucket in the order its
    constructions were added."""
    return [c for bucket in inventory.by_form.values() for c in bucket]


def fields_of(construction) -> tuple[str, int, float]:
    """A construction's value: its (form, category_id, score)."""
    return construction.form, construction.category_id, construction.score


def oracle_produce(constructions, category_id: int):
    """Strongest construction for a category, score ties to the smallest
    form: filter, take the top score, then break the tie."""
    candidates = [c for c in constructions if c.category_id == category_id]
    if not candidates:
        return None
    top = max(c.score for c in candidates)
    return min((c for c in candidates if c.score == top), key=lambda c: c.form)


def oracle_comprehend(constructions, form: str):
    """Strongest construction for a form, score ties to the smallest
    category id."""
    candidates = [c for c in constructions if c.form == form]
    if not candidates:
        return None
    top = max(c.score for c in candidates)
    return min(
        (c for c in candidates if c.score == top), key=lambda c: c.category_id
    )


def windowed_success(records, window: int, at: int) -> float:
    """Fraction of successes among the last min(window, at) games up to `at`,
    re-summed from the records; zero games played means zero success."""
    if at == 0:
        return 0.0
    recent = records[max(0, at - window) : at]
    return sum(1 for r in recent if r.success) / len(recent)


def fmean(values) -> float:
    """`statistics.fmean`'s value for a non-empty list, without its
    Python-level checks."""
    return math.fsum(values) / len(values)


def stdev(values) -> float:
    """Correctly rounded sample standard deviation of two or more finite
    floats or ints, such as an int column of `distinct_forms_population`;
    equal to `statistics.stdev` on CPython 3.11 and later."""
    ratios = [v.as_integer_ratio() for v in values]
    # Every denominator is a power of two; over the largest, 2**shift, every
    # value is an integer.
    unit = max([den for _, den in ratios])
    scaled = [num * (unit // den) for num, den in ratios]
    return _deviation(
        len(values),
        sum(scaled),
        sum(map(operator.mul, scaled, scaled)),
        unit.bit_length() - 1,
    )


def oracle_series_point(population, records, at: int, window: int) -> SeriesPoint:
    """Every monitored value at `at`, from a full rescan of the population.

    An agent's forms per meaning is the mean, over the categories its
    constructions name, of how many constructions name each. Those counts
    are whole numbers that sum to its construction count, so the mean is
    that count over the number of distinct categories; likewise for
    meanings per form over distinct forms."""
    held = [constructions_of(agent.inventory) for agent in population]
    ontology_sizes = [len(agent.ontology) for agent in population]
    inventory_sizes = [len(constructions) for constructions in held]
    all_forms = {c.form for constructions in held for c in constructions}

    forms_per_meaning: list[float] = []
    meanings_per_form: list[float] = []
    for constructions in held:
        if not constructions:
            continue
        count = len(constructions)
        forms_per_meaning.append(count / len({c.category_id for c in constructions}))
        meanings_per_form.append(count / len({c.form for c in constructions}))

    return SeriesPoint(
        interaction=at,
        success_window_avg=windowed_success(records, window, at),
        mean_ontology_size=fmean(ontology_sizes) if population else 0.0,
        mean_inventory_size=fmean(inventory_sizes) if population else 0.0,
        distinct_forms_population=len(all_forms),
        mean_forms_per_meaning=fmean(forms_per_meaning) if forms_per_meaning else 0.0,
        mean_meanings_per_form=fmean(meanings_per_form) if meanings_per_form else 0.0,
    )


def oracle_series_csv(series) -> str:
    """series.csv's text: the interaction and the form count through str,
    the other fields with a six-decimal f-string, each row written by
    `csv.writer`."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SERIES_HEADER)
    for point in series:
        writer.writerow(
            [
                str(point.interaction),
                f"{point.success_window_avg:.6f}",
                f"{point.mean_ontology_size:.6f}",
                f"{point.mean_inventory_size:.6f}",
                str(point.distinct_forms_population),
                f"{point.mean_forms_per_meaning:.6f}",
                f"{point.mean_meanings_per_form:.6f}",
            ]
        )
    return buffer.getvalue()


def oracle_aggregate_rows(series_per_run) -> list[dict[str, float]]:
    """Per-interaction mean and sample standard deviation across runs, one
    dict per row keyed by `AGGREGATE_HEADER`: every column transposed and
    summed afresh, whatever the number of runs."""
    if not series_per_run:
        raise ConfigurationError("nothing to aggregate: no runs given")
    lengths = {len(series) for series in series_per_run}
    if len(lengths) != 1:
        raise ConfigurationError(
            f"runs disagree on series length: {sorted(lengths)}"
        )
    n = len(series_per_run)
    rows: list[dict[str, float]] = []
    for i, points in enumerate(zip(*series_per_run)):
        interactions, *columns = zip(*points)
        if interactions.count(interactions[0]) != n:
            raise ConfigurationError(
                f"runs disagree on interaction numbering at row {i}: "
                f"{sorted(set(interactions))}"
            )
        row: dict[str, float] = {"interaction": interactions[0]}
        for field, column in zip(SERIES_FIELDS, columns):
            row[f"{field}_mean"] = math.fsum(column) / n
            row[f"{field}_std"] = stdev(column) if n > 1 else 0.0
        rows.append(row)
    return rows


def oracle_aggregate_csv(rows) -> str:
    """aggregate.csv's text from tuple rows read through `AGGREGATE_HEADER`:
    the interaction through int and str, every mean and std with a
    six-decimal f-string, each row written by `csv.writer`."""
    keys = [f"{field}_{stat}" for field in SERIES_FIELDS for stat in ("mean", "std")]
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["interaction", *keys])
    for values in rows:
        row = dict(zip(AGGREGATE_HEADER, values, strict=True))
        writer.writerow(
            [str(int(row["interaction"]))] + [f"{row[key]:.6f}" for key in keys]
        )
    return buffer.getvalue()


def random_int_colour(rng: random.Random) -> RGB:
    return Colour(rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255))


class RecordingBackend:
    """Wraps the simulated backend and logs every capability call."""

    kind = "recording"

    def __init__(self, identity: str, inner: SimulatedBackend, trace: list) -> None:
        self.identity = identity
        self.inner = inner
        self.trace = trace

    def _log(self, capability: str) -> None:
        self.trace.append((capability, self.identity))

    def embody(self, agent_id):
        self._log("embody")
        return self.inner.embody(agent_id)

    def observe_world(
        self, world: World, scene: tuple[str, ...], rng: random.Random
    ) -> dict[str, RGB]:
        self._log("observe_world")
        return self.inner.observe_world(world, scene, rng)

    def speak(self, utterance):
        self._log("speak")
        return self.inner.speak(utterance)

    def hear(self, utterance):
        self._log("hear")
        return self.inner.hear(utterance)

    def point(self, object_id):
        self._log("point")
        return self.inner.point(object_id)

    def nod(self):
        self._log("nod")
        return self.inner.nod()


def register_recording_backend(trace: list) -> None:
    """Install a 'recording' backend kind writing into `trace`."""

    def factory(identity: str, noise_std: float = 3.0) -> RecordingBackend:
        return RecordingBackend(
            identity, SimulatedBackend(identity, noise_std=noise_std), trace
        )

    register_backend("recording", factory)


def split_into_games(trace: list) -> list[list[str]]:
    """Split a capability trace into per-game call lists.

    Every game starts with a pair of adjacent embody calls, so a new game
    begins at each embody that does not directly follow another embody.
    """
    games: list[list[str]] = []
    previous = None
    for call, _identity in trace:
        if call == "embody" and previous != "embody":
            games.append([])
        games[-1].append(call)
        previous = call
    return games
