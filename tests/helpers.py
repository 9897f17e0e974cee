"""Shared test helpers: brute-force oracles and a call-recording backend.

The oracles intentionally re-derive results through squared distances and
explicit scans so they share no code path with the library implementation.
`oracle_series_point` rescans every agent's whole inventory and re-sums the
success window from the records, the reference for the incremental
`monitors.compute_series_point`. `oracle_perceive` replays perception with
min/max clamps and `rng.gauss`, the reference for `world.perceive`'s
comparison clamps and in-line noise draws. `oracle_produce` and
`oracle_comprehend` filter, take the top score, then break ties, the
reference for the lexicon's one-pass lookups.
Oracle comparisons should use integer-valued colours: squared distances are
then exact integers and agree with the library's sqrt-based ordering.
"""
from __future__ import annotations

import random
import statistics

from colourgame.conceptual import ColourCategory
from colourgame.embodiment import SimulatedBackend, register_backend
from colourgame.monitors import SeriesPoint
from colourgame.world import Colour, Percept, Scene, World, WorldModel


def squared_distance(a: Colour, b: Colour) -> float:
    total = 0.0
    for x, y in ((a.r, b.r), (a.g, b.g), (a.b, b.b)):
        total += (x - y) * (x - y)
    return total


def oracle_closest(
    categories: list[ColourCategory], observation: Colour
) -> ColourCategory | None:
    if not categories:
        return None
    ranked = sorted(
        categories,
        key=lambda c: (squared_distance(c.prototype, observation), c.category_id),
    )
    return ranked[0]


def oracle_conceptualise(
    categories: list[ColourCategory], topic: Percept, model: WorldModel
) -> int | None:
    best = oracle_closest(categories, topic.observed_colour)
    if best is None:
        return None
    topic_d = squared_distance(best.prototype, topic.observed_colour)
    for percept in model.percepts:
        if percept.object_id == topic.object_id:
            continue
        if squared_distance(best.prototype, percept.observed_colour) <= topic_d:
            return None
    return best.category_id


def oracle_interpret(
    categories: list[ColourCategory], category_id: int, model: WorldModel
) -> str | None:
    prototype = next(
        c.prototype for c in categories if c.category_id == category_id
    )
    distances = [
        (squared_distance(prototype, p.observed_colour), p.object_id)
        for p in model.percepts
    ]
    if not distances:
        return None
    smallest = min(d for d, _ in distances)
    winners = [oid for d, oid in distances if d == smallest]
    if len(winners) != 1:
        return None
    return winners[0]


def oracle_perceive(
    world: World, scene: Scene, noise_std: float, rng: random.Random
) -> list[tuple[str, tuple[float, float, float]]]:
    """Each scene object's observed channels, clamped with min and max, from
    the same stream of `rng.gauss` draws as `world.perceive`."""
    observed = []
    for object_id in scene.object_ids:
        true = world.object_by_id(object_id).true_colour
        channels = tuple(
            min(255.0, max(0.0, v + rng.gauss(0.0, noise_std)))
            for v in (true.r, true.g, true.b)
        )
        observed.append((object_id, channels))
    return observed


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


def oracle_series_point(population, records, at: int, window: int) -> SeriesPoint:
    """Every monitored value at `at`, from a full rescan of the population."""
    ontology_sizes = [len(agent.ontology) for agent in population]
    inventory_sizes = [len(agent.inventory) for agent in population]
    all_forms = {
        c.form for agent in population for c in agent.inventory.constructions
    }

    forms_per_meaning: list[float] = []
    meanings_per_form: list[float] = []
    for agent in population:
        constructions = agent.inventory.constructions
        if not constructions:
            continue
        by_category: dict[int, int] = {}
        by_form: dict[str, int] = {}
        for c in constructions:
            by_category[c.category_id] = by_category.get(c.category_id, 0) + 1
            by_form[c.form] = by_form.get(c.form, 0) + 1
        forms_per_meaning.append(statistics.fmean(by_category.values()))
        meanings_per_form.append(statistics.fmean(by_form.values()))

    return SeriesPoint(
        interaction=at,
        success_window_avg=windowed_success(records, window, at),
        mean_ontology_size=statistics.fmean(ontology_sizes) if population else 0.0,
        mean_inventory_size=statistics.fmean(inventory_sizes) if population else 0.0,
        distinct_forms_population=len(all_forms),
        mean_forms_per_meaning=(
            statistics.fmean(forms_per_meaning) if forms_per_meaning else 0.0
        ),
        mean_meanings_per_form=(
            statistics.fmean(meanings_per_form) if meanings_per_form else 0.0
        ),
    )


def random_int_colour(rng: random.Random) -> Colour:
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

    def observe_world(self, world, scene, rng):
        self._log("observe_world")
        return self.inner.observe_world(world, scene, rng)

    def speak(self, channel, utterance):
        self._log("speak")
        return self.inner.speak(channel, utterance)

    def hear(self, channel):
        self._log("hear")
        return self.inner.hear(channel)

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
