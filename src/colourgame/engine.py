"""Population management and the pairwise interaction script.

One game (`run_interaction`) runs a fixed script: two drawn agents are
embodied and both observe the scene; the speaker picks a topic,
conceptualises it and names it, inventing a category or a word if needed;
the hearer comprehends what it heard, interprets it and points; the speaker
nods or points at the topic; both agents align (`align`). Agents share
nothing but the scene, the utterance and the pointing gestures: each reads
an object's colour from its own world model.

Invariants, each explained where it is kept: every field of a run is
checked before its first game (`ExperimentParams.validate`), and a game
ends in its record whatever happens in it (`run_interaction`).
"""
from __future__ import annotations

import random
import sys
from typing import Iterator, NamedTuple

from . import monitors
from .conceptual import Ontology
from .embodiment import (
    Backend,
    embody,
    hear,
    make_body,
    nod,
    observe_world,
    point,
    speak,
)
from .errors import (
    AT_LEAST_ONE,
    AT_LEAST_ZERO,
    FINITE,
    NON_EMPTY,
    TYPE_RULES,
    Rule,
    is_int,
    within,
)
from .lexicon import (
    _ROUNDED,
    HEARER,
    SPEAKER,
    Construction,
    ConstructionInventory,
    _rounded,
    invent_word_form,
)
from .world import (
    DEFAULT_MIN_SEPARATION,
    DEFAULT_PALETTE,
    RGB,
    World,
    check_separation,
    draw_sample,
    make_world,
    random_palette,
    sample_scene,
)

FAILURE_NONE = "none"
FAILURE_UNKNOWN_WORD = "unknown_word"
FAILURE_WRONG_REFERENT = "wrong_referent"
FAILURE_DEGENERATE = "degenerate"

SNAPSHOT_ALL = "all"

# Stops a mistyped size before it allocates: 100 times the largest population
# studied (1000). A fresh agent takes ~560 bytes, so ~56 MB at the bound.
MAX_POPULATION = 100_000

# Builds a named tuple from a tuple of all its fields without the Python
# frame of the class's generated __new__; one record is built per game.
_new_tuple = tuple.__new__


class ExperimentParams(NamedTuple):
    """Everything that determines a run, apart from the seed. A named tuple:
    `params._replace(noise_std=0.0)` gives a copy with one field changed."""

    population_size: int = 5
    palette: tuple[RGB, ...] = DEFAULT_PALETTE
    objects_per_scene: int = 3
    num_interactions: int = 1000
    noise_std: float = 3.0
    min_separation: float = DEFAULT_MIN_SEPARATION
    random_palette: bool = False
    palette_size: int = 6
    initial_score: float = 0.5
    # Reward outpaces collateral inhibition so heard winners entrench quickly;
    # failure hits twice as hard as success rewards, pruning bad mappings fast.
    inc: float = 0.15
    inh: float = 0.05
    dec: float = 0.2
    shift_rate: float = 0.05
    window: int = 50
    series_interval: int = 1
    snapshot_points: tuple[int, ...] = (10, 20, 40, 100, 250)
    snapshot_agent: int | str = SNAPSHOT_ALL
    backend_kind: str = "simulated"

    def validate(self) -> None:
        """Refuse, before any game is played, a value not of its field's type
        (`FIELD_TYPES`), then one out of its range (`_range_rules`), then a
        fixed palette that `check_separation` refuses."""
        for name, rule in FIELD_TYPES.items():
            rule.require(name, getattr(self, name))
        for name, rule in _range_rules(self):
            rule.require(name, getattr(self, name))
        if not self.random_palette:
            check_separation(self.palette, self.min_separation)


# What each field's value must be, checked before its range: its override,
# else the rule of its default's type. `check_separation` checks colours.
_TYPE_OVERRIDES = {
    "palette": Rule("a list of colours", lambda v: isinstance(v, (list, tuple))),
    "snapshot_points": Rule(
        "a list of integers",
        lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v)),
    ),
    "snapshot_agent": Rule(
        "'all' or an agent index", lambda v: v == SNAPSHOT_ALL or is_int(v)
    ),
}
FIELD_TYPES: dict[str, Rule] = {
    name: _TYPE_OVERRIDES.get(name) or TYPE_RULES[type(default)]
    for name, default in ExperimentParams._field_defaults.items()
}


def _range_rules(params: ExperimentParams) -> Iterator[tuple[str, Rule]]:
    """Each field and the range its value must be in, in the order `validate`
    checks them once every type holds. A bound taken from another field is
    read only after that field has passed."""
    yield "population_size", within(2, MAX_POPULATION)
    if params.random_palette:
        yield "palette_size", AT_LEAST_ONE
    else:
        yield "palette", NON_EMPTY
    scene_max = params.palette_size if params.random_palette else len(params.palette)
    yield "objects_per_scene", within(1, scene_max)
    yield "num_interactions", AT_LEAST_ZERO
    # Scores are stored rounded, and one that rounds to 0 is pruned.
    yield "initial_score", Rule(
        "in (0, 1] and not round to 0", lambda v: 0.0 < v <= 1.0 and _rounded(v) > 0.0
    )
    yield "noise_std", FINITE
    yield "min_separation", FINITE
    yield "inc", FINITE
    yield "inh", FINITE
    yield "dec", FINITE
    yield "shift_rate", Rule("in [0, 1]", lambda v: 0 <= v <= 1, float)
    # The success window is a deque, whose length is a C ssize_t.
    yield "window", AT_LEAST_ONE
    yield "window", Rule(f"<= {sys.maxsize}", lambda v: v <= sys.maxsize)
    yield "series_interval", AT_LEAST_ONE
    yield "snapshot_points", Rule("integers >= 1", lambda v: all(p >= 1 for p in v))
    yield "snapshot_agent", Rule(
        f"'all' or an index in [0, {params.population_size - 1}]",
        lambda v: v == SNAPSHOT_ALL or 0 <= v < params.population_size,
    )


class Agent:
    """One population member: a private ontology and a private lexicon."""

    def __init__(self, agent_id: int) -> None:
        self.agent_id = agent_id
        self.ontology = Ontology()
        self.inventory = ConstructionInventory()


class InteractionRecord(NamedTuple):
    """Outcome row for one game; the input to every monitor. A named tuple:
    it is built once per game and never changed."""

    interaction_number: int
    speaker_id: int
    hearer_id: int
    scene_object_ids: tuple[str, ...]
    topic_id: str
    utterance: str | None
    pointed_id: str | None
    success: bool
    failure_reason: str


class RunResult(NamedTuple):
    """Everything a single experiment run produces."""

    records: list[InteractionRecord]
    population: list[Agent]
    series: list[monitors.SeriesPoint]
    snapshots: list[monitors.LexiconSnapshot]


def make_population(size: int) -> list[Agent]:
    return [Agent(agent_id=i) for i in range(size)]


def run_interaction(
    population: list[Agent],
    world: World,
    bodies: tuple[Backend, Backend],
    params: ExperimentParams,
    rng: random.Random,
    interaction_number: int,
) -> InteractionRecord:
    """Play one full game and return its record.

    All anomalies are encoded in the record's failure_reason; the only
    exceptions that escape are genuine bugs.
    """
    # (speaker, hearer), uniform over ordered pairs.
    speaker, hearer = draw_sample(rng, population, 2)
    scene = sample_scene(world, rng)
    speaker_body, hearer_body = bodies
    embody(speaker_body, speaker.agent_id)
    embody(hearer_body, hearer.agent_id)

    speaker_model = observe_world(speaker_body, world, scene, rng)
    hearer_model = observe_world(hearer_body, world, scene, rng)

    topic_id = rng.choice(scene)

    category_id = _categorise(speaker.ontology, topic_id, speaker_model)
    if category_id is None:
        # Even a fresh category cannot separate the topic from an exact
        # twin observation; abort with no learning updates.
        return _new_tuple(InteractionRecord, (
            interaction_number, speaker.agent_id, hearer.agent_id, scene,
            topic_id, None, None, False, FAILURE_DEGENERATE,
        ))

    construction = speaker.inventory.produce(category_id)
    if construction is None:
        form = invent_word_form(rng, speaker.inventory.by_form)
        construction = speaker.inventory.add_construction(
            form, category_id, params.initial_score
        )

    heard = hear(hearer_body, speak(speaker_body, construction.form))

    pointed_id: str | None = None
    heard_construction = hearer.inventory.comprehend(heard)
    if heard_construction is None:
        failure_reason = FAILURE_UNKNOWN_WORD
    else:
        hypothesis_id = hearer.ontology.interpret(
            heard_construction.category_id, hearer_model
        )
        if hypothesis_id is not None:
            pointed_id = point(hearer_body, hypothesis_id)
        failure_reason = (
            FAILURE_NONE if pointed_id == topic_id else FAILURE_WRONG_REFERENT
        )

    success = pointed_id == topic_id
    if success:
        nod(speaker_body)
        hearer_referent_id = pointed_id
    else:
        hearer_referent_id = point(speaker_body, topic_id)

    align(speaker, SPEAKER, success, params, construction, topic_id, speaker_model)
    align(
        hearer, HEARER, success, params,
        heard_construction, hearer_referent_id, hearer_model, heard,
    )
    return _new_tuple(InteractionRecord, (
        interaction_number, speaker.agent_id, hearer.agent_id, scene,
        topic_id, construction.form, pointed_id, success, failure_reason,
    ))


def _categorise(
    ontology: Ontology, object_id: str, model: dict[str, RGB]
) -> int | None:
    """Conceptualise `object_id`; if no category discriminates it, invent one
    at its observed colour and try once more. None means an exact twin."""
    category_id = ontology.conceptualise(object_id, model)
    if category_id is None:
        ontology.invent_category(model[object_id])
        category_id = ontology.conceptualise(object_id, model)
    return category_id


def align(
    agent: Agent,
    role: str,
    success: bool,
    params: ExperimentParams,
    used: Construction | None,
    referent_id: str,
    model: dict[str, RGB],
    heard: str | None = None,
) -> None:
    """Post-game learning for one agent of a game that was not degenerate.

    `used` is the construction the agent spoke or understood, if any, and
    `referent_id` the object the game was about, whose colour is read from
    the agent's own world `model`. Success rewards `used`, inhibits its
    competitors for `role`, and shifts its category towards the referent.
    Failure punishes `used`. Without one, which only a hearer that did not
    know the word reaches, the agent adopts the form it `heard` for the
    category `_categorise` finds for the referent; an exact twin adopts none.
    """
    if success:
        agent.inventory.reward_and_inhibit(used, role, params.inc, params.inh)
        agent.ontology.shift_prototype(
            used.category_id, model[referent_id], params.shift_rate
        )
    elif used is not None:
        agent.inventory.punish(used, params.dec)
    else:
        category_id = _categorise(agent.ontology, referent_id, model)
        if category_id is not None:
            agent.inventory.add_construction(
                heard, category_id, params.initial_score
            )


def start_run(params: ExperimentParams, seed: int) -> tuple[random.Random, World]:
    """A run's generator at `seed` and the world drawn from it: a random
    palette, if the run has one, is the stream's first draw. `run_command`
    calls it too, to refuse a palette that cannot be placed before a batch
    writes a file."""
    rng = random.Random(seed)
    palette = (
        random_palette(rng, params.palette_size, params.min_separation)
        if params.random_palette
        else params.palette
    )
    return rng, make_world(palette, params.objects_per_scene, params.min_separation)


def run_experiment(params: ExperimentParams, seed: int) -> RunResult:
    """Run one seeded experiment: build the world and population, play the
    configured number of games, and collect series points and snapshots."""
    # A run's score memo starts empty, whatever ran before it in the process.
    _ROUNDED.clear()
    params.validate()
    rng, world = start_run(params, seed)
    population = make_population(params.population_size)
    bodies = (
        make_body(params.backend_kind, "body-a", noise_std=params.noise_std),
        make_body(params.backend_kind, "body-b", noise_std=params.noise_std),
    )

    snapshot_targets = (
        population
        if params.snapshot_agent == SNAPSHOT_ALL
        else [population[params.snapshot_agent]]
    )
    snapshot_points = set(params.snapshot_points)

    records: list[InteractionRecord] = []
    monitor = monitors.PopulationMonitor(population, params.window)
    series: list[monitors.SeriesPoint] = []
    snapshots: list[monitors.LexiconSnapshot] = []
    for n in range(1, params.num_interactions + 1):
        record = run_interaction(population, world, bodies, params, rng, n)
        records.append(record)
        monitor.observe(record)
        if n % params.series_interval == 0:
            series.append(monitors.compute_series_point(monitor, n))
        if n in snapshot_points:
            for agent in snapshot_targets:
                snapshots.append(monitors.take_snapshot(agent, n))
    return RunResult(
        records=records, population=population, series=series, snapshots=snapshots
    )
