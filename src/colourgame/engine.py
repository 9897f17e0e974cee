"""Population management and the pairwise interaction script.

One game runs through a fixed script: two randomly drawn agents are embodied,
both observe the scene through their own sensors, the speaker picks a topic
and conceptualises it (inventing a category if needed), produces a word
(inventing one if needed), and utters it; the hearer comprehends, interprets,
and points at its hypothesis; the speaker nods on success or points at the
true topic on failure; finally both agents align their lexicons and
prototypes. Nothing is shared between agents except the scene, the utterance
and the pointing gestures.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import monitors
from .conceptual import Ontology, SemanticNetwork
from .embodiment import (
    EmbodimentHandle,
    UtteranceChannel,
    embody,
    hear,
    make_body,
    nod,
    observe_world,
    point,
    speak,
)
from .errors import ConfigurationError, InternalConsistencyError
from .lexicon import (
    HEARER,
    SPEAKER,
    Construction,
    ConstructionInventory,
    invent_word_form,
)
from .world import (
    DEFAULT_MIN_SEPARATION,
    DEFAULT_PALETTE,
    Colour,
    Percept,
    World,
    WorldModel,
    make_world,
    random_palette,
    sample_scene,
)

FAILURE_NONE = "none"
FAILURE_UNKNOWN_WORD = "unknown_word"
FAILURE_WRONG_REFERENT = "wrong_referent"
FAILURE_DEGENERATE = "degenerate"

SNAPSHOT_ALL = "all"


@dataclass
class ExperimentParams:
    """Everything that determines a run, apart from the seed."""

    population_size: int = 5
    palette: tuple[Colour, ...] = DEFAULT_PALETTE
    objects_per_scene: int = 3
    num_interactions: int = 1000
    noise_std: float = 3.0
    min_separation: float = DEFAULT_MIN_SEPARATION
    use_random_palette: bool = False
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
        """Reject out-of-range values before any game is played."""
        if self.population_size < 2:
            raise ConfigurationError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        palette_len = (
            self.palette_size if self.use_random_palette else len(self.palette)
        )
        if not 1 <= self.objects_per_scene <= palette_len:
            raise ConfigurationError(
                f"objects_per_scene={self.objects_per_scene} outside "
                f"[1, {palette_len}]"
            )
        if self.num_interactions < 0:
            raise ConfigurationError("num_interactions must be >= 0")
        if not 0.0 < self.initial_score <= 1.0:
            raise ConfigurationError(
                f"initial_score must be in (0, 1], got {self.initial_score}"
            )
        # NaN compares False with everything, so `< 0` alone would pass it.
        for name in ("noise_std", "min_separation", "inc", "inh", "dec"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        if not 0.0 <= self.shift_rate <= 1.0:
            raise ConfigurationError(
                f"shift_rate must be in [0, 1], got {self.shift_rate}"
            )
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if self.series_interval < 1:
            raise ConfigurationError("series_interval must be >= 1")
        if any(p < 1 for p in self.snapshot_points):
            raise ConfigurationError("snapshot points must be >= 1")
        if self.snapshot_agent != SNAPSHOT_ALL:
            if not isinstance(self.snapshot_agent, int) or not (
                0 <= self.snapshot_agent < self.population_size
            ):
                raise ConfigurationError(
                    f"snapshot_agent must be 'all' or an index in "
                    f"[0, {self.population_size - 1}], got {self.snapshot_agent!r}"
                )


class Agent:
    """One population member: private ontology, private lexicon, and the
    transient state of the game currently being played."""

    def __init__(self, agent_id: int) -> None:
        self.agent_id = agent_id
        self.ontology = Ontology()
        self.inventory = ConstructionInventory()
        self.body: EmbodimentHandle | None = None
        self.world_model: WorldModel | None = None
        self.topic: Percept | None = None
        self.network: SemanticNetwork | None = None
        self.utterance: str | None = None
        self.used_construction: Construction | None = None
        self.hypothesis: Percept | None = None
        self.feedback_pointed_id: str | None = None

    def clear_game_state(self) -> None:
        self.body = None
        self.world_model = None
        self.topic = None
        self.network = None
        self.utterance = None
        self.used_construction = None
        self.hypothesis = None
        self.feedback_pointed_id = None

    def __repr__(self) -> str:
        return (
            f"Agent({self.agent_id}, categories={len(self.ontology)}, "
            f"constructions={len(self.inventory)})"
        )


@dataclass(frozen=True)
class InteractionRecord:
    """Outcome row for one game; the input to every monitor."""

    interaction_number: int
    speaker_id: int
    hearer_id: int
    scene_object_ids: tuple[str, ...]
    topic_id: str
    utterance: str | None
    pointed_id: str | None
    success: bool
    failure_reason: str


@dataclass
class RunResult:
    """Everything a single experiment run produces."""

    records: list[InteractionRecord]
    population: list[Agent]
    series: list[monitors.SeriesPoint]
    snapshots: list[monitors.LexiconSnapshot] = field(default_factory=list)


def make_population(size: int) -> list[Agent]:
    return [Agent(agent_id=i) for i in range(size)]


def select_pair(
    population: list[Agent], rng: random.Random
) -> tuple[Agent, Agent]:
    """Draw a (speaker, hearer) pair uniformly over ordered pairs."""
    if len(population) < 2:
        raise ConfigurationError(
            f"need at least 2 agents to play, got {len(population)}"
        )
    speaker, hearer = rng.sample(population, 2)
    return speaker, hearer


def choose_topic(model: WorldModel, rng: random.Random) -> Percept:
    """Pick the object the speaker will talk about, uniformly."""
    if not model.percepts:
        raise InternalConsistencyError("cannot choose a topic in an empty model")
    return rng.choice(model.percepts)


def run_interaction(
    population: list[Agent],
    world: World,
    bodies: tuple[EmbodimentHandle, EmbodimentHandle],
    params: ExperimentParams,
    rng: random.Random,
    interaction_number: int,
) -> InteractionRecord:
    """Play one full game and return its record.

    All anomalies are encoded in the record's failure_reason; the only
    exceptions that escape are genuine bugs.
    """
    speaker, hearer = select_pair(population, rng)
    scene = sample_scene(world, rng)
    try:
        body_a, body_b = bodies
        embody(body_a, speaker.agent_id)
        speaker.body = body_a
        embody(body_b, hearer.agent_id)
        hearer.body = body_b

        speaker.world_model = observe_world(speaker.body, world, scene, rng)
        hearer.world_model = observe_world(hearer.body, world, scene, rng)

        speaker.topic = choose_topic(speaker.world_model, rng)

        network = speaker.ontology.conceptualise(speaker.topic, speaker.world_model)
        if network is None:
            # No discriminating category: invent one anchored at the observed
            # value, then try once more.
            speaker.ontology.invent_category(speaker.topic.observed_colour)
            network = speaker.ontology.conceptualise(
                speaker.topic, speaker.world_model
            )
        if network is None:
            # Even a fresh category cannot separate the topic from an exact
            # twin percept; abort with no learning updates.
            return InteractionRecord(
                interaction_number=interaction_number,
                speaker_id=speaker.agent_id,
                hearer_id=hearer.agent_id,
                scene_object_ids=scene.object_ids,
                topic_id=speaker.topic.object_id,
                utterance=None,
                pointed_id=None,
                success=False,
                failure_reason=FAILURE_DEGENERATE,
            )
        speaker.network = network

        construction = speaker.inventory.produce(network.category_id)
        if construction is None:
            form = invent_word_form(rng, speaker.inventory.forms())
            construction = speaker.inventory.add_construction(
                form, network.category_id, params.initial_score
            )
        speaker.used_construction = construction
        speaker.utterance = construction.form

        channel = UtteranceChannel()
        speak(speaker.body, channel, speaker.utterance)
        heard = hear(hearer.body, channel)
        hearer.utterance = heard

        pointed_id: str | None = None
        failure_reason = FAILURE_NONE
        heard_construction = hearer.inventory.comprehend(heard)
        if heard_construction is None:
            failure_reason = FAILURE_UNKNOWN_WORD
        else:
            hearer.used_construction = heard_construction
            hearer.network = SemanticNetwork(heard_construction.category_id)
            hearer.hypothesis = hearer.ontology.interpret(
                hearer.network, hearer.world_model
            )
            if hearer.hypothesis is not None:
                pointed_id = point(hearer.body, hearer.hypothesis.object_id)
            if pointed_id != speaker.topic.object_id:
                failure_reason = FAILURE_WRONG_REFERENT

        success = pointed_id is not None and pointed_id == speaker.topic.object_id
        if success:
            nod(speaker.body)
        else:
            hearer.feedback_pointed_id = point(speaker.body, speaker.topic.object_id)

        record = InteractionRecord(
            interaction_number=interaction_number,
            speaker_id=speaker.agent_id,
            hearer_id=hearer.agent_id,
            scene_object_ids=scene.object_ids,
            topic_id=speaker.topic.object_id,
            utterance=speaker.utterance,
            pointed_id=pointed_id,
            success=success,
            failure_reason=failure_reason,
        )
        align(speaker, SPEAKER, record, params)
        align(hearer, HEARER, record, params)
        return record
    finally:
        speaker.clear_game_state()
        hearer.clear_game_state()


def align(
    agent: Agent, role: str, record: InteractionRecord, params: ExperimentParams
) -> None:
    """Post-game learning updates for one agent.

    Success rewards the used construction, inhibits its competitors, and
    shifts the used category's prototype towards the value this agent
    observed for the referent. Failure punishes the used construction if
    there was one; a hearer that did not know the word instead adopts it for
    whatever category discriminates the object the speaker pointed at.
    Degenerate games update nothing.
    """
    if record.failure_reason == FAILURE_DEGENERATE:
        return
    if record.success:
        used = agent.used_construction
        if used is None:
            raise InternalConsistencyError(
                "successful game without a used construction"
            )
        agent.inventory.reward_and_inhibit(used, role, params.inc, params.inh)
        referent = agent.topic if role == SPEAKER else agent.hypothesis
        if referent is None:
            raise InternalConsistencyError("successful game without a referent")
        agent.ontology.shift_prototype(
            used.category_id, referent.observed_colour, params.shift_rate
        )
        return
    if agent.used_construction is not None:
        agent.inventory.punish(agent.used_construction, params.dec)
    if role == HEARER and record.failure_reason == FAILURE_UNKNOWN_WORD:
        _adopt_unknown_word(agent, params)


def _adopt_unknown_word(hearer: Agent, params: ExperimentParams) -> None:
    """Store the heard form for the category that discriminates the pointed
    object in the hearer's own world model, inventing the category if none
    fits."""
    if (
        hearer.feedback_pointed_id is None
        or hearer.world_model is None
        or hearer.utterance is None
    ):
        raise InternalConsistencyError("adoption without feedback pointing")
    percept = hearer.world_model.percept_for(hearer.feedback_pointed_id)
    network = hearer.ontology.conceptualise(percept, hearer.world_model)
    if network is None:
        hearer.ontology.invent_category(percept.observed_colour)
        network = hearer.ontology.conceptualise(percept, hearer.world_model)
    if network is None:
        # Exact twin percept: nothing can discriminate it, adopt nothing.
        return
    hearer.inventory.add_construction(
        hearer.utterance, network.category_id, params.initial_score
    )


def run_experiment(params: ExperimentParams, seed: int) -> RunResult:
    """Run one seeded experiment: build the world and population, play the
    configured number of games, and collect series points and snapshots."""
    params.validate()
    rng = random.Random(seed)
    palette = (
        random_palette(rng, params.palette_size, params.min_separation)
        if params.use_random_palette
        else params.palette
    )
    world = make_world(palette, params.objects_per_scene, params.min_separation)
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
    monitor = monitors.PopulationMonitor(population)
    series: list[monitors.SeriesPoint] = []
    snapshots: list[monitors.LexiconSnapshot] = []
    for n in range(1, params.num_interactions + 1):
        record = run_interaction(population, world, bodies, params, rng, n)
        records.append(record)
        monitor.observe(record)
        if n % params.series_interval == 0:
            series.append(
                monitors.compute_series_point(monitor, records, n, params.window)
            )
        if n in snapshot_points:
            for agent in snapshot_targets:
                snapshots.append(monitors.take_snapshot(agent, n))
    return RunResult(
        records=records, population=population, series=series, snapshots=snapshots
    )
