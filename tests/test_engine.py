import math
import random
import re
import sys
from collections import Counter

import pytest

from colourgame.engine import (
    FAILURE_DEGENERATE,
    FAILURE_NONE,
    FAILURE_UNKNOWN_WORD,
    MAX_POPULATION,
    Agent,
    ExperimentParams,
    InteractionRecord,
    align,
    make_population,
    run_experiment,
    run_interaction,
)
from colourgame.embodiment import make_body
from colourgame.errors import ConfigurationError, quoted
from colourgame.lexicon import HEARER, SPEAKER
from colourgame.monitors import SeriesPoint
from colourgame.world import (
    DEFAULT_PALETTE,
    Colour,
    check_separation,
    draw_sample,
    make_world,
    random_palette,
    sample_scene,
)

from helpers import (
    constructions_of,
    fields_of,
    oracle_perceive,
    register_recording_backend,
    split_into_games,
)

GAME_SHAPE = re.compile(
    r"^embody,embody,observe_world,observe_world,speak,hear,(point,)?(nod|point)$"
)


def simulated_bodies(noise_std: float):
    return (
        make_body("simulated", "body-a", noise_std=noise_std),
        make_body("simulated", "body-b", noise_std=noise_std),
    )


# A game draws its (speaker, hearer) pair as draw_sample(rng, population, 2);
# its topic is rng.choice(scene), whose uniformity is the library's.
def test_pair_draw_uniform_over_ordered_pairs():
    population = make_population(5)
    rng = random.Random(6)
    counts = Counter()
    draws = 100_000
    for _ in range(draws):
        speaker, hearer = draw_sample(rng, population, 2)
        counts[(speaker.agent_id, hearer.agent_id)] += 1
    assert len(counts) == 20
    for pair_count in counts.values():
        assert abs(pair_count / draws - 1 / 20) <= 0.01


def test_pair_draw_two_agents_alternate_roles():
    population = make_population(2)
    rng = random.Random(3)
    draws = 20_000
    first_speaks = sum(
        draw_sample(rng, population, 2)[0].agent_id == 0 for _ in range(draws)
    )
    assert abs(first_speaks / draws - 0.5) <= 0.02


def test_pair_draw_requires_two_agents():
    with pytest.raises(ConfigurationError):
        ExperimentParams(population_size=1).validate()
    with pytest.raises(ValueError):
        draw_sample(random.Random(0), make_population(1), 2)


def test_topic_is_what_a_choice_over_the_speakers_observations_draws():
    # Every output depends on the order the generator is consumed in: after
    # the pair, the scene and both agents' observations, a game's topic must
    # be the object rng.choice picks from the speaker's observations, one per
    # object, with every earlier draw made by the library's own methods.
    params = ExperimentParams()
    bodies = simulated_bodies(params.noise_std)
    population = make_population(params.population_size)
    worlds = [make_world(DEFAULT_PALETTE, k) for k in range(1, 7)]
    rng, oracle_rng = random.Random(2718), random.Random()
    for n, world in enumerate(worlds * 50):
        oracle_rng.setstate(rng.getstate())
        record = run_interaction(population, world, bodies, params, rng, n)
        speaker, hearer = oracle_rng.sample(population, 2)
        k, noise = world.objects_per_scene, params.noise_std
        scene = tuple(oracle_rng.sample(world.object_ids, k))
        observations = oracle_perceive(world, scene, noise, oracle_rng)
        oracle_perceive(world, scene, noise, oracle_rng)
        assert (record.speaker_id, record.hearer_id) == (
            speaker.agent_id, hearer.agent_id
        )
        assert record.scene_object_ids == scene
        assert record.topic_id == oracle_rng.choice(observations)[0]


def test_pair_draw_draws_what_a_sample_of_two_draws():
    # sample keeps a list pool up to 21 agents and a set of the indices drawn
    # above that; both must pick the same pair and leave the same state.
    for size in (2, 5, 21, 22, 50, 200):
        population = make_population(size)
        rng, old_rng = random.Random(size), random.Random(size)
        for _ in range(200):
            assert draw_sample(rng, population, 2) == old_rng.sample(
                population, 2
            )
            assert rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize(
    "palette",
    [DEFAULT_PALETTE, random_palette(random.Random(12), 12)],
    ids=["default", "random12"],
)
def test_sample_scene_draws_what_a_sample_of_the_ids_draws(palette):
    # Every scene of 1-6 objects from 6 or 12 ids, each draw in sample's pool.
    for k in range(1, 7):
        world = make_world(palette, k)
        rng, old_rng = random.Random(31 * k), random.Random(31 * k)
        for _ in range(200):
            assert list(sample_scene(world, rng)) == old_rng.sample(
                world.object_ids, k
            )
            assert rng.getstate() == old_rng.getstate()


def test_first_game_invention_and_adoption():
    params = ExperimentParams(
        population_size=2, inc=0.1, inh=0.1, dec=0.1, num_interactions=1
    )
    world = make_world(params.palette, params.objects_per_scene)
    population = make_population(2)
    rng = random.Random(7)
    record = run_interaction(
        population, world, simulated_bodies(params.noise_std), params, rng, 1
    )

    assert record.success is False
    assert record.failure_reason == FAILURE_UNKNOWN_WORD
    assert record.pointed_id is None
    assert record.utterance is not None

    speaker = population[record.speaker_id]
    hearer = population[record.hearer_id]
    # speaker invented a category and a word; the word was punished once
    assert len(speaker.ontology) == 1
    [spoken] = constructions_of(speaker.inventory)
    assert spoken.form == record.utterance
    assert spoken.score == pytest.approx(params.initial_score - params.dec)
    # hearer adopted the word for a freshly invented category at 0.5
    assert len(hearer.ontology) == 1
    [adopted] = constructions_of(hearer.inventory)
    assert adopted.form == record.utterance
    assert adopted.score == pytest.approx(params.initial_score)
    # the adopted prototype reflects the hearer's own noisy percept
    true_topic = world.true_colours[record.topic_id]
    assert math.dist(hearer.ontology.prototypes[0], true_topic) < 25.0


def test_align_success_rewards_inhibits_and_shifts():
    params = ExperimentParams(inc=0.1, inh=0.1, dec=0.1, shift_rate=0.05)
    agent = Agent(0)
    category_id = agent.ontology.invent_category(Colour(10, 0, 0))
    used = agent.inventory.add_construction("fusemo", category_id, 0.5)
    rival = agent.inventory.add_construction("ponuro", category_id, 0.4)
    model = {"obj-0": Colour(20, 0, 0), "obj-1": Colour(200, 0, 0)}

    align(agent, SPEAKER, True, params, used, "obj-0", model)

    assert used.score == pytest.approx(0.6)
    assert rival.score == pytest.approx(0.3)
    assert agent.ontology.get(category_id) == Colour(10.5, 0, 0)


def test_align_hearer_success_shifts_towards_pointed_percept():
    params = ExperimentParams(inc=0.1, inh=0.1, dec=0.1, shift_rate=0.5)
    agent = Agent(1)
    category_id = agent.ontology.invent_category(Colour(0, 100, 0))
    used = agent.inventory.add_construction("fusemo", category_id, 0.5)
    model = {"obj-1": Colour(0, 0, 200), "obj-0": Colour(0, 200, 0)}

    align(agent, HEARER, True, params, used, "obj-0", model)

    assert used.score == pytest.approx(0.6)
    assert agent.ontology.get(category_id) == Colour(0, 150, 0)


def test_align_failure_punishes_to_removal():
    params = ExperimentParams(inc=0.1, inh=0.1, dec=0.1)
    agent = Agent(1)
    category_id = agent.ontology.invent_category(Colour(0, 0, 0))
    used = agent.inventory.add_construction("fusemo", category_id, 0.1)
    model = {"obj-0": Colour(0, 0, 0), "obj-2": Colour(200, 0, 0)}

    # The speaker pointed at obj-0 after the hearer pointed at obj-2.
    align(agent, HEARER, False, params, used, "obj-0", model, "fusemo")

    assert len(agent.inventory) == 0


def test_align_unknown_word_adoption_reuses_or_invents():
    params = ExperimentParams(inc=0.1, inh=0.1, dec=0.1)
    agent = Agent(1)
    model = {"obj-0": Colour(5, 243, 2), "obj-1": Colour(250, 5, 5)}
    pointed = "obj-0"

    align(agent, HEARER, False, params, None, pointed, model, "fusemo")

    assert len(agent.ontology) == 1
    assert agent.ontology.prototypes == [Colour(5, 243, 2)]
    [adopted] = constructions_of(agent.inventory)
    assert adopted.form == "fusemo" and adopted.score == 0.5

    # hearing another unknown word for the same object reuses the category
    align(agent, HEARER, False, params, None, pointed, model, "sobele")
    assert len(agent.ontology) == 1
    assert {c.form for c in constructions_of(agent.inventory)} == {"fusemo", "sobele"}


def test_align_degenerate_game_updates_nothing():
    # As in test_degenerate_abort_on_identical_percepts, but the speaker
    # already holds a scored construction that a learning update would move.
    params = ExperimentParams(
        population_size=2,
        palette=(Colour(1, 1, 1), Colour(1, 1, 1)),
        objects_per_scene=2,
        noise_std=0.0,
        min_separation=0.0,
    )
    world = make_world(params.palette, 2, min_separation=0.0)
    population = make_population(2)
    for agent in population:
        category_id = agent.ontology.invent_category(Colour(1, 1, 1))
        agent.inventory.add_construction("fusemo", category_id, 0.5)
    before = [list(map(fields_of, constructions_of(a.inventory))) for a in population]
    rng = random.Random(0)
    record = run_interaction(
        population, world, simulated_bodies(0.0), params, rng, 1
    )
    assert record.failure_reason == FAILURE_DEGENERATE
    speaker = population[record.speaker_id]
    [used] = constructions_of(speaker.inventory)
    assert used.score == 0.5 and len(speaker.inventory) == 1
    assert [
        list(map(fields_of, constructions_of(a.inventory))) for a in population
    ] == before


def test_record_consistency_over_many_games():
    params = ExperimentParams(num_interactions=300)
    result = run_experiment(params, seed=11)
    reasons = set()
    for record in result.records:
        reasons.add(record.failure_reason)
        assert record.success == (record.pointed_id == record.topic_id)
        if record.success:
            assert record.failure_reason == FAILURE_NONE
            assert record.utterance is not None
        if record.failure_reason == FAILURE_UNKNOWN_WORD:
            assert record.pointed_id is None
        assert set(record.scene_object_ids) >= {record.topic_id}
    assert FAILURE_NONE in reasons and FAILURE_UNKNOWN_WORD in reasons


def test_records_and_series_points_are_whole_instances_of_their_class():
    # The engine and the monitor build both without calling the class, so
    # nothing else checks their type and arity. At noise 200 with every
    # object in every scene, some games abort as degenerate.
    params = ExperimentParams(
        num_interactions=300, noise_std=200.0, objects_per_scene=6
    )
    result = run_experiment(params, seed=0)
    reasons = {record.failure_reason for record in result.records}
    assert FAILURE_DEGENERATE in reasons and FAILURE_NONE in reasons
    for cls, items in (
        (InteractionRecord, result.records),
        (SeriesPoint, result.series),
    ):
        assert len(items) == params.num_interactions
        for item in items:
            assert type(item) is cls
            assert len(item) == len(cls._fields)
            assert cls(*item) == item


def test_games_only_mutate_the_two_participants():
    params = ExperimentParams()
    world = make_world(params.palette, params.objects_per_scene)
    population = make_population(5)
    bodies = simulated_bodies(params.noise_std)
    rng = random.Random(13)
    for n in range(1, 60):
        before = {
            a.agent_id: (
                list(a.ontology.prototypes),
                list(map(fields_of, constructions_of(a.inventory))),
            )
            for a in population
        }
        record = run_interaction(population, world, bodies, params, rng, n)
        for agent in population:
            if agent.agent_id in (record.speaker_id, record.hearer_id):
                continue
            assert before[agent.agent_id] == (
                agent.ontology.prototypes,
                list(map(fields_of, constructions_of(agent.inventory))),
            )


def test_degenerate_abort_on_identical_percepts():
    # two objects with the same colour, no noise: nothing can discriminate
    params = ExperimentParams(
        population_size=2,
        palette=(Colour(10, 10, 10), Colour(10, 10, 10)),
        objects_per_scene=2,
        noise_std=0.0,
        min_separation=0.0,
    )
    world = make_world(params.palette, 2, min_separation=0.0)
    population = make_population(2)
    rng = random.Random(0)
    record = run_interaction(
        population, world, simulated_bodies(0.0), params, rng, 1
    )
    assert record.failure_reason == FAILURE_DEGENERATE
    assert record.success is False
    assert record.utterance is None and record.pointed_id is None
    for agent in population:
        assert len(agent.inventory) == 0  # no constructions, no score changes


def test_run_experiment_zero_interactions():
    params = ExperimentParams(num_interactions=0)
    result = run_experiment(params, seed=0)
    assert result.records == [] and result.series == [] and result.snapshots == []
    assert all(len(a.ontology) == 0 for a in result.population)


def test_run_experiment_replay_is_deterministic():
    params = ExperimentParams(num_interactions=200)
    first = run_experiment(params, seed=5)
    second = run_experiment(params, seed=5)
    assert first.records == second.records
    assert first.series == second.series
    different = run_experiment(params, seed=6)
    assert first.records != different.records


def test_every_prototype_of_a_run_is_an_exact_tuple():
    # Categories are invented at percepts and moved by shift_prototype, so a
    # run's prototypes take CPython's exact-tuple paths in math.dist and
    # unpacking; a tuple subclass such as Colour would miss them.
    result = run_experiment(ExperimentParams(num_interactions=300), seed=2)
    prototypes = [
        prototype
        for agent in result.population
        for prototype in agent.ontology.prototypes
    ]
    assert len(prototypes) >= 6 * len(result.population)
    assert all(type(prototype) is tuple for prototype in prototypes)


def test_run_experiment_converges_with_defaults():
    result = run_experiment(ExperimentParams(num_interactions=1000), seed=1)
    assert result.series[-1].success_window_avg >= 0.9
    assert result.series[-1].mean_ontology_size == pytest.approx(6.0)


def test_converged_population_stays_stable():
    # after convergence further games succeed without inventing anything new
    result = run_experiment(ExperimentParams(num_interactions=1200), seed=1)
    by_n = {p.interaction: p for p in result.series}
    assert by_n[1200].mean_ontology_size == by_n[1000].mean_ontology_size
    assert by_n[1200].distinct_forms_population <= by_n[1000].distinct_forms_population
    tail = [r.success for r in result.records if r.interaction_number > 1000]
    assert sum(tail) / len(tail) >= 0.9


def test_run_experiment_snapshot_selection():
    params = ExperimentParams(
        num_interactions=30, snapshot_points=(10, 20), snapshot_agent=2
    )
    result = run_experiment(params, seed=2)
    assert [s.interaction_number for s in result.snapshots] == [10, 20]
    assert all(s.agent_id == 2 for s in result.snapshots)

    params_all = ExperimentParams(num_interactions=30, snapshot_points=(10,))
    result_all = run_experiment(params_all, seed=2)
    assert sorted(s.agent_id for s in result_all.snapshots) == [0, 1, 2, 3, 4]


def test_params_validation_rejects_out_of_range_values():
    bad = [
        ExperimentParams(population_size=1),
        ExperimentParams(objects_per_scene=0),
        ExperimentParams(objects_per_scene=7),
        ExperimentParams(num_interactions=-1),
        ExperimentParams(noise_std=-0.1),
        ExperimentParams(initial_score=0.0),
        # Positive, but stored rounded to 12 decimals as 0.0.
        ExperimentParams(initial_score=1e-13),
        ExperimentParams(inc=-0.1),
        ExperimentParams(shift_rate=1.5),
        ExperimentParams(window=0),
        ExperimentParams(series_interval=0),
        ExperimentParams(snapshot_points=(0,)),
        ExperimentParams(snapshot_agent=9),
        ExperimentParams(snapshot_agent=-1),
        # True == 1, and would snapshot agent 1 if accepted.
        ExperimentParams(snapshot_agent=True),
        ExperimentParams(snapshot_agent=False),
        ExperimentParams(
            palette=(Colour(0, 0, 0), Colour(10, 0, 0)), objects_per_scene=2
        ),
        # Every int field refuses a bool, which would play as 1 or 0; more
        # below, each with the config reader's message.
        ExperimentParams(population_size=True),
        ExperimentParams(num_interactions=False),
        ExperimentParams(snapshot_points=(10, False)),
    ]
    for params in bad:
        with pytest.raises(ConfigurationError):
            params.validate()
    for params, message in (
        (
            ExperimentParams(objects_per_scene=True),
            "objects_per_scene must be an integer, got True",
        ),
        (
            ExperimentParams(num_interactions=True),
            "num_interactions must be an integer, got True",
        ),
        (ExperimentParams(window=True), "window must be an integer, got True"),
        (
            ExperimentParams(series_interval=True),
            "series_interval must be an integer, got True",
        ),
        (
            ExperimentParams(
                random_palette=True, palette_size=True, objects_per_scene=1
            ),
            "palette_size must be an integer, got True",
        ),
        (
            ExperimentParams(snapshot_points=(True,)),
            "snapshot_points must be a list of integers, got (True,)",
        ),
        # An int field refuses a float: each of these would round, or raise
        # a bare TypeError once play starts.
        (
            ExperimentParams(population_size=2.5),
            "population_size must be an integer, got 2.5",
        ),
        (
            ExperimentParams(objects_per_scene=2.5),
            "objects_per_scene must be an integer, got 2.5",
        ),
        (
            ExperimentParams(num_interactions=10.5),
            "num_interactions must be an integer, got 10.5",
        ),
        (ExperimentParams(window=50.5), "window must be an integer, got 50.5"),
        (
            ExperimentParams(series_interval=1.5),
            "series_interval must be an integer, got 1.5",
        ),
        (
            ExperimentParams(random_palette=True, palette_size=2.5),
            "palette_size must be an integer, got 2.5",
        ),
        (
            ExperimentParams(snapshot_points=(10, 2.5)),
            "snapshot_points must be a list of integers, got (10, 2.5)",
        ),
        # Once its type holds, a value out of its range gets the range's
        # words in the same shape.
        (
            ExperimentParams(population_size=1),
            f"population_size must be in [2, {MAX_POPULATION}], got 1",
        ),
        (
            ExperimentParams(objects_per_scene=7),
            "objects_per_scene must be in [1, 6], got 7",
        ),
        (
            ExperimentParams(random_palette=True, palette_size=0),
            "palette_size must be >= 1, got 0",
        ),
        (
            ExperimentParams(snapshot_points=(10, 0)),
            "snapshot_points must be integers >= 1, got (10, 0)",
        ),
        # A float field refuses a bool, which would play as 1.0 or 0.0.
        (ExperimentParams(noise_std=True), "noise_std must be a number, got True"),
        (ExperimentParams(inc=True), "inc must be a number, got True"),
        (
            ExperimentParams(initial_score=True),
            "initial_score must be a number, got True",
        ),
        (
            ExperimentParams(shift_rate=False),
            "shift_rate must be a number, got False",
        ),
    ):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            params.validate()


def test_each_door_refuses_a_value_with_the_words_of_validate():
    # A caller may build a world, a palette or a body without validate; each
    # door refuses a bad value of its field exactly as validate does, naming
    # the field, a bool or a string for a number included.
    negative_or_not_finite = (-1, math.nan, math.inf, 10**400)
    not_a_number = (True, "3")
    cases = (
        ("objects_per_scene", (0, 7, 2.5, True), {},
         lambda v: make_world(DEFAULT_PALETTE, v)),
        ("palette", ((),), {"objects_per_scene": 1},
         lambda v: make_world(v, 1)),
        ("palette_size", (0, 2.5, True), {"random_palette": True},
         lambda v: random_palette(random.Random(0), v)),
        ("min_separation", negative_or_not_finite + not_a_number, {},
         lambda v: check_separation(DEFAULT_PALETTE, v)),
        ("min_separation", negative_or_not_finite + not_a_number,
         {"random_palette": True},
         lambda v: random_palette(random.Random(0), 3, v)),
        ("noise_std", negative_or_not_finite + not_a_number, {},
         lambda v: make_body("simulated", "body-a", noise_std=v)),
    )
    for field, values, context, door in cases:
        for value in values:
            with pytest.raises(ConfigurationError) as by_validate:
                ExperimentParams(**context, **{field: value}).validate()
            with pytest.raises(ConfigurationError) as by_door:
                door(value)
            assert str(by_door.value) == str(by_validate.value), (field, value)
            assert str(by_door.value).startswith(f"{field} must be "), value


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="no int-to-str digit limit on this CPython",
)
@pytest.mark.parametrize("field", ["population_size", "objects_per_scene"])
def test_validate_quotes_an_int_too_long_for_a_decimal_repr(field):
    # Past the interpreter's int-to-str digit limit, repr() itself raises
    # ValueError; the error still reads, telling the int by its bit count.
    huge = 10**5000
    with pytest.raises(ConfigurationError, match=r"<int of 16610 bits>"):
        ExperimentParams(**{field: huge}).validate()
    assert quoted((huge, 1)) == "(<int of 16610 bits>, 1)"
    assert quoted(-huge) == "-<int of 16610 bits>"


@pytest.mark.parametrize(
    "bad",
    [
        (300.0, 0.0, 0.0),
        (math.nan, 0.0, 0.0),
        (-5.0, 0.0, 0.0),
        (255.0, 0.0),
        (True, 0, 0),
    ],
    ids=["300", "nan", "-5", "two-channels", "bool"],
)
def test_validate_and_make_world_refuse_a_plain_tuple_colour_out_of_range(bad):
    # Plain tuples, built by no checking constructor, far enough apart to
    # pass the separation check.
    palette = (bad, (0.0, 255.0, 0.0), (0.0, 0.0, 255.0))
    with pytest.raises(ConfigurationError, match=r"palette colour 0 ") as err:
        ExperimentParams(palette=palette).validate()
    assert repr(bad) in str(err.value)
    with pytest.raises(ConfigurationError, match=r"palette colour 0 "):
        make_world(palette, objects_per_scene=3)


def test_capability_trace_follows_the_script_order():
    trace: list = []
    register_recording_backend(trace)
    params = ExperimentParams(num_interactions=50, backend_kind="recording")
    run_experiment(params, seed=4)
    games = split_into_games(trace)
    assert len(games) == 50
    for game in games:
        assert GAME_SHAPE.match(",".join(game))
