import math
import random

import pytest

from colourgame.conceptual import Ontology
from colourgame.errors import InternalConsistencyError
from colourgame.world import DEFAULT_PALETTE, RGB, Colour, make_world, perceive

from helpers import (
    oracle_conceptualise,
    oracle_interpret,
    random_int_colour,
)


def ontology_with(*prototypes: RGB) -> Ontology:
    ontology = Ontology()
    for prototype in prototypes:
        ontology.invent_category(prototype)
    return ontology


def model_of(**colours: RGB) -> dict[str, RGB]:
    return dict(colours)


def test_closest_category_hand_computed_distance():
    ontology = ontology_with(Colour(7, 246, 9), Colour(200, 10, 10))
    topic = Colour(5, 243, 2)
    assert ontology.conceptualise("topic", model_of(topic=topic)) == 1
    # The topic lies sqrt(62) (~7.874) from category 1's prototype, so an
    # object at that distance from it keeps the category from
    # discriminating, and one farther away does not.
    assert ontology.conceptualise(
        "topic", model_of(topic=topic, tied=Colour(9, 249, 16))
    ) is None
    assert ontology.conceptualise(
        "topic", model_of(topic=topic, farther=Colour(9, 249, 17))
    ) == 1


def test_closest_category_empty_ontology():
    assert Ontology().conceptualise("topic", model_of(topic=Colour(0, 0, 0))) is None


def test_closest_category_exact_prototype_match():
    ontology = ontology_with(Colour(50, 60, 70))
    topic = Colour(50, 60, 70)
    category_id = ontology.conceptualise("topic", model_of(topic=topic))
    assert ontology.get(category_id) == Colour(50, 60, 70)
    # At distance 0.0, any object off the prototype is strictly farther.
    assert ontology.conceptualise(
        "topic", model_of(topic=topic, near=Colour(50, 60, 70.001))
    ) == category_id


def test_closest_category_tie_goes_to_smallest_id():
    ontology = ontology_with(Colour(90, 0, 0), Colour(110, 0, 0))
    assert ontology.conceptualise("topic", model_of(topic=Colour(100, 0, 0))) == 1


GREEN, RED, BLUE = Colour(5, 243, 2), Colour(250, 5, 5), Colour(10, 10, 240)


def test_conceptualise_returns_discriminating_network():
    ontology = ontology_with(Colour(7, 246, 9))
    model = model_of(green=GREEN, red=RED, blue=BLUE)
    prototype = ontology.prototypes[0]
    # distance table: the green object is far closer than the other two
    assert math.dist(prototype, GREEN) == pytest.approx(math.sqrt(62))
    assert math.dist(prototype, RED) == pytest.approx(math.sqrt(117146))
    assert math.dist(prototype, BLUE) == pytest.approx(math.sqrt(109066))
    category_id = ontology.conceptualise("green", model)
    assert category_id == 1


def test_conceptualise_fails_when_topic_is_not_closest():
    ontology = ontology_with(Colour(7, 246, 9))
    model = model_of(green=GREEN, red=RED, blue=BLUE)
    assert ontology.conceptualise("red", model) is None


def test_conceptualise_empty_ontology():
    model = model_of(green=GREEN)
    assert Ontology().conceptualise("green", model) is None


def test_conceptualise_requires_topic_in_model():
    ontology = ontology_with(Colour(7, 246, 9))
    model = model_of(green=GREEN)
    with pytest.raises(InternalConsistencyError):
        ontology.conceptualise("other", model)


def test_invent_category_anchors_prototype_at_observation():
    ontology = Ontology()
    first = ontology.invent_category(Colour(7, 246, 9))
    second = ontology.invent_category(Colour(5, 243, 2))
    assert ontology.get(first) == Colour(7, 246, 9)
    assert ontology.get(second) == Colour(5, 243, 2)
    assert (first, second) == (1, 2)
    assert ontology.prototypes == [Colour(7, 246, 9), Colour(5, 243, 2)]


def test_invention_postcondition_enables_conceptualisation():
    rng = random.Random(1234)
    for _ in range(200):
        ontology = Ontology()
        for _ in range(rng.randint(0, 5)):
            ontology.invent_category(random_int_colour(rng))
        percepts = {}
        while len(percepts) < 3:
            colour = random_int_colour(rng)
            percepts[tuple(colour)] = colour  # unique observed values
        model = model_of(
            **{f"o{i}": c for i, c in enumerate(percepts.values())}
        )
        topic_id = "o0"
        ontology.invent_category(model[topic_id])
        category_id = ontology.conceptualise(topic_id, model)
        assert category_id is not None
        assert ontology.interpret(category_id, model) == topic_id


def test_interpret_picks_closest_percept():
    ontology = ontology_with(Colour(5, 243, 2))
    model = model_of(
        green=Colour(4, 240, 6), red=Colour(251, 8, 2), blue=Colour(12, 9, 238)
    )
    assert ontology.interpret(1, model) == "green"


def test_interpret_single_object_model():
    ontology = ontology_with(Colour(0, 0, 0))
    model = model_of(only=Colour(255, 255, 255))
    assert ontology.interpret(1, model) == "only"


def test_interpret_exact_tie_yields_nothing():
    ontology = ontology_with(Colour(100, 0, 0))
    model = model_of(left=Colour(90, 0, 0), right=Colour(110, 0, 0))
    assert ontology.interpret(1, model) is None


def test_interpret_unknown_category_is_an_error():
    ontology = ontology_with(Colour(0, 0, 0))
    with pytest.raises(InternalConsistencyError):
        ontology.interpret(99, model_of(a=GREEN))


def test_get_finds_a_category_by_its_position():
    ontology = ontology_with(Colour(0, 0, 0))
    nine = Colour(9, 9, 9)
    assert ontology.invent_category(nine) == 2
    assert ontology.get(2) is nine
    assert ontology.get(1) is ontology.prototypes[0]
    # Ids outside 1..n are unknown, however a list index would read them.
    for unknown in (0, -1, -2, 3):
        with pytest.raises(InternalConsistencyError):
            ontology.get(unknown)


def test_shift_prototype_linear_interpolation():
    ontology = ontology_with(Colour(10, 0, 0))
    shifted = ontology.shift_prototype(1, Colour(20, 0, 0), rate=0.1)
    assert shifted == Colour(11, 0, 0)
    assert ontology.get(1) == Colour(11, 0, 0)
    assert ontology.prototypes == [Colour(11, 0, 0)]


def test_prototypes_invented_at_percepts_and_shifted_are_exact_tuples():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    model = perceive(world, world.object_ids[:3], 3.0, random.Random(2))
    ontology = Ontology()
    category_id = ontology.invent_category(model["obj-0"])
    assert type(ontology.get(category_id)) is tuple
    shifted = ontology.shift_prototype(category_id, model["obj-1"], 0.5)
    assert type(shifted) is tuple
    assert ontology.get(category_id) is shifted
    # A prototype invented at an int colour moves to a float tuple.
    category_id = ontology.invent_category(Colour(1, 2, 3))
    shifted = ontology.shift_prototype(category_id, Colour(3, 2, 1), 0.5)
    assert type(shifted) is tuple and shifted == (2.0, 2.0, 2.0)


def test_shift_prototype_rate_extremes():
    ontology = ontology_with(Colour(10, 20, 30))
    assert ontology.shift_prototype(1, Colour(200, 0, 0), rate=0.0) == Colour(
        10, 20, 30
    )
    assert ontology.shift_prototype(1, Colour(200, 0, 0), rate=1.0) == Colour(
        200, 0, 0
    )


def test_shift_prototype_validation():
    ontology = ontology_with(Colour(0, 0, 0))
    with pytest.raises(ValueError):
        ontology.shift_prototype(1, Colour(1, 1, 1), rate=1.5)
    with pytest.raises(InternalConsistencyError):
        ontology.shift_prototype(42, Colour(1, 1, 1), rate=0.5)


def test_shift_prototype_betweenness_property():
    rng = random.Random(555)
    for _ in range(500):
        start, target = random_int_colour(rng), random_int_colour(rng)
        rate = rng.random()
        ontology = ontology_with(start)
        shifted = ontology.shift_prototype(1, target, rate)
        for lo_hi, value in zip(zip(start, target), shifted):
            assert min(lo_hi) - 1e-9 <= value <= max(lo_hi) + 1e-9


def _random_instance(rng: random.Random, max_size: int = 10):
    ontology = Ontology()
    for _ in range(rng.randint(0, max_size)):
        ontology.invent_category(random_int_colour(rng))
    n_objects = rng.randint(1, max_size)
    model = {f"o{i}": random_int_colour(rng) for i in range(n_objects)}
    return ontology, model


def test_discrimination_soundness_over_random_models():
    # whenever conceptualisation finds a category, interpreting it retrieves
    # exactly the topic again
    rng = random.Random(2024)
    found = 0
    for _ in range(2000):
        ontology, model = _random_instance(rng, max_size=8)
        topic_id = rng.choice(tuple(model))
        category_id = ontology.conceptualise(topic_id, model)
        if category_id is None:
            continue
        found += 1
        assert ontology.interpret(category_id, model) == topic_id
    assert found > 100


def test_oracle_equivalence_on_random_instances():
    rng = random.Random(31337)
    for _ in range(2000):
        ontology, model = _random_instance(rng)
        # Alone in its model, an observation gets its closest category.
        alone = {"probe": random_int_colour(rng)}
        assert ontology.conceptualise("probe", alone) == oracle_conceptualise(
            ontology.prototypes, "probe", alone
        )

        topic_id = rng.choice(tuple(model))
        found_id = ontology.conceptualise(topic_id, model)
        expected_category = oracle_conceptualise(
            ontology.prototypes, topic_id, model
        )
        assert found_id == expected_category

        if ontology.prototypes:
            category_id = rng.randint(1, len(ontology.prototypes))
            result = ontology.interpret(category_id, model)
            expected_object = oracle_interpret(
                ontology.prototypes, category_id, model
            )
            assert result == expected_object
