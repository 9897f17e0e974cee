import math
import random
import sys

import pytest

from colourgame.embodiment import (
    hear,
    make_body,
    nod,
    observe_world,
    point,
    speak,
)
from colourgame.errors import ConfigurationError, ProtocolError
from colourgame.world import DEFAULT_PALETTE, make_world, sample_scene

from helpers import RecordingBackend, register_recording_backend


@pytest.fixture
def world_and_scene():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    scene = sample_scene(world, random.Random(1))
    return world, scene


def test_make_body_simulated():
    body = make_body("simulated", "body-a", noise_std=0.0)
    assert body.kind == "simulated"
    assert body.identity == "body-a"
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            make_body("simulated", "body-a", noise_std=bad)


def test_make_body_rejects_an_int_past_the_float_range():
    # An int compares with the largest float exactly: past it, the body is
    # refused as inf is, in one short line; at it, the body is made.
    for bad in (10**400, -(10**400)):
        with pytest.raises(ConfigurationError, match="finite and >= 0") as err:
            make_body("simulated", "body-a", noise_std=bad)
        assert len(str(err.value)) < 120
    largest = int(sys.float_info.max)
    assert make_body("simulated", "body-a", noise_std=largest).noise_std == largest


def test_make_body_rejects_unsupported_kind():
    with pytest.raises(ConfigurationError) as err:
        make_body("remote-live", "body-a")
    assert "simulated" in str(err.value)


def test_two_bodies_are_usable_side_by_side(world_and_scene):
    world, scene = world_and_scene
    a = make_body("simulated", "body-a", noise_std=0.0)
    b = make_body("simulated", "body-b", noise_std=0.0)
    rng = random.Random(0)
    assert observe_world(a, world, scene, rng) == observe_world(b, world, scene, rng)


def test_speak_then_hear_round_trips_exact_strings():
    a = make_body("simulated", "a", noise_std=0.0)
    b = make_body("simulated", "b", noise_std=0.0)
    for utterance in ("fusemo", "sobele"):
        on_air = speak(a, utterance)
        assert on_air == utterance
        assert hear(b, on_air) == utterance


def test_empty_utterance_is_rejected():
    a = make_body("simulated", "a", noise_std=0.0)
    for bad in ("", None, b"fusemo"):
        with pytest.raises(ValueError):
            speak(a, bad)


def test_point_requires_object_in_current_scene(world_and_scene):
    world, scene = world_and_scene
    body = make_body("simulated", "a", noise_std=0.0)
    with pytest.raises(ProtocolError):
        point(body, scene[0])  # nothing observed yet
    observe_world(body, world, scene, random.Random(0))
    assert point(body, scene[0]) == scene[0]
    missing = next(
        object_id for object_id in world.true_colours if object_id not in scene
    )
    with pytest.raises(ProtocolError):
        point(body, missing)


def test_nod_is_idempotent_and_stubs_respond():
    body = make_body("simulated", "a", noise_std=0.0)
    assert nod(body) is True
    assert nod(body) is True


def test_observe_world_gives_private_noisy_models(world_and_scene):
    world, scene = world_and_scene
    speaker = make_body("simulated", "a", noise_std=3.0)
    hearer = make_body("simulated", "b", noise_std=3.0)
    rng = random.Random(9)
    model_a = observe_world(speaker, world, scene, rng)
    model_b = observe_world(hearer, world, scene, rng)
    assert list(model_a) == list(model_b) == list(scene)
    assert model_a != model_b  # fresh noise per observation


def test_observe_world_replay_determinism(world_and_scene):
    world, scene = world_and_scene
    def pair(seed):
        a = make_body("simulated", "a", noise_std=3.0)
        b = make_body("simulated", "b", noise_std=3.0)
        rng = random.Random(seed)
        return observe_world(a, world, scene, rng), observe_world(b, world, scene, rng)
    assert pair(21) == pair(21)


def test_custom_backend_registration_needs_no_caller_changes(world_and_scene):
    world, scene = world_and_scene
    trace: list = []
    register_recording_backend(trace)
    a = make_body("recording", "body-a", noise_std=0.0)
    b = make_body("recording", "body-b", noise_std=0.0)
    assert isinstance(a, RecordingBackend)

    rng = random.Random(0)
    observe_world(a, world, scene, rng)
    observe_world(b, world, scene, rng)
    assert hear(b, speak(a, "fusemo")) == "fusemo"
    point(b, scene[0])
    nod(a)
    assert [call for call, _ in trace] == [
        "observe_world", "observe_world", "speak", "hear", "point", "nod",
    ]
    assert [identity for _, identity in trace] == [
        "body-a", "body-b", "body-a", "body-b", "body-b", "body-a",
    ]
