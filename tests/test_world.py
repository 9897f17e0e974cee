import math
import pickle
import random
import statistics
from collections import Counter

import pytest

from colourgame.errors import ConfigurationError
from colourgame.world import (
    DEFAULT_PALETTE,
    Colour,
    Scene,
    World,
    WorldObject,
    make_world,
    perceive,
    random_palette,
    sample_scene,
)

from helpers import oracle_perceive


def test_colour_rejects_out_of_range_channels():
    with pytest.raises(ValueError):
        Colour(-1, 0, 0)
    with pytest.raises(ValueError):
        Colour(0, 256, 0)


def test_colour_clipped_clamps_into_range():
    c = Colour.clipped(-40, 300, 128)
    assert (c.r, c.g, c.b) == (0.0, 255.0, 128.0)
    # Same value and type as min(255.0, max(0.0, v)), -0.0 and NaN included.
    for v in (-0.0, 0.0, 0, 255, 255.0, 1e-300, -1e-300, 254.5, 255.5,
              math.nan, math.inf, -math.inf):
        assert repr(Colour.clipped(v, v, v).r) == repr(min(255.0, max(0.0, v)))


def test_colour_distance_matches_hand_computation():
    # sqrt((5-7)^2 + (243-246)^2 + (2-9)^2) = sqrt(62)
    assert Colour(7, 246, 9).distance(Colour(5, 243, 2)) == pytest.approx(
        math.sqrt(62)
    )


def test_default_palette_is_six_well_separated_colours():
    assert len(DEFAULT_PALETTE) == 6
    separations = [
        a.distance(b)
        for i, a in enumerate(DEFAULT_PALETTE)
        for b in DEFAULT_PALETTE[i + 1 :]
    ]
    assert min(separations) >= 100.0


def test_make_world_assigns_ids_in_palette_order():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    assert len(world.objects) == 6
    assert [o.object_id for o in world.objects] == [f"obj-{i}" for i in range(6)]
    assert all(
        o.true_colour == c for o, c in zip(world.objects, DEFAULT_PALETTE)
    )
    assert world.objects_per_scene == 3


def test_make_world_single_colour_world_is_valid():
    world = make_world([Colour(10, 20, 30)], objects_per_scene=1)
    assert len(world.objects) == 1


def test_make_world_rejects_identical_colours():
    palette = [Colour(10, 10, 10), Colour(200, 0, 0), Colour(10, 10, 10)]
    with pytest.raises(ConfigurationError) as err:
        make_world(palette, objects_per_scene=1)
    # error names the offending pair
    assert "0" in str(err.value) and "2" in str(err.value)


def test_make_world_rejects_bad_scene_size():
    with pytest.raises(ConfigurationError):
        make_world(DEFAULT_PALETTE, objects_per_scene=0)
    with pytest.raises(ConfigurationError):
        make_world(DEFAULT_PALETTE, objects_per_scene=7)
    with pytest.raises(ConfigurationError):
        make_world([], objects_per_scene=1)


def test_world_rejects_duplicate_ids():
    objects = (
        WorldObject("obj-0", Colour(0, 0, 0)),
        WorldObject("obj-0", Colour(255, 255, 255)),
    )
    with pytest.raises(ConfigurationError):
        World(objects=objects, objects_per_scene=1)


def test_sample_scene_single_object_forced():
    world = make_world([Colour(1, 2, 3)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    assert scene.object_ids == ("obj-0",)


def test_sample_scene_replay_is_deterministic():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    first = [sample_scene(world, random.Random(42)) for _ in range(1)]
    scenes_a = [sample_scene(world, rng) for rng in [random.Random(42)]]
    rng_a, rng_b = random.Random(7), random.Random(7)
    for _ in range(50):
        assert sample_scene(world, rng_a) == sample_scene(world, rng_b)
    assert first == scenes_a


def test_sample_scene_object_frequency():
    # hypergeometric expectation: each object appears with frequency 3/6
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    rng = random.Random(123)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        counts.update(sample_scene(world, rng).object_ids)
    for object_id in (o.object_id for o in world.objects):
        assert abs(counts[object_id] / draws - 0.5) <= 0.02


def test_sample_scene_uniform_over_subsets():
    # chi-square over the 20 possible 3-subsets, df=19, alpha=0.001 -> 43.82
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    rng = random.Random(99)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        counts[frozenset(sample_scene(world, rng).object_ids)] += 1
    assert len(counts) == 20
    expected = draws / 20
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 43.82


def test_perceive_zero_noise_is_exact():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    scene = sample_scene(world, random.Random(1))
    model = perceive(world, scene, noise_std=0.0, rng=random.Random(2))
    for percept in model.percepts:
        assert percept.observed_colour == world.object_by_id(
            percept.object_id
        ).true_colour


def test_perceive_clips_channels_at_the_boundaries():
    world = make_world([Colour(0, 0, 0)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    rng = random.Random(5)
    floored = 0
    for _ in range(200):
        observed = perceive(world, scene, noise_std=200.0, rng=rng).percepts[0]
        c = observed.observed_colour
        assert 0.0 <= c.r <= 255.0 and 0.0 <= c.g <= 255.0 and 0.0 <= c.b <= 255.0
        floored += c.r == 0.0
    assert floored > 0  # large negative draws pinned at exactly 0


def test_perceive_noise_standard_deviation():
    world = make_world([Colour(128, 128, 128)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    rng = random.Random(77)
    samples = [
        perceive(world, scene, noise_std=3.0, rng=rng).percepts[0].observed_colour.r
        for _ in range(10_000)
    ]
    assert 2.9 <= statistics.stdev(samples) <= 3.1
    assert abs(statistics.fmean(samples) - 128.0) < 0.2


def test_perceive_same_seed_same_model_fresh_noise_differs():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    scene = sample_scene(world, random.Random(3))
    a = perceive(world, scene, 3.0, random.Random(11))
    b = perceive(world, scene, 3.0, random.Random(11))
    assert a == b
    rng = random.Random(11)
    first = perceive(world, scene, 3.0, rng)
    second = perceive(world, scene, 3.0, rng)
    assert first != second


def test_perceive_rejects_negative_noise():
    world = make_world([Colour(0, 0, 0)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    # NaN noise would read every channel as 0, inf would saturate them.
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            perceive(world, scene, noise_std=bad, rng=random.Random(0))


@pytest.mark.parametrize("noise_std", [0.0, 3.0, 200.0])
def test_perceive_matches_the_min_max_clamp_oracle(noise_std):
    # Boundary channels make both clamps fire at any noise > 0; noise 200
    # pushes interior channels past both ends as well.
    pick = random.Random(31)

    def channel():
        return pick.choice((0, 255, 0.0, 255.0, pick.uniform(0, 255)))

    seen = Counter()
    for trial in range(40):
        palette = [
            Colour(channel(), channel(), channel())
            for _ in range(pick.randint(1, 6))
        ]
        world = make_world(palette, len(palette), min_separation=0.0)
        scene = sample_scene(world, random.Random(trial))
        model = perceive(world, scene, noise_std, random.Random(1000 + trial))
        expected = oracle_perceive(
            world, scene, noise_std, random.Random(1000 + trial)
        )
        assert [
            (p.object_id, [repr(v) for v in p.observed_colour])
            for p in model.percepts
        ] == [(oid, [repr(v) for v in channels]) for oid, channels in expected]
        for percept in model.percepts:
            colour = percept.observed_colour
            assert type(colour) is Colour
            seen.update("low" if v == 0 else "high" if v == 255 else "inside"
                        for v in colour)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copied = pickle.loads(pickle.dumps(colour, protocol))
                assert type(copied) is Colour
                assert copied == colour and hash(copied) == hash(colour)
                assert (copied.r, copied.g, copied.b) == tuple(colour)
    assert seen["low"] and seen["high"] and seen["inside"]


@pytest.mark.parametrize("noise_std", [0.0, 3.0, 200.0])
def test_perceive_draws_exactly_what_gauss_draws(noise_std):
    # One generator across many calls, as in a run. A scene of k objects
    # draws 3k noises, so an odd k leaves the second value of a Box-Muller
    # pair in rng.gauss_next for the next call, across the sample and choice
    # draws in between; a bare gauss call can leave one before a call, too.
    world = make_world(DEFAULT_PALETTE, 1)

    def next_scene(r):
        scene = Scene(object_ids=tuple(r.sample(world.object_ids, r.randint(1, 6))))
        if r.random() < 0.1:
            r.gauss()
        return scene

    rng, oracle_rng = random.Random(77), random.Random(77)
    carried = 0
    for _ in range(300):
        scene = next_scene(rng)
        assert next_scene(oracle_rng) == scene
        carried += rng.gauss_next is not None
        model = perceive(world, scene, noise_std, rng)
        expected = oracle_perceive(world, scene, noise_std, oracle_rng)
        assert [
            (p.object_id, [repr(v) for v in p.observed_colour])
            for p in model.percepts
        ] == [(oid, [repr(v) for v in channels]) for oid, channels in expected]
        assert rng.getstate() == oracle_rng.getstate()
        assert rng.choice(world.object_ids) == oracle_rng.choice(world.object_ids)
    assert 50 < carried < 250


def test_world_model_lookup():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    scene = sample_scene(world, random.Random(4))
    model = perceive(world, scene, 0.0, random.Random(0))
    present = scene.object_ids[0]
    assert model.percept_for(present).object_id == present
    with pytest.raises(KeyError):
        model.percept_for("obj-nope")


def test_random_palette_respects_separation():
    rng = random.Random(8)
    palette = random_palette(rng, size=6, min_separation=100.0)
    assert len(palette) == 6
    for i, a in enumerate(palette):
        for b in palette[i + 1 :]:
            assert a.distance(b) >= 100.0


def test_random_palette_determinism_and_impossible_request():
    assert random_palette(random.Random(5), 4, 120.0) == random_palette(
        random.Random(5), 4, 120.0
    )
    with pytest.raises(ConfigurationError):
        random_palette(random.Random(5), 50, 200.0, max_tries=500)
