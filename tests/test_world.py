import copy
import math
import pickle
import random
import statistics
import sys
from collections import Counter

import pytest

from colourgame.errors import ConfigurationError
from colourgame.world import (
    DEFAULT_PALETTE,
    Colour,
    clipped,
    draw_index,
    draw_sample,
    make_world,
    perceive,
    random_palette,
    sample_scene,
)

from helpers import oracle_perceive


def test_colour_rejects_out_of_range_channels():
    for channels in ((-1, 0, 0), (0, 256, 0), (0, 0, math.nan), (True, 0, 0)):
        with pytest.raises(ValueError):
            Colour(*channels)
    assert type(Colour(1, 2, 3)) is tuple
    assert Colour(0.5, 254.5, 7) == (0.5, 254.5, 7)


def test_colour_clipped_clamps_into_range():
    assert clipped(-40, 300, 128) == (0.0, 255.0, 128.0)
    assert type(clipped(-40, 300, 128)) is tuple
    # Same value and type as min(255.0, max(0.0, v)), -0.0 and NaN included.
    for v in (-0.0, 0.0, 0, 255, 255.0, 1e-300, -1e-300, 254.5, 255.5,
              math.nan, math.inf, -math.inf):
        assert repr(clipped(v, v, v)[0]) == repr(min(255.0, max(0.0, v)))


def test_default_palette_is_six_well_separated_colours():
    assert len(DEFAULT_PALETTE) == 6
    separations = [
        math.dist(a, b)
        for i, a in enumerate(DEFAULT_PALETTE)
        for b in DEFAULT_PALETTE[i + 1 :]
    ]
    assert min(separations) >= 100.0


def test_make_world_assigns_ids_in_palette_order():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    assert len(world.true_colours) == 6
    assert list(world.true_colours) == [f"obj-{i}" for i in range(6)]
    assert world.object_ids == tuple(f"obj-{i}" for i in range(6))
    assert all(
        t == c for t, c in zip(world.true_colours.values(), DEFAULT_PALETTE)
    )
    assert world.objects_per_scene == 3


def test_make_world_stores_each_true_colour_as_an_exact_tuple():
    # perceive unpacks a true colour per scene object; an exact tuple takes
    # the interpreter's fast path, a tuple subclass does not.
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    assert all(type(colour) is tuple for colour in world.true_colours.values())
    assert tuple(world.true_colours.values()) == DEFAULT_PALETTE


def test_palette_colour_survives_pickle_and_copy_as_an_exact_tuple():
    # A --parallel batch pickles ExperimentParams.palette.
    for colour in (*DEFAULT_PALETTE, Colour(0.5, 254.5, 7)):
        copies = [copy.copy(colour), copy.deepcopy(colour)] + [
            pickle.loads(pickle.dumps(colour, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for copied in copies:
            assert type(copied) is tuple
            assert list(map(repr, copied)) == list(map(repr, colour))


def test_make_world_single_colour_world_is_valid():
    world = make_world([Colour(10, 20, 30)], objects_per_scene=1)
    assert len(world.true_colours) == 1


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
    # A float would fail late in sample_scene, and a bool play as 1.
    for not_an_int in (2.5, True):
        with pytest.raises(ConfigurationError) as err:
            make_world(DEFAULT_PALETTE, objects_per_scene=not_an_int)
        assert str(err.value) == (
            f"objects_per_scene must be an integer, got {not_an_int!r}"
        )
    # An int past the int-to-str digit limit is quoted cut short.
    with pytest.raises(ConfigurationError) as err:
        make_world(DEFAULT_PALETTE, objects_per_scene=10**5000)
    assert len(str(err.value)) < 100


@pytest.mark.parametrize(
    ("field", "value"),
    [("objects_per_scene", 9), ("true_colours", {}), ("object_ids", ())],
    ids=["objects_per_scene", "true_colours", "object_ids"],
)
def test_world_fields_cannot_be_rebound(field, value):
    # A rebound scene size would skip the range check made at construction,
    # and sample_scene would fail with a bare ValueError.
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    before = getattr(world, field)
    with pytest.raises(AttributeError):
        setattr(world, field, value)
    with pytest.raises(AttributeError):
        delattr(world, field)
    assert getattr(world, field) is before
    assert world.objects_per_scene == 3
    assert world.object_ids == tuple(world.true_colours)
    assert len(sample_scene(world, random.Random(0))) == 3


def test_sample_scene_single_object_forced():
    world = make_world([Colour(1, 2, 3)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    assert scene == ("obj-0",)


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
        counts.update(sample_scene(world, rng))
    for object_id in world.true_colours:
        assert abs(counts[object_id] / draws - 0.5) <= 0.02


def test_sample_scene_uniform_over_subsets():
    # chi-square over the 20 possible 3-subsets, df=19, alpha=0.001 -> 43.82
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    rng = random.Random(99)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        counts[frozenset(sample_scene(world, rng))] += 1
    assert len(counts) == 20
    expected = draws / 20
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 43.82


def test_perceive_zero_noise_is_exact():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    scene = sample_scene(world, random.Random(1))
    model = perceive(world, scene, noise_std=0.0, rng=random.Random(2))
    assert list(model) == list(scene)
    for object_id, observed in model.items():
        assert observed == world.true_colours[object_id]


def test_perceive_clips_channels_at_the_boundaries():
    world = make_world([Colour(0, 0, 0)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    rng = random.Random(5)
    floored = 0
    for _ in range(200):
        r, g, b = perceive(world, scene, noise_std=200.0, rng=rng)["obj-0"]
        assert 0.0 <= r <= 255.0 and 0.0 <= g <= 255.0 and 0.0 <= b <= 255.0
        floored += r == 0.0
    assert floored > 0  # large negative draws pinned at exactly 0


def test_perceive_noise_standard_deviation():
    world = make_world([Colour(128, 128, 128)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    rng = random.Random(77)
    samples = [
        perceive(world, scene, noise_std=3.0, rng=rng)["obj-0"][0]
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


def test_perceive_rejects_an_int_past_the_float_range():
    world = make_world([Colour(0, 0, 0)], objects_per_scene=1)
    scene = sample_scene(world, random.Random(0))
    rng = random.Random(0)
    state = rng.getstate()
    for bad in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="finite and >= 0") as err:
            perceive(world, scene, noise_std=bad, rng=rng)
        assert len(str(err.value)) < 120
    # Refused before any draw; the largest int that is a float still plays.
    assert rng.getstate() == state
    (colour,) = perceive(world, scene, int(sys.float_info.max), rng).values()
    assert all(0.0 <= channel <= 255.0 for channel in colour)


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
            (object_id, [repr(v) for v in observed])
            for object_id, observed in model.items()
        ] == [(oid, [repr(v) for v in channels]) for oid, channels in expected]
        for colour in model.values():
            assert type(colour) is tuple
            seen.update("low" if v == 0 else "high" if v == 255 else "inside"
                        for v in colour)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copied = pickle.loads(pickle.dumps(colour, protocol))
                assert type(copied) is tuple
                assert copied == colour and hash(copied) == hash(colour)
                assert list(map(repr, copied)) == list(map(repr, colour))
    assert seen["low"] and seen["high"] and seen["inside"]


@pytest.mark.parametrize("noise_std", [0.0, 3.0, 200.0])
def test_perceive_draws_exactly_what_gauss_draws(noise_std):
    # One generator across many calls, as in a run. A scene of k objects
    # draws 3k noises, so an odd k leaves the second value of a Box-Muller
    # pair in rng.gauss_next for the next call, across the sample and choice
    # draws in between; a bare gauss call can leave one before a call, too.
    world = make_world(DEFAULT_PALETTE, 1)

    def next_scene(r):
        scene = tuple(r.sample(world.object_ids, r.randint(1, 6)))
        if r.random() < 0.1:
            r.gauss(0.0, 1.0)  # 3.10 has no default mu and sigma
        return scene

    rng, oracle_rng = random.Random(77), random.Random(77)
    carried = 0
    for _ in range(300):
        scene = next_scene(rng)
        assert next_scene(oracle_rng) == scene
        carried += rng.gauss_next is not None
        model = perceive(world, scene, noise_std, rng)
        expected = oracle_perceive(world, scene, noise_std, oracle_rng)
        assert list(model) == list(scene)
        assert [
            (object_id, [repr(v) for v in observed])
            for object_id, observed in model.items()
        ] == [(oid, [repr(v) for v in channels]) for oid, channels in expected]
        assert rng.getstate() == oracle_rng.getstate()
        assert rng.choice(world.object_ids) == oracle_rng.choice(world.object_ids)
    assert 50 < carried < 250


@pytest.mark.parametrize("noise_std", [0, 3, 200.0])
@pytest.mark.parametrize("pending", [False, True], ids=["no-spare", "spare"])
@pytest.mark.parametrize("size", range(7))
def test_perceive_draws_what_gauss_draws_at_every_scene_size(
    size, pending, noise_std
):
    # Every scene size the default palette allows, empty included, entered
    # with and without a Gaussian spare pending: an object with no spare
    # draws two Box-Muller pairs and keeps one value, an object with one
    # spends it. The int 0 is the noise as the zero_noise golden config
    # spells it.
    world = make_world(DEFAULT_PALETTE, 1)
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        if pending:
            assert rng.gauss(0.0, 1.0) == oracle_rng.gauss(0.0, 1.0)
        spare = rng.gauss_next
        assert (spare is not None) == pending
        scene = tuple(random.Random(-seed).sample(world.object_ids, size))
        model = perceive(world, scene, noise_std, rng)
        expected = oracle_perceive(world, scene, noise_std, oracle_rng)
        assert [
            (object_id, [repr(v) for v in observed])
            for object_id, observed in model.items()
        ] == [(oid, [repr(v) for v in channels]) for oid, channels in expected]
        assert rng.getstate() == oracle_rng.getstate()
        if not scene:
            assert model == {}
            assert rng.gauss_next is spare
        # Three draws an object: the parity of the scene size flips the spare.
        assert (rng.gauss_next is not None) == (pending != (size % 2 == 1))


def test_draw_sample_and_draw_index_draw_what_sample_and_choice_draw():
    # Twin generators: one draws through the helpers, its oracle through
    # rng.sample and rng.choice; both must return the same values and be in
    # the same state after every call. sample keeps a list pool for n <= 21,
    # and for n <= 21 + 4 ** ceil(log(3k, 4)) once k > 5, else a set of the
    # indices drawn: n 1-60 with k 0-8 reach the pool, the enlarged pool
    # (n 22-60 at k 6-8) and the set; n 100 and 1000 reach the set at every
    # k. Perception and stray gauss calls in between move the Gaussian spare
    # that getstate includes, as in a run.
    world = make_world(DEFAULT_PALETTE, 1)
    rng, oracle_rng = random.Random(1234), random.Random(1234)
    interleave = random.Random(5)
    for n in (*range(1, 61), 100, 1000):
        population = [f"x{i}" for i in range(n)]
        for k in range(min(n, 8) + 1):
            for _ in range(12):
                drawn = draw_sample(rng, population, k)
                assert drawn == oracle_rng.sample(population, k)
                assert rng.getstate() == oracle_rng.getstate()
                picked = population[draw_index(rng, n)]
                assert picked == oracle_rng.choice(population)
                assert rng.getstate() == oracle_rng.getstate()
                if interleave.random() < 0.2:
                    scene = world.object_ids[: interleave.randint(1, 6)]
                    perceive(world, scene, 5.0, rng)
                    perceive(world, scene, 5.0, oracle_rng)
                if interleave.random() < 0.1:
                    assert rng.gauss(0.0, 1.0) == oracle_rng.gauss(0.0, 1.0)
        for k in (-1, n + 1):
            with pytest.raises(ValueError):
                draw_sample(rng, population, k)
            with pytest.raises(ValueError):
                oracle_rng.sample(population, k)
            assert rng.getstate() == oracle_rng.getstate()


def test_world_model_lookup():
    world = make_world(DEFAULT_PALETTE, objects_per_scene=3)
    scene = sample_scene(world, random.Random(4))
    model = perceive(world, scene, 0.0, random.Random(0))
    present = scene[0]
    assert model[present] == world.true_colours[present]
    with pytest.raises(KeyError):
        model["obj-nope"]


def test_random_palette_respects_separation():
    rng = random.Random(8)
    palette = random_palette(rng, size=6, min_separation=100.0)
    assert len(palette) == 6
    for i, a in enumerate(palette):
        for b in palette[i + 1 :]:
            assert math.dist(a, b) >= 100.0


def test_random_palette_determinism_and_impossible_request():
    assert random_palette(random.Random(5), 4, 120.0) == random_palette(
        random.Random(5), 4, 120.0
    )
    with pytest.raises(ConfigurationError):
        random_palette(random.Random(5), 50, 200.0)


@pytest.mark.parametrize(
    "size,words",
    [(2.5, "an integer, got 2.5"), (True, "an integer, got True"), (0, ">= 1, got 0")],
)
def test_random_palette_refuses_a_size_that_is_not_a_positive_int(size, words):
    # Before any draw: a float would spend every draw before failing, and a
    # bool would place one colour.
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigurationError) as err:
        random_palette(rng, size)
    assert str(err.value) == f"palette_size must be {words}"
    assert rng.getstate() == state


@pytest.mark.parametrize("separation", [math.nan, -1, math.inf])
def test_a_separation_that_is_negative_or_not_finite_is_refused(separation):
    # A NaN or negative separation lets two identical colours through, and
    # a NaN one spent every draw of random_palette before failing.
    words = f"min_separation must be finite and >= 0, got {separation!r}"
    with pytest.raises(ConfigurationError) as err:
        make_world([(0, 0, 0), (0, 0, 0)], 2, min_separation=separation)
    assert str(err.value) == words
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigurationError) as err:
        random_palette(rng, 3, separation)
    assert str(err.value) == words
    assert rng.getstate() == state
