"""Simulated environment: coloured objects, per-game scenes, noisy perception.

A `World` is a fixed set of distinctly coloured objects. Each game draws a
scene, the ids of some of them, and each agent perceives it through its own
noisy sensors into a private world model (`perceive`).

Invariants, each explained where it is kept:
- a colour is a plain (r, g, b) tuple with channels in [0, 255] (`RGB`),
  checked where a palette enters a world (`check_separation`) and clamped
  where perception or a prototype shift builds one (`clipped`);
- `perceive` and `draw_sample` make the generator calls of CPython's own
  `random.gauss` and `random.sample` in their order, so a fixed config and
  seed give the bytes the library methods would. Those two are mirrored
  because the library methods' Python frames cost more than their draws; a
  game's topic is drawn by `random.choice` itself.
"""
from __future__ import annotations

import math
import random
from collections.abc import Sequence
from math import ceil as _ceil, cos as _cos, log as _log, sin as _sin, sqrt as _sqrt

from .errors import (
    AT_LEAST_ONE,
    FINITE,
    FLOAT_MAX,
    NON_EMPTY,
    ConfigurationError,
    quoted,
    within,
)

RGB = tuple[float, float, float]  # every colour a game builds or reads


def Colour(r: float, g: float, b: float) -> RGB:
    """The colour (r, g, b), a plain tuple, after checking that every channel
    is a number in [0, 255]; raises ValueError for one that is not, NaN and a
    bool, which would play as 0 or 1, included."""
    for name, value in (("r", r), ("g", g), ("b", b)):
        if isinstance(value, bool) or not 0.0 <= value <= 255.0:
            raise ValueError(f"channel {name}={value!r} is not a number in [0, 255]")
    return (r, g, b)


def clipped(r: float, g: float, b: float) -> RGB:
    """The (r, g, b) tuple with each channel clamped into [0, 255].

    Each clamp returns exactly what min(255.0, max(0.0, v)) does, NaN
    (to 0.0) and -0.0 (to 0.0) included.
    """
    return (
        r if 0.0 < r < 255.0 else (255.0 if r >= 255.0 else 0.0),
        g if 0.0 < g < 255.0 else (255.0 if g >= 255.0 else 0.0),
        b if 0.0 < b < 255.0 else (255.0 if b >= 255.0 else 0.0),
    )


# Six saturated, well-separated colours (pairwise distance >= 255).
DEFAULT_PALETTE: tuple[RGB, ...] = (
    (255, 0, 0),
    (0, 255, 0),
    (0, 0, 255),
    (255, 255, 0),
    (255, 0, 255),
    (0, 255, 255),
)

DEFAULT_MIN_SEPARATION = 100.0
# Candidate colours `random_palette` draws before it gives up.
RANDOM_PALETTE_DRAWS = 10_000

# The constant `random.gauss` scales its uniform angle by.
_TWOPI = 2.0 * math.pi


class World:
    """Immutable set of objects plus the per-game scene size.

    `true_colours` maps each object id to the object's true colour; a dict
    holds each id once, so ids are unique within a world. The fields cannot
    be rebound or deleted, so the scene-size check made at construction holds
    for the world's whole life.
    """

    __slots__ = ("true_colours", "objects_per_scene", "object_ids")

    def __init__(self, true_colours: dict[str, RGB], objects_per_scene: int) -> None:
        object_ids = tuple(true_colours)
        within(1, len(object_ids)).require("objects_per_scene", objects_per_scene)
        object.__setattr__(self, "true_colours", true_colours)
        object.__setattr__(self, "objects_per_scene", objects_per_scene)
        object.__setattr__(self, "object_ids", object_ids)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def make_world(
    palette: Sequence[RGB],
    objects_per_scene: int,
    min_separation: float = DEFAULT_MIN_SEPARATION,
) -> World:
    """Build a world with one object per palette entry, ids in palette order,
    from a palette that `check_separation` accepts."""
    check_separation(palette, min_separation)
    true_colours = {f"obj-{i}": tuple(colour) for i, colour in enumerate(palette)}
    return World(true_colours=true_colours, objects_per_scene=objects_per_scene)


def check_separation(palette: Sequence[RGB], min_separation: float) -> None:
    """Reject an empty palette; a separation that is negative or NaN, which
    every pair of colours would pass, or infinite, which none could; a
    palette with a colour that is not three channels in [0, 255], as
    `Colour` checks them; or one with two colours closer than
    `min_separation`, so that scenes stay discriminable well above the
    perception noise level."""
    NON_EMPTY.require("palette", palette)
    FINITE.require("min_separation", min_separation)
    for i, colour in enumerate(palette):
        try:
            Colour(*colour)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"palette colour {i} must be three channels in [0, 255], "
                f"got {quoted(colour)}"
            ) from None
    for i, first in enumerate(palette):
        for j in range(i + 1, len(palette)):
            d = math.dist(first, palette[j])
            if d < min_separation:
                raise ConfigurationError(
                    f"palette colours {i} and {j} are {d:.2f} apart, below the "
                    f"required separation {quoted(min_separation)}"
                )


def random_palette(
    rng: random.Random,
    size: int,
    min_separation: float = DEFAULT_MIN_SEPARATION,
) -> tuple[RGB, ...]:
    """Rejection-sample `size` colours that respect `min_separation`, after
    refusing a size or a separation no draw could serve."""
    FINITE.require("min_separation", min_separation)
    AT_LEAST_ONE.require("palette_size", size)
    accepted: list[RGB] = []
    for _ in range(RANDOM_PALETTE_DRAWS):
        candidate = (rng.uniform(0, 255), rng.uniform(0, 255), rng.uniform(0, 255))
        if all(math.dist(candidate, c) >= min_separation for c in accepted):
            accepted.append(candidate)
            if len(accepted) == size:
                return tuple(accepted)
    raise ConfigurationError(
        f"could not place {quoted(size)} colours at separation "
        f"{quoted(min_separation)} within {RANDOM_PALETTE_DRAWS} draws"
    )


def sample_scene(world: World, rng: random.Random) -> tuple[str, ...]:
    """Draw the ids of `objects_per_scene` distinct objects uniformly without
    replacement."""
    return tuple(draw_sample(rng, world.object_ids, world.objects_per_scene))


def draw_sample(rng: random.Random, population: Sequence, k: int) -> list:
    """Return `rng.sample(population, k)` for a sequence, drawn without its
    Python frames.

    This is CPython's `random.sample` with `_randbelow` unrolled into its
    `getrandbits` calls: a list pool (swap the pick with the last live
    entry) when `population` is no larger than the set `sample` would
    need, else rejection against a set of the indices already drawn. The
    same bits are drawn in the same order, so the result and the
    generator's state afterwards are exactly those of `rng.sample`.
    """
    n = len(population)
    # Without it, k > n would loop forever on getrandbits(0).
    if not 0 <= k <= n:
        raise ValueError(f"sample size {k} outside [0, {n}]")
    getrandbits = rng.getrandbits
    setsize = 21  # sample's size of a small set minus that of an empty list
    if k > 5:
        setsize += 4 ** _ceil(_log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):  # m: entries still in the pool
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result
    bits = n.bit_length()
    selected = set()
    for _ in range(k):
        j = getrandbits(bits)
        # sample redraws out-of-range bits and repeats alike, one
        # getrandbits call each, so one loop makes its draws.
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(population[j])
    return result


def perceive(
    world: World, scene: tuple[str, ...], noise_std: float, rng: random.Random
) -> dict[str, RGB]:
    """Observe every scene object with i.i.d. Gaussian channel noise, clipped,
    into the world model: each scene object's id mapped to its observed
    colour, an exact tuple, in scene order.

    An object's three channel noises are drawn in the pass that builds its
    colour, by CPython's `random.gauss` unrolled (the same in 3.10 to 3.13):
    Box-Muller pairs from `rng.random()` calls, each pair's second value
    kept as a spare, read from `rng.gauss_next` on entry and written back on
    exit, an empty scene included. An object with no spare pending
    draws two pairs and keeps the last one's second value; one with a spare
    spends it and draws one pair. So a k-object scene makes the
    `rng.random()` calls of 3 * k `rng.gauss(0.0, noise_std)` calls, in
    order, and leaves the colours and the generator's state exactly theirs
    (`tests/test_world.py::test_perceive_draws_exactly_what_gauss_draws`).
    """
    if not 0.0 <= noise_std <= FLOAT_MAX:
        raise ValueError(
            f"noise_std must be finite and >= 0, got {quoted(noise_std)}"
        )
    spare = rng.gauss_next
    uniform = rng.random
    true_colours = world.true_colours
    model = {}
    for object_id in scene:
        x2pi = uniform() * _TWOPI
        g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
        if spare is None:
            zr = _cos(x2pi) * g2rad
            zg = _sin(x2pi) * g2rad
            x2pi = uniform() * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
            zb = _cos(x2pi) * g2rad
            spare = _sin(x2pi) * g2rad
        else:
            zr = spare
            zg = _cos(x2pi) * g2rad
            zb = _sin(x2pi) * g2rad
            spare = None
        r, g, b = true_colours[object_id]
        # gauss returns 0.0 + z * sigma; the channel adds z * sigma alone,
        # which differs only in the sign of a zero sum, and the clamp maps
        # both to 0.0.
        model[object_id] = clipped(
            r + zr * noise_std, g + zg * noise_std, b + zb * noise_std
        )
    rng.gauss_next = spare
    return model
