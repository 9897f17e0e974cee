"""Simulated environment: coloured objects, per-game scenes, noisy perception.

The world is a fixed set of distinctly coloured objects. Each game draws a
scene (a subset of the objects) and every participating agent perceives the
scene through its own noisy sensors, so no two agents ever record exactly the
same channel values for the same object.

A colour is checked where it enters from outside: `Colour(...)`, which builds
the config palette, the default palette and every `random_palette` draw.
Inside the engine, `perceive` and `Colour.shifted_towards` build colours
through `Colour.clipped`, whose clamps already keep every channel in range,
so the per-game path pays no second check.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import ConfigurationError


class Colour(tuple):
    """A point in a 3-channel colour space, channels in [0, 255].

    A colour is a tuple (r, g, b), so it goes to `math.dist`, `json` and
    `pickle` as it is. `Colour(r, g, b)` checks every channel; the engine's
    own colours come from `clipped`, whose channels are in range by
    construction, and skip the check.
    """

    __slots__ = ()

    def __new__(cls, r: float, g: float, b: float) -> Colour:
        for name, value in (("r", r), ("g", g), ("b", b)):
            if not 0.0 <= value <= 255.0:
                raise ValueError(f"channel {name}={value!r} outside [0, 255]")
        return tuple.__new__(cls, (r, g, b))

    def __getnewargs__(self) -> tuple[float, float, float]:
        # pickle and copy rebuild a colour as Colour(r, g, b), not from one
        # tuple argument; without this the `--parallel` path cannot pickle it.
        return tuple(self)

    r = property(itemgetter(0), doc="Red channel.")
    g = property(itemgetter(1), doc="Green channel.")
    b = property(itemgetter(2), doc="Blue channel.")

    @staticmethod
    def clipped(r: float, g: float, b: float) -> Colour:
        """Build a colour, clamping each channel into [0, 255].

        Each clamp returns exactly what min(255.0, max(0.0, v)) does, NaN
        (to 0.0) and -0.0 (to 0.0) included.
        """
        return tuple.__new__(
            Colour,
            (
                r if 0.0 < r < 255.0 else (255.0 if r >= 255.0 else 0.0),
                g if 0.0 < g < 255.0 else (255.0 if g >= 255.0 else 0.0),
                b if 0.0 < b < 255.0 else (255.0 if b >= 255.0 else 0.0),
            ),
        )

    def distance(self, other: Colour) -> float:
        """Euclidean distance to another colour."""
        return math.dist(self, other)

    def shifted_towards(self, target: Colour, rate: float) -> Colour:
        """Move each channel a fraction `rate` of the way towards `target`."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"shift rate {rate!r} outside [0, 1]")
        r, g, b = self
        tr, tg, tb = target
        return Colour.clipped(
            r + rate * (tr - r), g + rate * (tg - g), b + rate * (tb - b)
        )


# Six saturated, well-separated colours (pairwise distance >= 255).
DEFAULT_PALETTE: tuple[Colour, ...] = (
    Colour(255, 0, 0),
    Colour(0, 255, 0),
    Colour(0, 0, 255),
    Colour(255, 255, 0),
    Colour(255, 0, 255),
    Colour(0, 255, 255),
)

DEFAULT_MIN_SEPARATION = 100.0


@dataclass(frozen=True)
class WorldObject:
    """One distinctly coloured object, identified stably across a run."""

    object_id: str
    true_colour: Colour


@dataclass
class World:
    """Immutable set of objects plus the per-game scene size."""

    objects: tuple[WorldObject, ...]
    objects_per_scene: int
    object_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _by_id: dict[str, WorldObject] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = self.object_ids = tuple(o.object_id for o in self.objects)
        if len(set(ids)) != len(ids):
            raise ConfigurationError("object ids must be unique within a world")
        if not 1 <= self.objects_per_scene <= len(self.objects):
            raise ConfigurationError(
                f"objects_per_scene={self.objects_per_scene} outside "
                f"[1, {len(self.objects)}]"
            )
        self._by_id = {o.object_id: o for o in self.objects}

    def object_by_id(self, object_id: str) -> WorldObject:
        return self._by_id[object_id]


@dataclass(frozen=True)
class Scene:
    """The object ids drawn for a single game."""

    object_ids: tuple[str, ...]

    def __contains__(self, object_id: str) -> bool:
        return object_id in self.object_ids


@dataclass(frozen=True)
class Percept:
    """One agent's noisy observation of one scene object."""

    object_id: str
    observed_colour: Colour


@dataclass(frozen=True)
class WorldModel:
    """An agent-private collection of percepts, one per scene object."""

    percepts: tuple[Percept, ...]

    def percept_for(self, object_id: str) -> Percept:
        for percept in self.percepts:
            if percept.object_id == object_id:
                return percept
        raise KeyError(object_id)


def make_world(
    palette: tuple[Colour, ...] | list[Colour],
    objects_per_scene: int,
    min_separation: float = DEFAULT_MIN_SEPARATION,
) -> World:
    """Build a world with one object per palette entry, ids in palette order.

    Rejects palettes that fail check_separation; World checks the scene size.
    """
    if not palette:
        raise ConfigurationError("palette must not be empty")
    check_separation(palette, min_separation)
    objects = tuple(
        WorldObject(object_id=f"obj-{i}", true_colour=colour)
        for i, colour in enumerate(palette)
    )
    return World(objects=objects, objects_per_scene=objects_per_scene)


def check_separation(
    palette: tuple[Colour, ...] | list[Colour], min_separation: float
) -> None:
    """Reject palettes whose colours are closer than `min_separation`, so
    that scenes stay discriminable well above the perception noise level."""
    for i, first in enumerate(palette):
        for j in range(i + 1, len(palette)):
            d = first.distance(palette[j])
            if d < min_separation:
                raise ConfigurationError(
                    f"palette colours {i} and {j} are {d:.2f} apart, below the "
                    f"required separation {min_separation}"
                )


def random_palette(
    rng: random.Random,
    size: int,
    min_separation: float = DEFAULT_MIN_SEPARATION,
    max_tries: int = 10_000,
) -> tuple[Colour, ...]:
    """Rejection-sample `size` colours that respect `min_separation`."""
    if size < 1:
        raise ConfigurationError(f"palette size must be >= 1, got {size}")
    accepted: list[Colour] = []
    for _ in range(max_tries):
        candidate = Colour(
            rng.uniform(0, 255), rng.uniform(0, 255), rng.uniform(0, 255)
        )
        if all(candidate.distance(c) >= min_separation for c in accepted):
            accepted.append(candidate)
            if len(accepted) == size:
                return tuple(accepted)
    raise ConfigurationError(
        f"could not place {size} colours at separation {min_separation} "
        f"within {max_tries} draws"
    )


def sample_scene(world: World, rng: random.Random) -> Scene:
    """Draw `objects_per_scene` distinct objects uniformly without replacement."""
    ids = rng.sample(world.object_ids, world.objects_per_scene)
    return Scene(object_ids=tuple(ids))


def perceive(
    world: World, scene: Scene, noise_std: float, rng: random.Random
) -> WorldModel:
    """Observe every scene object with i.i.d. Gaussian channel noise, clipped."""
    # One chain rejects negative, NaN and infinite noise alike.
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    # Bound once per call: three draws and a clamp run for every object.
    gauss, clipped, by_id = rng.gauss, Colour.clipped, world.object_by_id
    percepts = []
    for object_id in scene.object_ids:
        r, g, b = by_id(object_id).true_colour
        observed = clipped(
            r + gauss(0.0, noise_std),
            g + gauss(0.0, noise_std),
            b + gauss(0.0, noise_std),
        )
        percepts.append(Percept(object_id=object_id, observed_colour=observed))
    return WorldModel(percepts=tuple(percepts))
