"""Hardware-independent body capabilities, backed here by a simulator.

The game engine never names a body implementation: `make_body` builds a
backend of a registered kind (`register_backend`), and the engine issues the
game script's capability calls (embody, observe_world, speak, hear, point,
nod) on it through this module's functions. Only the "simulated" backend
ships with the package. Two bodies share nothing but the utterance, which
`speak` and `hear` hand over as a value.
"""
from __future__ import annotations

import random
from typing import Callable, Protocol

from .errors import FINITE, ConfigurationError, ProtocolError
from .world import RGB, World, perceive

SIMULATED = "simulated"


class Backend(Protocol):
    """The capability set every body backend implements."""

    kind: str
    identity: str

    def embody(self, agent_id: object) -> bool: ...

    def observe_world(
        self, world: World, scene: tuple[str, ...], rng: random.Random
    ) -> dict[str, RGB]: ...

    def speak(self, utterance: str) -> str: ...

    def hear(self, utterance: str) -> str: ...

    def point(self, object_id: str) -> str: ...

    def nod(self) -> bool: ...


class SimulatedBackend:
    """In-process body: perception comes from the simulated world, an
    utterance passes unchanged, and pointing transfers the object id."""

    kind = SIMULATED

    def __init__(self, identity: str, noise_std: float) -> None:
        FINITE.require("noise_std", noise_std)
        self.identity = identity
        self.noise_std = noise_std
        self._scene: tuple[str, ...] | None = None

    def embody(self, agent_id: object) -> bool:
        return True

    def observe_world(
        self, world: World, scene: tuple[str, ...], rng: random.Random
    ) -> dict[str, RGB]:
        # Each call consumes fresh noise, so two bodies observing the same
        # scene build different models whenever noise_std > 0.
        self._scene = scene
        return perceive(world, scene, self.noise_std, rng)

    def speak(self, utterance: str) -> str:
        if not isinstance(utterance, str) or not utterance:
            raise ValueError(f"invalid word form: {utterance!r}")
        return utterance

    def hear(self, utterance: str) -> str:
        return utterance

    def point(self, object_id: str) -> str:
        if self._scene is None or object_id not in self._scene:
            raise ProtocolError(
                f"cannot point at {object_id!r}: not in the current scene"
            )
        return object_id

    def nod(self) -> bool:
        return True


_BACKENDS: dict[str, Callable[..., Backend]] = {SIMULATED: SimulatedBackend}


def register_backend(kind: str, factory: Callable[..., Backend]) -> None:
    """Make a backend kind available to make_body; re-registering replaces."""
    _BACKENDS[kind] = factory


def make_body(kind: str, identity: str, **options: object) -> Backend:
    """Create one body of the given backend kind.

    The factory registered for `kind` receives the identity plus any
    backend-specific options (the simulated backend takes `noise_std`).
    """
    try:
        factory = _BACKENDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unsupported backend kind {kind!r}; supported kinds: "
            f"{', '.join(sorted(_BACKENDS))}"
        ) from None
    return factory(identity, **options)


def embody(body: Backend, agent_id: object) -> bool:
    """Associate an agent with this body for the duration of one game."""
    return body.embody(agent_id)


def observe_world(
    body: Backend, world: World, scene: tuple[str, ...], rng: random.Random
) -> dict[str, RGB]:
    """Scan the scene's objects through this body's sensors into a private
    world model: each object's id mapped to its observed colour, in scene
    order."""
    return body.observe_world(world, scene, rng)


def speak(body: Backend, utterance: str) -> str:
    """Say the utterance; returns what went on air."""
    return body.speak(utterance)


def hear(body: Backend, utterance: str) -> str:
    """Listen to what went on air; returns what this body heard."""
    return body.hear(utterance)


def point(body: Backend, object_id: str) -> str:
    """Point at a scene object; the returned id is what the observer sees."""
    return body.point(object_id)


def nod(body: Backend) -> bool:
    """Signal success to the other agent."""
    return body.nod()
