"""Agent-internal colour categories: conceptualisation and interpretation.

Each agent holds a private `Ontology` of category prototypes, which it
matches against its own world model by plain Euclidean distance
(`math.dist`) on a colour's raw channels. This experiment never composes
meanings, so a meaning is just a category id.
"""
from __future__ import annotations

from math import dist

from .errors import InternalConsistencyError
from .world import RGB, clipped


class Ontology:
    """An agent's private, append-only list of category prototypes.

    Categories are never deleted; only their prototypes move. Category k's
    prototype is `prototypes[k - 1]`.
    """

    def __init__(self) -> None:
        self.prototypes: list[RGB] = []

    def __len__(self) -> int:
        return len(self.prototypes)

    def get(self, category_id: int) -> RGB:
        """The prototype of category `category_id`."""
        if 0 < category_id <= len(self.prototypes):
            return self.prototypes[category_id - 1]
        raise InternalConsistencyError(f"unknown category id {category_id}")

    def invent_category(self, observed: RGB) -> int:
        """Create a category whose first prototype is the observed value, and
        return its id."""
        self.prototypes.append(observed)
        return len(self.prototypes)

    def conceptualise(self, topic_id: str, model: dict[str, RGB]) -> int | None:
        """Id of a category that uniquely discriminates `topic_id` in `model`.

        The candidate is always the category closest to the topic's observed
        colour, an exact distance tie going to the smallest id (the
        earliest-created category); it qualifies only if every other object
        in the model is strictly farther from its prototype. Returns None when
        the ontology is empty or the closest category fails to discriminate.
        """
        try:
            topic = model[topic_id]
        except KeyError:
            raise InternalConsistencyError(
                f"topic {topic_id!r} is not part of the world model"
            ) from None
        best: int | None = None
        topic_distance = 0.0
        for category_id, prototype in enumerate(self.prototypes, 1):
            d = dist(prototype, topic)
            if best is None or d < topic_distance:
                best, topic_distance = category_id, d
        if best is None:
            return None
        prototype = self.prototypes[best - 1]
        for object_id, observed in model.items():
            if object_id != topic_id and dist(prototype, observed) <= topic_distance:
                return None
        return best

    def interpret(self, category_id: int, model: dict[str, RGB]) -> str | None:
        """Id of the object in `model` closest to the category's prototype.

        A tie for the minimum means the category fails to single out a
        referent, so the result is None.
        """
        prototype = self.get(category_id)
        best: str | None = None
        best_distance = 0.0
        tied = False
        for object_id, observed in model.items():
            d = dist(prototype, observed)
            if best is None or d < best_distance:
                best, best_distance, tied = object_id, d, False
            elif d == best_distance:
                tied = True
        if tied:
            return None
        return best

    def shift_prototype(self, category_id: int, observation: RGB, rate: float) -> RGB:
        """Move a prototype a fraction `rate` of the way to `observation`."""
        r, g, b = self.get(category_id)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"shift rate {rate!r} outside [0, 1]")
        tr, tg, tb = observation
        shifted = self.prototypes[category_id - 1] = clipped(
            r + rate * (tr - r), g + rate * (tg - g), b + rate * (tb - b)
        )
        return shifted
