"""Scored word-form/category constructions and their update dynamics.

Every agent owns a private inventory of constructions, each pairing one word
form with one category id under an entrenchment score in (0, 1]. Production
and comprehension pick the strongest match; successful games reward the used
construction and laterally inhibit its competitors, failed games punish it.
A construction whose score drops to zero disappears.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InternalConsistencyError

SPEAKER = "speaker"
HEARER = "hearer"

CONSONANTS = "bdfgklmnprstvwz"
VOWELS = "aeiou"
SYLLABLES_PER_WORD = 3

# Scores move in configured decrements; rounding keeps 0.5 - 5 * 0.1 at an
# exact 0.0 so the removal threshold is not defeated by float dust.
_SCORE_DECIMALS = 12


def _rounded(score: float) -> float:
    return round(score, _SCORE_DECIMALS)


@dataclass
class Construction:
    """A word form mapped to a category id, weighted by an entrenchment score."""

    form: str
    category_id: int
    score: float


def invent_word_form(rng: random.Random, taken: frozenset[str] | set[str] = frozenset()) -> str:
    """Generate a fresh consonant-vowel word of three syllables.

    Regenerates until the form is not among `taken` (the inventing agent's
    existing forms), so one agent never coins the same word twice.
    """
    while True:
        form = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS)
            for _ in range(SYLLABLES_PER_WORD)
        )
        if form not in taken:
            return form


class ConstructionInventory:
    """An agent's private collection of scored constructions."""

    def __init__(self) -> None:
        self.constructions: list[Construction] = []
        # Bumped by every method that adds or removes a construction, so a
        # monitor can tell an inventory whose form and category sets may
        # have changed from one whose scores alone moved.
        self.edits = 0

    def __len__(self) -> int:
        return len(self.constructions)

    def forms(self) -> set[str]:
        return {c.form for c in self.constructions}

    def add_construction(
        self, form: str, category_id: int, initial_score: float
    ) -> Construction:
        """Store a new construction; the (form, category) pair must be fresh."""
        if not 0.0 < initial_score <= 1.0:
            raise ValueError(
                f"initial score must be in (0, 1], got {initial_score!r}"
            )
        for existing in self.constructions:
            if existing.form == form and existing.category_id == category_id:
                raise InternalConsistencyError(
                    f"construction ({form!r}, {category_id}) already present"
                )
        construction = Construction(
            form=form, category_id=category_id, score=_rounded(initial_score)
        )
        self.constructions.append(construction)
        self.edits += 1
        return construction

    def produce(self, category_id: int) -> Construction | None:
        """Strongest construction for a category; score ties go to the
        lexicographically smallest form."""
        best = None
        for c in self.constructions:
            if c.category_id == category_id and (
                best is None
                or c.score > top
                or (c.score == top and c.form < best.form)
            ):
                best, top = c, c.score
        return best

    def comprehend(self, form: str) -> Construction | None:
        """Strongest construction for a form; ties go to the smallest
        category id."""
        best = None
        for c in self.constructions:
            if c.form == form and (
                best is None
                or c.score > top
                or (c.score == top and c.category_id < best.category_id)
            ):
                best, top = c, c.score
        return best

    def reward_and_inhibit(
        self, used: Construction, role: str, inc: float, inh: float
    ) -> None:
        """Reward the used construction and inhibit its competitors.

        Competitors depend on the role: a speaker inhibits other forms mapped
        to the same category, a hearer inhibits other categories mapped to the
        same form. Constructions inhibited to zero are removed.
        """
        if role not in (SPEAKER, HEARER):
            raise ValueError(f"role must be {SPEAKER!r} or {HEARER!r}, got {role!r}")
        if inc < 0 or inh < 0:
            raise ValueError("inc and inh must be >= 0")
        # One scan finds the competitors and checks that `used` is here, so
        # a foreign construction raises before any score moves.
        present = False
        competitors = []
        for other in self.constructions:
            if other is used:
                present = True
            elif role == SPEAKER:
                if other.category_id == used.category_id and other.form != used.form:
                    competitors.append(other)
            elif other.form == used.form and other.category_id != used.category_id:
                competitors.append(other)
        if not present:
            raise _not_in_inventory(used)
        used.score = _rounded(min(1.0, used.score + inc))
        # Only an inhibited competitor can reach zero, since inc >= 0.
        zeroed = False
        for other in competitors:
            other.score = _rounded(other.score - inh)
            zeroed = zeroed or other.score <= 0.0
        if zeroed:
            self._prune()

    def punish(self, used: Construction, dec: float) -> None:
        """Decrease the used construction's score, removing it at zero."""
        if dec < 0:
            raise ValueError("dec must be >= 0")
        self._require_present(used)
        used.score = _rounded(used.score - dec)
        if used.score <= 0.0:
            self._prune()

    def _require_present(self, used: Construction) -> None:
        if not any(c is used for c in self.constructions):
            raise _not_in_inventory(used)

    def _prune(self) -> None:
        self.constructions = [c for c in self.constructions if c.score > 0.0]
        self.edits += 1


def _not_in_inventory(used: Construction) -> InternalConsistencyError:
    return InternalConsistencyError(
        f"construction ({used.form!r}, {used.category_id}) not in inventory"
    )
