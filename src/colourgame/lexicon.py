"""Scored word-form/category constructions and their update dynamics.

Every agent owns a private inventory of constructions, each pairing one word
form with one category id under an entrenchment score in (0, 1]. Production
and comprehension pick the strongest match; successful games reward the used
construction and laterally inhibit its competitors, failed games punish it.
A construction whose score drops to zero disappears.

Invariants, each explained where it is kept: an inventory's two indexes, its
count, its edit count and its form notes agree (`ConstructionInventory`), and
every stored score is rounded (`_rounded`).
"""
from __future__ import annotations

import random
from collections.abc import Container

from .errors import FLOAT_MAX, InternalConsistencyError, quoted

SPEAKER = "speaker"
HEARER = "hearer"

CONSONANTS = "bdfgklmnprstvwz"
VOWELS = "aeiou"
SYLLABLES_PER_WORD = 3

# Scores move in configured decrements; rounding keeps 0.5 - 5 * 0.1 at an
# exact 0.0 so the removal threshold is not defeated by float dust.
_SCORE_DECIMALS = 12

_ROUNDED: dict[float, float] = {}
_ROUNDED_MAX = 4096


def _rounded(score: float) -> float:
    """`round(score, _SCORE_DECIMALS)`, the value every stored score takes,
    memoised in `_ROUNDED`: a default run sees a few dozen distinct scores,
    so nearly every call is one dict lookup. Only positive floats are
    memoised: a score at or below zero is pruned at once anyway, and a dict
    key cannot tell -0.0 from 0.0, nor 1.0 from the int 1, which `round`
    keeps as they are. The dict is cleared at `_ROUNDED_MAX` entries, so its
    memory is bounded, and when a run starts (`engine.run_experiment`), so
    what a run costs does not depend on what ran before it in the process.
    """
    if score.__class__ is float and score > 0.0:
        try:
            return _ROUNDED[score]
        except KeyError:
            if len(_ROUNDED) >= _ROUNDED_MAX:
                _ROUNDED.clear()
            rounded = _ROUNDED[score] = round(score, _SCORE_DECIMALS)
            return rounded
    return round(score, _SCORE_DECIMALS)


class Construction:
    """A word form mapped to a category id, weighted by an entrenchment score."""

    __slots__ = ("form", "category_id", "score")

    def __init__(self, form: str, category_id: int, score: float) -> None:
        self.form = form
        self.category_id = category_id
        self.score = score


def invent_word_form(rng: random.Random, taken: Container[str] = frozenset()) -> str:
    """Generate a fresh consonant-vowel word of three syllables.

    Regenerates until the form is not `in` `taken` (the inventing agent's
    existing forms, such as its inventory's `by_form`), so one agent never
    coins the same word twice.
    """
    while True:
        form = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS)
            for _ in range(SYLLABLES_PER_WORD)
        )
        if form not in taken:
            return form


class ConstructionInventory:
    """An agent's private collection of scored constructions.

    It indexes its constructions twice: `by_form` groups them by word form
    and `by_category` by category id, each bucket in the order its
    constructions were added, and no bucket is ever empty. There is no other
    list of them; `size` counts them. `add_construction` and `_remove`, the
    only methods that add or remove a construction, keep both indexes and
    the count in step, and bump `edits` and note `form_changes`. So every
    lookup reads the one bucket it needs and costs its matches, not the
    whole inventory, and a construction whose score reaches zero is removed
    from its two buckets alone.
    """

    def __init__(self) -> None:
        self.by_form: dict[str, list[Construction]] = {}
        self.by_category: dict[int, list[Construction]] = {}
        self.size = 0
        self.edits = 0
        # form -> +1 for a `by_form` bucket created, -1 for one deleted,
        # since a monitor last drained it; a form created and deleted in
        # between nets out and leaves no entry, so the dict never holds more
        # than the forms held now and those held at the last drain.
        self.form_changes: dict[str, int] = {}

    def __len__(self) -> int:
        return self.size

    def add_construction(
        self, form: str, category_id: int, initial_score: float
    ) -> Construction:
        """Store a new construction; the (form, category) pair must be fresh.

        The score is stored as a rounded float, so an int given for it is
        written like every later score. It must lie in (0, 1] both before
        and after rounding.
        """
        score = _rounded(float(initial_score))
        if not (0.0 < initial_score <= 1.0 and score > 0.0):
            raise ValueError(
                f"initial score must be in (0, 1] and not round to 0, "
                f"got {initial_score!r}"
            )
        bucket = self.by_form.get(form)
        for existing in bucket or ():
            if existing.category_id == category_id:
                raise InternalConsistencyError(
                    f"construction ({form!r}, {category_id}) already present"
                )
        construction = Construction(
            form=form, category_id=category_id, score=score
        )
        if bucket is None:
            self.by_form[form] = [construction]
            if not self.form_changes.pop(form, 0):
                self.form_changes[form] = 1
        else:
            bucket.append(construction)
        self.by_category.setdefault(category_id, []).append(construction)
        self.size += 1
        self.edits += 1
        return construction

    def produce(self, category_id: int) -> Construction | None:
        """Strongest construction for a category; score ties go to the
        lexicographically smallest form."""
        best = None
        for c in self.by_category.get(category_id, ()):
            if best is None or c.score > top or (
                c.score == top and c.form < best.form
            ):
                best, top = c, c.score
        return best

    def comprehend(self, form: str) -> Construction | None:
        """Strongest construction for a form; ties go to the smallest
        category id."""
        best = None
        for c in self.by_form.get(form, ()):
            if best is None or c.score > top or (
                c.score == top and c.category_id < best.category_id
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
        if not (0.0 <= inc <= FLOAT_MAX and 0.0 <= inh <= FLOAT_MAX):
            raise ValueError(
                f"inc and inh must be finite and >= 0, got {quoted(inc)} "
                f"and {quoted(inh)}"
            )
        # The competitors are the rest of `used`'s bucket, since a (form,
        # category) pair is held once. A bucket that does not hold `used`
        # itself means a foreign construction, which raises before any
        # score moves.
        if role == SPEAKER:
            bucket = self.by_category.get(used.category_id, ())
        else:
            bucket = self.by_form.get(used.form, ())
        if used not in bucket:
            raise _not_in_inventory(used)
        used.score = _rounded(min(1.0, used.score + inc))
        # Only an inhibited competitor can reach zero, since inc >= 0.
        # `_unindex` replaces a bucket rather than editing it, so a removal
        # leaves the bucket this loop walks as it was.
        for other in bucket:
            if other is not used:
                other.score = _rounded(other.score - inh)
                if other.score <= 0.0:
                    self._remove(other)

    def punish(self, used: Construction, dec: float) -> None:
        """Decrease the used construction's score, removing it at zero."""
        if not 0.0 <= dec <= FLOAT_MAX:
            raise ValueError(f"dec must be finite and >= 0, got {quoted(dec)}")
        if used not in self.by_form.get(used.form, ()):
            raise _not_in_inventory(used)
        used.score = _rounded(used.score - dec)
        if used.score <= 0.0:
            self._remove(used)

    def _remove(self, construction: Construction) -> None:
        """Take a held construction out of both its buckets."""
        form = construction.form
        if _unindex(self.by_form, form, construction):
            if not self.form_changes.pop(form, 0):
                self.form_changes[form] = -1
        _unindex(self.by_category, construction.category_id, construction)
        self.size -= 1
        self.edits += 1


def _unindex(buckets: dict, key: object, construction: Construction) -> bool:
    """Take `construction` out of its bucket, deleting a bucket left empty;
    True if it deleted the bucket."""
    bucket = buckets[key]
    if len(bucket) == 1:
        del buckets[key]
        return True
    buckets[key] = [c for c in bucket if c is not construction]
    return False


def _not_in_inventory(used: Construction) -> InternalConsistencyError:
    return InternalConsistencyError(
        f"construction ({used.form!r}, {used.category_id}) not in inventory"
    )
