"""Exception hierarchy shared by all simulator modules, and the rules every
check of a run's values refuses through (`Rule`), so each door that checks a
value gives `ExperimentParams.validate`'s message for it."""
from __future__ import annotations

import reprlib
import sys
from typing import Callable


class ColourGameError(Exception):
    """Base class for all simulator-specific errors."""


class ConfigurationError(ColourGameError):
    """Invalid experiment setup: bad parameter values, palettes, backends."""


class ProtocolError(ColourGameError):
    """A capability was used out of order (pointing at an object outside the
    current scene)."""


class InternalConsistencyError(ColourGameError):
    """An agent-internal structure was addressed with a stale or unknown
    identifier; indicates a bug in the calling code, not bad user input."""


def is_int(value: object) -> bool:
    """Whether `value` is an int and not a bool, which is an int that would
    play as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def quoted(value: object) -> str:
    """The repr of a bad value, cut to a bounded size for a one-line error.
    An int past `sys.get_int_max_str_digits()`, which has no decimal repr,
    is told by its bit count."""
    cut = reprlib.Repr()
    spell_int = cut.repr_int

    def repr_int(x: int, level: int) -> str:
        try:
            return spell_int(x, level)
        except ValueError:
            return f"{'-' if x < 0 else ''}<int of {x.bit_length()} bits>"

    cut.repr_int = repr_int
    return cut.repr(value)


# The largest float. `0.0 <= v <= FLOAT_MAX` refuses in one chain a negative,
# NaN, an infinity and an int too large to be a float, which compares with it
# exactly. The guards that run in every game (`world.perceive` and the
# lexicon's updates) spell the chain inline: a `Rule.require` call costs more.
FLOAT_MAX = sys.float_info.max


class Rule:
    """What a value must be: the `words` an error gives, the `check` that
    tells whether a value is that, and the `kind` of value the check
    presumes, if any, whose `TYPE_RULES` rule is checked first. A plain
    class: a named tuple costs more to create at import."""

    def __init__(
        self, words: str, check: Callable[[object], bool], kind: type | None = None
    ) -> None:
        self.words = words
        self.check = check
        self.kind = kind

    def require(self, name: str, value: object) -> None:
        """Raise ConfigurationError unless `value`, given for `name`, is of
        the rule's kind and passes its check."""
        if self.kind is not None:
            TYPE_RULES[self.kind].require(name, value)
        if not self.check(value):
            raise ConfigurationError(
                f"{name} must be {self.words}, got {quoted(value)}"
            )


# What a value must be, by the type of its default.
TYPE_RULES = {
    bool: Rule("a boolean", lambda v: isinstance(v, bool)),
    int: Rule("an integer", is_int),
    float: Rule("a number", lambda v: is_int(v) or isinstance(v, float)),
    str: Rule("a string", lambda v: isinstance(v, str)),
}
# The ranges of a number of any size, each checked after its type, so a
# door that checks a value with one of them alone refuses a bool or a string
# in `validate`'s words, not with a bare TypeError.
FINITE = Rule("finite and >= 0", lambda v: 0.0 <= v <= FLOAT_MAX, float)
AT_LEAST_ZERO = Rule(">= 0", lambda v: v >= 0, int)
AT_LEAST_ONE = Rule(">= 1", lambda v: v >= 1, int)


def within(low: int, high: int) -> Rule:
    """The integer rule `in [low, high]`; `high` is quoted, as it may be any
    int."""
    return Rule(f"in [{low}, {quoted(high)}]", lambda v: low <= v <= high, int)


# A palette needs a colour before a scene size can be in range for it.
NON_EMPTY = Rule("non-empty", bool)
