"""Exception hierarchy shared by all simulator modules, and the two helpers
their checks share: `is_int` and `quoted`."""


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
    import reprlib  # on the error path only

    cut = reprlib.Repr()
    spell_int = cut.repr_int

    def repr_int(x: int, level: int) -> str:
        try:
            return spell_int(x, level)
        except ValueError:
            return f"{'-' if x < 0 else ''}<int of {x.bit_length()} bits>"

    cut.repr_int = repr_int
    return cut.repr(value)
