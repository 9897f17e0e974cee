"""Exception hierarchy shared by all simulator modules."""


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


def quoted(value: object) -> str:
    """The repr of a bad value, cut to a bounded size for a one-line error."""
    import reprlib  # on the error path only
    return reprlib.repr(value)
