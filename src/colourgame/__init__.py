"""Multi-agent simulator of the grounded colour naming game.

A population of agents, each with a private ontology of prototype colour
categories and a private inventory of scored word-form/category
constructions, converges on a shared colour vocabulary through a long series
of pairwise games.
"""

from .conceptual import Ontology
from .engine import (
    Agent,
    ExperimentParams,
    InteractionRecord,
    RunResult,
    run_experiment,
)
from .errors import (
    ColourGameError,
    ConfigurationError,
    InternalConsistencyError,
    ProtocolError,
)
from .lexicon import Construction, ConstructionInventory, invent_word_form
from .monitors import LexiconSnapshot, SeriesPoint
from .world import DEFAULT_PALETTE, Colour, World, make_world

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Colour",
    "ColourGameError",
    "ConfigurationError",
    "Construction",
    "ConstructionInventory",
    "DEFAULT_PALETTE",
    "ExperimentParams",
    "InteractionRecord",
    "InternalConsistencyError",
    "LexiconSnapshot",
    "Ontology",
    "ProtocolError",
    "RunResult",
    "SeriesPoint",
    "World",
    "invent_word_form",
    "make_world",
    "run_experiment",
]
