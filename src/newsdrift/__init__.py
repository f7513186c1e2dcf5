"""Deterministic multi-agent simulation of attitude drift under news exposure."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CorpusError,
    MatchingError,
    NewsdriftError,
    ReplayError,
    ResumeError,
    SchemaError,
    TransportError,
    ValidationError,
    YearEmptyError,
)
from .gateway import BackendConfig, GenerationRequest, Gateway
from .mock import load_lexicon, mock_sentiment
from .modes import ABLATIONS, INTERVENTIONS
from .orchestrator import RunConfig, resume, run
from .taxonomy import TopicTaxonomy, load_taxonomy

__all__ = [
    "ABLATIONS",
    "BackendConfig",
    "ConfigError",
    "CorpusError",
    "GenerationRequest",
    "Gateway",
    "INTERVENTIONS",
    "MatchingError",
    "NewsdriftError",
    "ReplayError",
    "ResumeError",
    "RunConfig",
    "SchemaError",
    "TopicTaxonomy",
    "TransportError",
    "ValidationError",
    "YearEmptyError",
    "load_lexicon",
    "load_taxonomy",
    "mock_sentiment",
    "resume",
    "run",
    "__version__",
]
