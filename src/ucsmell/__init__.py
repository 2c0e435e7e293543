"""ucsmell: a bad-smell linter for structured use case descriptions."""

from .catalogue import smell_space_cell
from .engine import DetectorConfig, detect, distribution
from .model import Finding, SectionKind, UseCaseDescription
from .parser import parse_json, parse_text, serialize, split_sentences
from .textanalysis import Lexicon, load_lexicon

__version__ = "0.1.0"

__all__ = [
    "DetectorConfig",
    "Finding",
    "Lexicon",
    "SectionKind",
    "UseCaseDescription",
    "detect",
    "distribution",
    "load_lexicon",
    "parse_json",
    "parse_text",
    "serialize",
    "smell_space_cell",
    "split_sentences",
]
