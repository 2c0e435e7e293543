"""ucsmell: a bad-smell linter for structured use case descriptions."""

# The engine first: it is the largest module a lint loads, and compiling it
# before the others are loaded lowers a cold process's peak memory.
from .engine import DetectorConfig, detect
from .metrics import distribution
from .parser import parse_json, parse_text, serialize, split_sentences
from .model import Finding, SectionKind, UseCaseDescription
from .textanalysis import Lexicon, load_lexicon

__version__ = "0.1.0"


def __getattr__(name: str):
    # The catalogue loads on first use: a lint run never reads it. Any
    # other name is missing, so `from ucsmell import catalogue` still
    # imports the submodule.
    if name == "smell_space_cell":
        from .catalogue import smell_space_cell

        return smell_space_cell
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
