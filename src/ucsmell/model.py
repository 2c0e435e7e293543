"""Core document model and smell-catalogue types.

Everything here is plain data: the parser produces a UseCaseDescription,
the text analyzer fills in tokens, and the metrics/engine modules read it.
Position data (spans, line numbers, section order) is excluded from
equality so that documents loaded from different serializations of the
same content compare equal.

Token and SourceSpan are built once per word, so they are named tuples:
immutable, hashable and cheap to create. Unlike the dataclasses here they
compare equal to plain tuples with the same fields and can be unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Union


class PosTag(Enum):
    NOUN = "noun"
    VERB = "verb"
    MODIFIER = "modifier"
    PRONOUN = "pronoun"
    OTHER = "other"


class Characteristic(Enum):
    """Row axis of the smell space: why a smell is problematic."""

    AMBIGUITY = 1
    INCORRECTNESS = 2
    GRANULARITY = 3
    REDUNDANCY = 4
    LACK = 5
    MISPLACEMENT = 6
    INCONSISTENCY = 7

    @property
    def title(self) -> str:
        return self.name.capitalize()


class Scope(Enum):
    """Column axis of the smell space: granularity where a smell occurs."""

    USECASE = 1
    SECTION = 2
    FLOW = 3
    SENTENCE = 4
    WORD = 5

    @property
    def title(self) -> str:
        return self.name.capitalize()


class SectionKind(Enum):
    NAME = "Name"
    OVERVIEW = "Overview"
    ACTORS = "Actors"
    PRECONDITIONS = "Preconditions"
    POSTCONDITIONS = "Postconditions"
    BASIC_FLOW = "Basic Flow"
    ALTERNATE_FLOWS = "Alternate Flows"
    EXCEPTION_FLOWS = "Exception Flows"

    @property
    def title(self) -> str:
        return self.value


# Canonical presentation order, also used to sort findings deterministically.
CANONICAL_SECTIONS = [
    SectionKind.NAME,
    SectionKind.OVERVIEW,
    SectionKind.ACTORS,
    SectionKind.PRECONDITIONS,
    SectionKind.POSTCONDITIONS,
    SectionKind.BASIC_FLOW,
    SectionKind.ALTERNATE_FLOWS,
    SectionKind.EXCEPTION_FLOWS,
]


def section_index(kind: SectionKind) -> int:
    return CANONICAL_SECTIONS.index(kind)


class _SpanFields(NamedTuple):
    start: int
    end: int
    line: int = 0


class SourceSpan(_SpanFields):
    """Byte offsets into the source text plus the 1-based line number."""

    __slots__ = ()

    def __new__(cls, start: int, end: int, line: int = 0) -> SourceSpan:
        if start > end:
            raise ValueError(f"span start {start} > end {end}")
        return tuple.__new__(cls, (start, end, line))

    @classmethod
    def _make(cls, iterable) -> SourceSpan:
        # _replace builds through _make; keep the check on that path too.
        return cls(*iterable)


EMPTY_SPAN = SourceSpan(0, 0, 0)


@dataclass(frozen=True)
class SourceRef:
    name: str


@dataclass(frozen=True)
class StepRef:
    section: SectionKind
    label: str


@dataclass(frozen=True)
class EndMarker:
    """Return destination meaning "the use case ends here"."""


END = EndMarker()

ReturnTarget = Union[StepRef, EndMarker]


class Token(NamedTuple):
    surface: str
    pos: PosTag
    span: SourceSpan


@dataclass
class Sentence:
    text: str
    line: int = field(default=0, compare=False)
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False)
    tokens: list[Token] = field(default_factory=list, compare=False, repr=False)


@dataclass
class Step:
    label: Optional[str]
    number: Optional[int]
    sentences: list[Sentence]
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False)


@dataclass
class Flow:
    steps: list[Step]


@dataclass
class BranchFlow:
    id: str
    condition: Optional[Sentence] = None
    origin: Optional[StepRef] = None
    return_to: Optional[ReturnTarget] = None
    steps: list[Step] = field(default_factory=list)
    span: SourceSpan = field(default=EMPTY_SPAN, compare=False)


@dataclass(frozen=True)
class ActorDecl:
    name: str
    description: Optional[str] = None


@dataclass
class UseCaseDescription:
    name: Optional[str] = None
    overview: Optional[str] = None
    actors: Optional[list[ActorDecl]] = None
    preconditions: Optional[list[Sentence]] = None
    postconditions: Optional[list[Sentence]] = None
    basic_flow: Optional[Flow] = None
    alternate_flows: list[BranchFlow] = field(default_factory=list)
    exception_flows: list[BranchFlow] = field(default_factory=list)
    source: SourceRef = field(default=SourceRef("<memory>"), compare=False)
    section_order: list[SectionKind] = field(default_factory=list, compare=False)
    # 1-based line of each section header; lets findings report
    # section-relative line numbers. Zero/absent when unknown.
    section_header_lines: dict[SectionKind, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def section_present(self, kind: SectionKind) -> bool:
        if kind is SectionKind.NAME:
            return bool(self.name and self.name.strip())
        if kind is SectionKind.OVERVIEW:
            return bool(self.overview and self.overview.strip())
        if kind is SectionKind.ACTORS:
            return bool(self.actors)
        if kind is SectionKind.PRECONDITIONS:
            return bool(self.preconditions)
        if kind is SectionKind.POSTCONDITIONS:
            return bool(self.postconditions)
        if kind is SectionKind.BASIC_FLOW:
            return self.basic_flow is not None and bool(self.basic_flow.steps)
        if kind is SectionKind.ALTERNATE_FLOWS:
            return bool(self.alternate_flows)
        if kind is SectionKind.EXCEPTION_FLOWS:
            return bool(self.exception_flows)
        raise ValueError(kind)

    def branch_flows(self, kind: SectionKind) -> list[BranchFlow]:
        if kind is SectionKind.ALTERNATE_FLOWS:
            return self.alternate_flows
        if kind is SectionKind.EXCEPTION_FLOWS:
            return self.exception_flows
        raise ValueError(f"{kind} has no branch flows")

    def iter_sentences(self):
        """Yield (section kind, sentence) over the whole document.

        Covers preconditions, postconditions, flow steps and branch
        conditions, in canonical section order. Name/Overview are free
        text, not sentences, and are not included.
        """
        for s in self.preconditions or []:
            yield SectionKind.PRECONDITIONS, s
        for s in self.postconditions or []:
            yield SectionKind.POSTCONDITIONS, s
        if self.basic_flow is not None:
            for step in self.basic_flow.steps:
                for s in step.sentences:
                    yield SectionKind.BASIC_FLOW, s
        for kind in (SectionKind.ALTERNATE_FLOWS, SectionKind.EXCEPTION_FLOWS):
            for flow in self.branch_flows(kind):
                if flow.condition is not None:
                    yield kind, flow.condition
                for step in flow.steps:
                    for s in step.sentences:
                        yield kind, s


@dataclass(frozen=True)
class SmellType:
    """One catalogue entry describing a kind of bad smell."""

    id: str
    name: str
    characteristic: Characteristic
    scope: Scope
    symptom: str
    how_to_detect: str
    detectable: bool
    origin_flags: frozenset[str] = frozenset()  # subset of {"diamond", "star"}

    @property
    def cell(self) -> tuple[Characteristic, Scope]:
        return (self.characteristic, self.scope)


@dataclass(frozen=True)
class WordEvidence:
    text: str


@dataclass(frozen=True)
class SentenceEvidence:
    text: str


@dataclass(frozen=True)
class FlowEvidence:
    items: tuple[str, ...]


Evidence = Union[WordEvidence, SentenceEvidence, FlowEvidence]


@dataclass(frozen=True)
class Finding:
    """One detected smell occurrence.

    line is 1-based within the section named by item_name; section-absence
    findings use line 0 and the expected section title as evidence.
    """

    smell_id: str
    item_name: str
    metric: str
    line: int
    evidence: Evidence
    span: SourceSpan = EMPTY_SPAN
