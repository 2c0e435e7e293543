"""Core document model and smell-catalogue types.

Everything here is plain data: the parser produces a UseCaseDescription,
the text analyzer, the only writer of a sentence's tagging record, fills
that record in, and the metrics/engine modules count from it; a
sentence's tokens are rebuilt from it on each read. Position data
(spans, line numbers, header lines) is excluded from equality so that
documents loaded from different serializations of the same content
compare equal.

The immutable value records (SourceSpan, Token, Finding, ...) are named
tuples: hashable and cheap to create, and, like any tuple, equal to a
plain tuple with the same fields. The records the parser and the analyzer
fill in (Sentence, Step, Flow, BranchFlow, UseCaseDescription) are
__slots__ classes whose equality reads only the fields in _compared;
Sentence, Step and BranchFlow keep their span as ints. Evidence is a
frozen __slots__ class of one field, its text. No record is a dataclass:
importing dataclasses and generating each class's methods would cost a
cold lint process more than the rest of this module.
"""

from __future__ import annotations

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
    """The sections of a description, declared in canonical order: the
    order of the JSON format's keys and of sorted findings."""

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


# Each section's document field, which is also its key in the JSON format.
SECTION_FIELD = {kind: kind.value.lower().replace(" ", "_") for kind in SectionKind}


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


class _Record:
    """Equality and repr over the fields a subclass names.

    repr shows the fields in _fields; equality compares the fields in
    _compared, and only between records of the same class. A record is
    mutable, so it is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A record whose __init__ sets each field once, through
    object.__setattr__, and takes the compared fields in order. It is
    hashable over those fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # copy and pickle rebuild the record through __init__.
        return self.__class__, self._key()


class StepRef(NamedTuple):
    section: SectionKind
    label: str


class EndMarker(_FrozenRecord):
    """Return destination meaning "the use case ends here"."""

    __slots__ = ()


END = EndMarker()

ReturnTarget = Union[StepRef, EndMarker]


class Token(NamedTuple):
    surface: str
    pos: PosTag
    span: SourceSpan


# What an analysis keeps of a sentence: the text, span start and line it
# read, one tag code per word (the first letter of its PosTag's value) and
# the nouns, lowercased; an exact tuple, which the collector stops tracking.
_UNANALYZED = ("", 0, 0, "", ())
_TEXT, _TAGS, _NOUNS = 0, 3, 4  # the fields the metrics and the rules read


class _Spanned(_Record):
    """A record that keeps its span as three ints, built into one on read."""

    __slots__ = ("_start", "_end", "_span_line")

    @property
    def span(self) -> SourceSpan:
        return tuple.__new__(SourceSpan, (self._start, self._end, self._span_line))

    @span.setter
    def span(self, span: SourceSpan) -> None:
        self._start, self._end, self._span_line = span


class Sentence(_Spanned):
    """One sentence of a document.

    Only the analyzer writes _tagged, the record of its last analysis (see
    _UNANALYZED). The metrics and the rules count from it, words_tagged
    quotes from it and tokens are built from it on each read, so all are
    what an eager analysis would have built even if text, span or line
    change later. A sentence never analyzed has no tokens.
    """

    __slots__ = ("text", "line", "_tagged")
    _fields = ("text", "line", "span")
    _compared = ("text",)

    def __init__(
        self, text: str, line: int = 0, span: SourceSpan = EMPTY_SPAN
    ) -> None:
        self.text = text
        self.line = line
        self._start, self._end, self._span_line = span
        self._tagged = _UNANALYZED

    @property
    def tokens(self) -> list[Token]:
        from .textanalysis import tagged_tokens  # which imports this module

        return tagged_tokens(self._tagged)


class Step(_Spanned):
    __slots__ = ("label", "number", "sentences")
    _fields = ("label", "number", "sentences", "span")
    _compared = ("label", "number", "sentences")

    def __init__(
        self,
        label: Optional[str],
        number: Optional[int],
        sentences: list[Sentence],
        span: SourceSpan = EMPTY_SPAN,
    ) -> None:
        self.label = label
        self.number = number
        self.sentences = sentences
        self._start, self._end, self._span_line = span


class Flow(_Record):
    __slots__ = ("steps",)
    _fields = _compared = ("steps",)

    def __init__(self, steps: list[Step]) -> None:
        self.steps = steps


class BranchFlow(_Spanned):
    __slots__ = ("id", "condition", "origin", "return_to", "steps")
    _fields = ("id", "condition", "origin", "return_to", "steps", "span")
    _compared = ("id", "condition", "origin", "return_to", "steps")

    def __init__(
        self,
        id: str,
        condition: Optional[Sentence] = None,
        origin: Optional[StepRef] = None,
        return_to: Optional[ReturnTarget] = None,
        steps: Optional[list[Step]] = None,
        span: SourceSpan = EMPTY_SPAN,
    ) -> None:
        self.id = id
        self.condition = condition
        self.origin = origin
        self.return_to = return_to
        self.steps = [] if steps is None else steps
        self._start, self._end, self._span_line = span


class ActorDecl(NamedTuple):
    name: str
    description: Optional[str] = None


class UseCaseDescription(_Record):
    _fields = _compared = tuple(SECTION_FIELD.values())
    __slots__ = (*_fields, "section_header_lines")

    def __init__(
        self,
        name: Optional[str] = None,
        overview: Optional[str] = None,
        actors: Optional[list[ActorDecl]] = None,
        preconditions: Optional[list[Sentence]] = None,
        postconditions: Optional[list[Sentence]] = None,
        basic_flow: Optional[Flow] = None,
        alternate_flows: Optional[list[BranchFlow]] = None,
        exception_flows: Optional[list[BranchFlow]] = None,
        section_header_lines: Optional[dict[SectionKind, int]] = None,
    ) -> None:
        self.name = name
        self.overview = overview
        self.actors = actors
        self.preconditions = preconditions
        self.postconditions = postconditions
        self.basic_flow = basic_flow
        self.alternate_flows = [] if alternate_flows is None else alternate_flows
        self.exception_flows = [] if exception_flows is None else exception_flows
        # 1-based line of each section header; lets findings report
        # section-relative line numbers. Zero/absent when unknown.
        self.section_header_lines = (
            {} if section_header_lines is None else section_header_lines
        )

    def section_present(self, kind: SectionKind) -> bool:
        """Whether the section has content: text that is not blank, a
        basic flow with steps, or a non-empty list."""
        value = getattr(self, SECTION_FIELD[kind])
        if isinstance(value, str):
            return bool(value.strip())
        if isinstance(value, Flow):
            return bool(value.steps)
        return bool(value)

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
        K = SectionKind  # each kind looked up once: enum lookups are slow on 3.11
        pre, post, basic = K.PRECONDITIONS, K.POSTCONDITIONS, K.BASIC_FLOW
        alt, exc = K.ALTERNATE_FLOWS, K.EXCEPTION_FLOWS
        for s in self.preconditions or []:
            yield pre, s
        for s in self.postconditions or []:
            yield post, s
        if self.basic_flow is not None:
            for step in self.basic_flow.steps:
                for s in step.sentences:
                    yield basic, s
        for kind, flows in ((alt, self.alternate_flows), (exc, self.exception_flows)):
            for flow in flows:
                if flow.condition is not None:
                    yield kind, flow.condition
                for step in flow.steps:
                    for s in step.sentences:
                        yield kind, s


class SmellType(NamedTuple):
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


class Evidence(_FrozenRecord):
    """What a finding quotes: a word or a sentence as a str, or a flow's id
    and sentences as a tuple of str. The finding's engine.RULES row names
    the JSON key it is written under."""

    __slots__ = ("text",)
    _fields = _compared = ("text",)

    def __init__(self, text: Union[str, tuple[str, ...]]) -> None:
        object.__setattr__(self, "text", text)


class Finding(NamedTuple):
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
