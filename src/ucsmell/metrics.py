"""Numeric metrics and boolean predicates over a parsed document.

The numeric metrics (NOP, NOW, NOEFR, NOAFR, LOS, NOV, NOM, NON) count
features of single sentences or flow groups; NOP, NOV, NOM, NON and NOW
read the record the analyzer keeps on a sentence: its tag codes, nouns
and text (all zero before analysis).
The 22 predicates check structural properties of flows and sections. A
flow predicate is named after its section and the suffix of its
per-flow check in FLOW_CHECKS, a section predicate comes from
SECTION_EXIST; the engine's rules call the same checks. All are pure functions; the output
names are the bit-exact strings the report format uses.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .model import (
    _NOUNS,
    _TAGS,
    _TEXT,
    BranchFlow,
    Flow,
    SectionKind,
    Sentence,
    SourceSpan,
    UseCaseDescription,
)
from .parser import RETURN_RE
from .textanalysis import _MODIFIER, _PRONOUN, _VERB, split_words

_STEP_NAME_RE = re.compile(r"\bstep\s+(\d+)\b", re.IGNORECASE)


class PredicateResult(NamedTuple):
    predicate: str
    holds: bool
    witnesses: tuple[SourceSpan, ...] = ()


# --- numeric metrics ------------------------------------------------------


def NOP(s: Sentence) -> int:
    """Number of pronouns in a tagged sentence."""
    return s._tagged[_TAGS].count(_PRONOUN)


def NOV(s: Sentence) -> int:
    """Number of verbs in a tagged sentence."""
    return s._tagged[_TAGS].count(_VERB)


def NOM(s: Sentence) -> int:
    """Number of modifiers in a tagged sentence."""
    return s._tagged[_TAGS].count(_MODIFIER)


def NOW(s: Sentence, word: str) -> int:
    """Number of occurrences of the given word, any part of speech, among
    the words of the sentence's last analysis (0 before analysis)."""
    w = word.lower()
    return [t.lower() for t in split_words(s._tagged[_TEXT])].count(w)


def NON(s: Sentence, noun: str) -> int:
    """Number of noun-tagged occurrences of the given word."""
    return s._tagged[_NOUNS].count(noun.lower())


def LOS(s: Sentence) -> int:
    """Length of a sentence in characters (Unicode scalar values)."""
    return len(s.text.strip())


def normalize_reason(text: str) -> str:
    """Canonical key for branch conditions: casefolded, whitespace
    collapsed, leading if/when and trailing punctuation stripped."""
    t = re.sub(r"\s+", " ", text.casefold().strip())
    t = re.sub(r"^(if|when)\s+", "", t)
    return t.rstrip(".!?,;: ")


def reason_groups(flows: list[BranchFlow]) -> list[tuple[str, list[BranchFlow]]]:
    """Group flows by normalized condition; flows without one are skipped."""
    groups: dict[str, list[BranchFlow]] = {}
    for flow in flows:
        if flow.condition is None:
            continue
        groups.setdefault(normalize_reason(flow.condition.text), []).append(flow)
    return list(groups.items())


def NOEFR(d: UseCaseDescription) -> list[tuple[str, int]]:
    """Sizes of exception-flow groups sharing one branch reason."""
    return [(k, len(fs)) for k, fs in reason_groups(d.exception_flows)]


def NOAFR(d: UseCaseDescription) -> list[tuple[str, int]]:
    """Sizes of alternate-flow groups sharing one branch reason."""
    return [(k, len(fs)) for k, fs in reason_groups(d.alternate_flows)]


# --- per-flow structural checks (shared by predicates and the engine) ----


def flow_numbered(flow) -> list[SourceSpan]:
    """Spans of unnumbered steps (empty when all are numbered)."""
    return [s.span for s in flow.steps if s.number is None]


def flow_ordered(flow) -> list[SourceSpan]:
    """Span of the first step breaking the strict +1 ordering, if any."""
    numbered = [s for s in flow.steps if s.number is not None]
    for a, b in zip(numbered, numbered[1:]):
        if b.number != a.number + 1:
            return [b.span]
    return []


def flow_starts_with_1(flow) -> list[SourceSpan]:
    if not flow.steps:
        return []
    first = flow.steps[0]
    return [] if first.number == 1 else [first.span]


def branch_origin_described(flow: BranchFlow) -> bool:
    if flow.origin is not None:
        return True
    return flow.condition is not None and bool(
        _STEP_NAME_RE.search(flow.condition.text)
    )


def branch_return_exists(flow: BranchFlow) -> bool:
    if flow.return_to is not None:
        return True
    return any(
        RETURN_RE.search(s.text) for step in flow.steps for s in step.sentences
    )


def branch_reason_exists(flow: BranchFlow) -> bool:
    return flow.condition is not None


# --- the 22 predicates ----------------------------------------------------


def _flow_span_unless(holds: Callable[[BranchFlow], bool]):
    return lambda flow: [] if holds(flow) else [flow.span]


# Per-flow checks keyed by predicate suffix. Each gives the spans where
# one flow fails the check, empty when it holds. The ordering checks
# apply to every flow section, the others to branch flows only.
ORDERING_CHECKS: dict[str, Callable[[Flow], list[SourceSpan]]] = {
    "Numbered?": flow_numbered,
    "Ordered?": flow_ordered,
    "StartWith1?": flow_starts_with_1,
}
FLOW_CHECKS: dict[str, Callable[[Flow], list[SourceSpan]]] = {
    **ORDERING_CHECKS,
    "OriginDescribed?": _flow_span_unless(branch_origin_described),
    "ReturnExist?": _flow_span_unless(branch_return_exists),
    "ReasonExist?": _flow_span_unless(branch_reason_exists),
}

SECTION_EXIST = {
    SectionKind.ACTORS: "ActorSectionExist?",
    SectionKind.EXCEPTION_FLOWS: "ExceptionFlowsSectionExist?",
    SectionKind.ALTERNATE_FLOWS: "AlternateFlowsSectionExist?",
    SectionKind.PRECONDITIONS: "PreconditionsSectionExist?",
    SectionKind.POSTCONDITIONS: "PostconditionsSectionExist?",
    SectionKind.OVERVIEW: "OverviewSectionExist?",
    SectionKind.NAME: "NameSectionExist?",
}


def predicate_name(kind: SectionKind, suffix: str) -> str:
    """Name of a flow predicate: (BASIC_FLOW, "Numbered?") gives
    "BasicFlowNumbered?"."""
    return kind.title.replace(" ", "") + suffix


def section_flows(d: UseCaseDescription, kind: SectionKind) -> list:
    """The flows of a flow section; none when the section is absent."""
    if not d.section_present(kind):
        return []
    if kind is SectionKind.BASIC_FLOW:
        return [d.basic_flow]
    return d.branch_flows(kind)


def _flow_predicate(kind: SectionKind, suffix: str):
    name = predicate_name(kind, suffix)
    check = FLOW_CHECKS[suffix]

    def predicate(d: UseCaseDescription) -> PredicateResult:
        witnesses = tuple(w for f in section_flows(d, kind) for w in check(f))
        return PredicateResult(name, not witnesses, witnesses)

    return name, predicate


def _section_predicate(kind: SectionKind):
    name = SECTION_EXIST[kind]
    return name, lambda d: PredicateResult(name, d.section_present(kind))


_BRANCH_SECTIONS = (SectionKind.EXCEPTION_FLOWS, SectionKind.ALTERNATE_FLOWS)

PREDICATES: dict[str, Callable[[UseCaseDescription], PredicateResult]] = dict(
    [_flow_predicate(SectionKind.BASIC_FLOW, suffix) for suffix in ORDERING_CHECKS]
    + [_flow_predicate(k, suffix) for suffix in FLOW_CHECKS for k in _BRANCH_SECTIONS]
    + [_section_predicate(kind) for kind in SECTION_EXIST]
)

