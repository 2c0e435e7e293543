"""Numeric metrics and boolean predicates over a parsed document.

The one module that computes the paper's measures. The numeric metrics
(NOP, NOW, NOEFR, NOAFR, LOS, NOV, NOM, NON) count features of single
sentences, from the record the analyzer keeps on each (all zero before
analysis), or of flow groups. The rules call per-document forms of them
(one call per rule) and distribution, for the mean ± k·stddev bounds.
The 22 predicates check structural properties of flows and sections. A
flow predicate is named after its section and the suffix of its
per-flow check in FLOW_CHECKS, a section predicate comes from
SECTION_EXIST; the engine's rules call the same checks. The branch
checks read fields only: the parser is the one reader of "step N" and
the return phrases, and fills in each flow's origin and return_to from
them. All are pure functions; the output names are the bit-exact
strings the report format uses.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

from .model import (
    _NOUNS,
    _TAGS,
    _TEXT,
    BranchFlow,
    Flow,
    PosTag,
    SectionKind,
    Sentence,
    SourceSpan,
    UseCaseDescription,
)
from .textanalysis import _MODIFIER, _PRONOUN, _VERB, split_words, words_tagged


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
    return sum(counts.get(noun.lower(), 0) for _, counts in noun_counts([s]))


def LOS(s: Sentence) -> int:
    """Length of a sentence in characters (Unicode scalar values)."""
    return len(s.text.strip())


def sentence_values(name: str, sentences: list[Sentence], in_words=False) -> list[int]:
    """Each sentence's value of the measure called name; LOS in words if in_words."""
    if name == "LOS" and in_words:
        return [len(s._tagged[_TAGS]) for s in sentences]  # a code per word
    measure = globals()[name]  # per call, so a wrapper on the module sees it
    return [measure(s) for s in sentences]


def counted_words(sentences: list[Sentence], noun=None) -> Iterator[tuple[int, list]]:
    """The words NOP counts, or given a lowercased noun the words NON(s,
    noun) counts, as (i, words) for each sentences[i] that holds one: the
    surface and span of each, in order, as words_tagged quotes them (a
    span only for each word counted). Yielded, so each pair is freed
    before the next is built."""
    pos, field, needle = PosTag.PRONOUN, _TAGS, _PRONOUN
    if noun is not None:
        pos, field, needle = PosTag.NOUN, _NOUNS, noun
    for i, s in enumerate(sentences):
        if needle in s._tagged[field]:  # else it holds no such word
            yield i, words_tagged(s, pos, noun)


def noun_counts(
    sentences: list[Sentence], repeated_only=False
) -> Iterator[tuple[int, dict]]:
    """(i, counts) for each sentences[i], or each that repeats a noun: how
    often it holds each of its nouns, in order of first occurrence. Yielded,
    as counted_words yields its pairs."""
    for i, s in enumerate(sentences):
        nouns = s._tagged[_NOUNS]
        if not repeated_only or len(set(nouns)) < len(nouns):
            counts = dict.fromkeys(nouns, 0)
            for noun in nouns:
                counts[noun] += 1
            yield i, counts


class Distribution(NamedTuple):
    n: int
    mean: float
    stddev: float  # sample standard deviation, 0 when n == 1

    def limits(self, k: float) -> tuple[float, float]:  # mean -/+ k·stddev
        return self.mean - k * self.stddev, self.mean + k * self.stddev


def distribution(values: list[int]) -> Distribution:
    """Mean and sample standard deviation of integer values, each the
    float nearest to the exact result (as statistics.fmean and, from
    Python 3.11, statistics.stdev give them)."""
    n = len(values)
    if not n:
        raise ValueError("distribution of an empty value list is undefined")
    total = sum(values)
    if n == 1:
        return Distribution(1, total / n, 0.0)
    # The sample variance is exactly num / den.
    num = n * sum(v * v for v in values) - total * total
    den = n * (n - 1)
    return Distribution(n, total / n, _sqrt_of_fraction(num, den))


def _sqrt_of_fraction(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for integers num >= 0, den > 0.

    The integer root keeps at least 2·53 + 3 = 109 bits and is rounded to
    odd (its last bit is set when it is inexact), so the one rounding to a
    53-bit float that follows is the correct one. This is how CPython 3.11+
    computes statistics.stdev.
    """
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return math.ldexp(root, shift)


def normalize_reason(text: str) -> str:
    """Canonical key for branch conditions: casefolded, whitespace
    collapsed, leading if/when and trailing punctuation stripped."""
    t = " ".join(text.casefold().split())
    if t.startswith("if "):
        t = t[3:]
    elif t.startswith("when "):
        t = t[5:]
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


def _field_set(field: str) -> Callable[[BranchFlow], list[SourceSpan]]:
    """The check that a branch flow's field is set: the flow's span when
    it is None."""
    return lambda flow: [] if getattr(flow, field) is not None else [flow.span]


# --- the 22 predicates ----------------------------------------------------


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
    "OriginDescribed?": _field_set("origin"),
    "ReturnExist?": _field_set("return_to"),
    "ReasonExist?": _field_set("condition"),
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

