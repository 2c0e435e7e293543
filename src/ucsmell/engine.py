"""Detection engine: maps metric/predicate outputs to Finding records.

RULES holds one rule per detectable smell. detect tags the whole document
with one call to analyze_document (one table step per word), which walks
the document once and returns each sentence's section kind and the
sentences, in two lists; the context shared by all rules is built from
those lists, so the document is not walked again. detect then calls each
enabled rule with that context, its smell id and the function that
collects findings. A rule reads the document through the checks and
predicates of the metrics module, whose names label its findings, and
builds each finding with _Context.finding, which places it on its line
within its section from each section's title and header line, resolved
once per document. The word and sentence rules count NOP, NOV, NOM and
NON from the record tagging keeps on each sentence (its tag codes and
nouns). To quote the words counted, the pronoun and "actor" rules read
them from the same record (textanalysis._spans, the loop behind
words_tagged, which stops at the last word of the tag), so a run builds
no tokens.

Sentence-granularity smells (long/short, over/under qualified) are judged
against the distribution of values over the whole document: a value is
smelly when it lies more than k standard deviations from the mean. The
distribution rules stay inert on documents with too few sentences.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from . import metrics
from .catalogue import detectable_ids
from .model import (
    EMPTY_SPAN,
    _NOUNS,
    _TAGS,
    BranchFlow,
    Finding,
    FlowEvidence,
    SectionKind,
    Sentence,
    SentenceEvidence,
    UseCaseDescription,
    WordEvidence,
)
from .textanalysis import _NOUN, _PRONOUN, Lexicon, _spans, analyze_document

ACTOR_WORD = "actor"


class _ConfigFields(NamedTuple):
    stddev_k: float = 2.0
    min_sentences_for_distribution: int = 5
    multi_action_verb_threshold: int = 2
    repeated_noun_threshold: int = 2
    same_reason_threshold: int = 2
    suppress_actor_word_when_single_actor: bool = False
    count_los_in_tokens: bool = False
    enabled_smells: Optional[frozenset[str]] = None  # None = all detectable


class DetectorConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DetectorConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.stddev_k < math.inf:  # also rejects nan
            raise ValueError("stddev_k must be positive and finite")
        for name in (
            "multi_action_verb_threshold",
            "repeated_noun_threshold",
            "same_reason_threshold",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.enabled_smells is not None:
            _check_smell_ids(self.enabled_smells, "enabled_smells")
        return self

    @classmethod
    def _make(cls, iterable) -> DetectorConfig:
        # _replace builds through _make; keep the checks on that path too.
        return cls(*iterable)

    def enabled_ids(self) -> frozenset[str]:
        """The smells this config runs: enabled_smells, or all detectable."""
        if self.enabled_smells is None:
            return detectable_ids()
        return self.enabled_smells


def _check_smell_ids(ids, where: str) -> None:
    """Reject ids that name no detectable smell."""
    unknown = set(ids) - detectable_ids()
    if unknown:
        names = ", ".join(repr(i) for i in sorted(unknown))
        raise ValueError(f"unknown smell id in {where}: {names}")


_BOOL_VALUES = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}
# A config value is read as its field's default is typed.
_READERS = {
    bool: (lambda value: _BOOL_VALUES[value.lower()], "a boolean"),
    int: (int, "an integer"),
    float: (float, "a number"),
}


def parse_config(text: str) -> DetectorConfig:
    """Parse the flat key=value config format ('#' starts a comment)."""
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, value = (p.strip() for p in line.split("=", 1))
        if key == "enabled_smells":
            kwargs[key] = frozenset(s.strip() for s in value.split(",") if s.strip())
        elif key in _ConfigFields._field_defaults:
            read, kind = _READERS[type(_ConfigFields._field_defaults[key])]
            try:
                kwargs[key] = read(value)
            except (KeyError, ValueError):
                raise ValueError(
                    f"config line {lineno}: {key} must be {kind}, got {value!r}"
                ) from None
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return DetectorConfig(**kwargs)


def load_config(path: str) -> DetectorConfig:
    with open(path, encoding="utf-8-sig") as fh:  # drops a byte order mark
        return parse_config(fh.read())


class Distribution(NamedTuple):
    n: int
    mean: float
    stddev: float  # sample standard deviation, 0 when n == 1


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


# Builds a finding from its six fields without Finding's own __new__.
_finding = tuple.__new__


class _Context:
    """What the rules share about one document, built once per detect: each
    sentence and its section, in the two parallel lists analyze_document
    returns, each section's title and header line, and the distributions."""

    def __init__(
        self,
        d: UseCaseDescription,
        cfg: DetectorConfig,
        kinds: list[SectionKind],
        sentences: list[Sentence],
    ) -> None:
        self.d = d
        self.cfg = cfg
        self.kinds = kinds
        self.sentences = sentences
        headers = d.section_header_lines
        self._places = {  # each kind's title and header line
            kind: (kind.title, headers.get(kind, 0)) for kind in SectionKind
        }
        self._limits: dict[str, tuple[list[int], float, float]] = {}

    def finding(
        self, smell_id, kind: SectionKind, metric, line: int, evidence, span=EMPTY_SPAN
    ) -> Finding:
        """The finding at source line, placed on its line within the section
        (1 = first content line; as is when the header line is unknown)."""
        title, header = self._places[kind]
        if header and line > header:
            line -= header
        return _finding(Finding, (smell_id, title, metric, line, evidence, span))

    def limits(self, metric_name: str) -> tuple[list[int], float, float]:
        """A sentence measure's values and its mean -/+ k·stddev, computed
        once per document for the high and the low rule."""
        if metric_name not in self._limits:
            if metric_name == "NOM":
                values = [metrics.NOM(s) for s in self.sentences]
            elif self.cfg.count_los_in_tokens:
                values = [len(s._tagged[_TAGS]) for s in self.sentences]
            else:
                values = [metrics.LOS(s) for s in self.sentences]
            dist = distribution(values)
            spread = self.cfg.stddev_k * dist.stddev
            self._limits[metric_name] = (values, dist.mean - spread, dist.mean + spread)
        return self._limits[metric_name]


Rule = Callable[[_Context, str, Callable[[Finding], None]], None]

_ALT = SectionKind.ALTERNATE_FLOWS
_EXC = SectionKind.EXCEPTION_FLOWS


def detect(
    d: UseCaseDescription, cfg: DetectorConfig, lex: Lexicon
) -> list[Finding]:
    """Tag d with lex, then run every enabled detection rule and return
    the ordered findings. Tags from an earlier analysis are replaced."""
    ctx = _Context(d, cfg, *analyze_document(d, lex))
    enabled = cfg.enabled_ids()
    findings: list[Finding] = []
    for smell_id, rule in RULES.items():
        if smell_id in enabled:
            rule(ctx, smell_id, findings.append)
    findings.sort(
        key=lambda f: (_ITEM_ORDER[f.item_name], f.line, f.smell_id, f.span.start)
    )
    return findings


# --- section and flow rules -------------------------------------------------


def _missing_section(kind: SectionKind) -> Rule:
    name = metrics.SECTION_EXIST[kind]

    def rule(ctx, smell_id, add):
        if not ctx.d.section_present(kind):  # the check PREDICATES[name] runs
            add(ctx.finding(smell_id, kind, name, 0, SentenceEvidence(kind.title)))

    return rule


def _per_flow(kinds: tuple, suffixes: tuple, finding) -> Rule:
    """One finding per flow of the sections that fails a check, naming
    the first check it fails."""
    checks = [(suffix, metrics.FLOW_CHECKS[suffix]) for suffix in suffixes]

    def rule(ctx, smell_id, add):
        for kind in kinds:
            for flow in metrics.section_flows(ctx.d, kind):
                for suffix, check in checks:
                    if check(flow):
                        name = metrics.predicate_name(kind, suffix)
                        add(finding(ctx, smell_id, kind, flow, name))
                        break

    return rule


def _shared_reason(kind: SectionKind, metric_name: str) -> Rule:
    """One finding per group of flows sharing one branch condition."""

    def rule(ctx, smell_id, add):
        for _, flows in metrics.reason_groups(ctx.d.branch_flows(kind)):
            if len(flows) < ctx.cfg.same_reason_threshold:
                continue
            items = [f.id for f in flows]
            for f in flows:
                items.extend(s.text for s in _sentences(f))
            span = flows[0].span
            evidence = FlowEvidence(tuple(items))
            add(ctx.finding(smell_id, kind, metric_name, span.line, evidence, span))

    return rule


def _sentences(flow) -> list[Sentence]:
    return [s for step in flow.steps for s in step.sentences]


def _flow_finding(ctx, smell_id, kind, flow, metric_name) -> Finding:
    texts = [s.text for s in _sentences(flow)]
    if isinstance(flow, BranchFlow):
        items = (flow.id, *texts)
        span = flow.span
    else:
        items = tuple(texts)
        span = flow.steps[0].span if flow.steps else EMPTY_SPAN
    evidence = FlowEvidence(items)
    return ctx.finding(smell_id, kind, metric_name, span.line, evidence, span)


def _quote_sentence(index: int):
    """A finding builder quoting the flow's sentence at index, or its id,
    on its header line, when the flow has no sentence."""

    def finding(ctx, smell_id, kind, flow, metric_name) -> Finding:
        sents = _sentences(flow)
        if sents:
            return _sentence_finding(ctx, smell_id, kind, sents[index], metric_name)
        span = flow.span
        evidence = SentenceEvidence(flow.id)
        return ctx.finding(smell_id, kind, metric_name, span.line, evidence, span)

    return finding


_first_sentence = _quote_sentence(0)
_last_sentence = _quote_sentence(-1)


# --- word and sentence rules ------------------------------------------------
# detect has just tagged every sentence, so each keeps its record (text,
# span start, line, tag codes, nouns).


def _pronoun(ctx, smell_id, add):
    for kind, s in zip(ctx.kinds, ctx.sentences):
        if _PRONOUN not in s._tagged[_TAGS]:
            continue
        for surface, span in _spans(s._tagged, _PRONOUN):
            add(ctx.finding(smell_id, kind, "NOP", s.line, WordEvidence(surface), span))


def _actor_word(ctx, smell_id, add):
    actors = ctx.d.actors
    if ctx.cfg.suppress_actor_word_when_single_actor and actors and len(actors) == 1:
        return
    metric_name = f'NON("{ACTOR_WORD}")'
    for kind, s in zip(ctx.kinds, ctx.sentences):
        if ACTOR_WORD not in s._tagged[_NOUNS]:
            continue
        for surface, span in _spans(s._tagged, _NOUN):
            if surface.lower() == ACTOR_WORD:
                evidence = WordEvidence(surface)
                add(ctx.finding(smell_id, kind, metric_name, s.line, evidence, span))


def _multiple_actions(ctx, smell_id, add):
    for kind, s in zip(ctx.kinds, ctx.sentences):
        if metrics.NOV(s) >= ctx.cfg.multi_action_verb_threshold:
            add(_sentence_finding(ctx, smell_id, kind, s, "NOV"))


def _repeated_noun(ctx, smell_id, add):
    threshold = ctx.cfg.repeated_noun_threshold
    for kind, s in zip(ctx.kinds, ctx.sentences):
        nouns = s._tagged[_NOUNS]
        if threshold > 1 and len(set(nouns)) == len(nouns):
            continue  # no noun repeats
        counts: dict[str, int] = {}
        for noun in nouns:
            counts[noun] = counts.get(noun, 0) + 1
        for noun, n in counts.items():
            if n >= threshold:
                add(_sentence_finding(ctx, smell_id, kind, s, f'NON("{noun}")'))


def _outlier(metric_name: str, high: bool) -> Rule:
    """Sentences whose value lies beyond the document's mean ± k·stddev."""

    def rule(ctx, smell_id, add):
        n = len(ctx.sentences)
        if n == 0 or n < ctx.cfg.min_sentences_for_distribution:
            return
        values, lo, hi = ctx.limits(metric_name)
        for kind, s, v in zip(ctx.kinds, ctx.sentences, values):
            if (v > hi) if high else (v < lo):
                add(_sentence_finding(ctx, smell_id, kind, s, metric_name))

    return rule


def _sentence_finding(ctx, smell_id, kind, s: Sentence, metric_name) -> Finding:
    evidence = SentenceEvidence(s.text)
    return ctx.finding(smell_id, kind, metric_name, s.line, evidence, s.span)


RULES: dict[str, Rule] = {
    "missing-actor-section": _missing_section(SectionKind.ACTORS),
    "missing-exception-flows-section": _missing_section(_EXC),
    "missing-alternate-flows-section": _missing_section(_ALT),
    "missing-preconditions-section": _missing_section(SectionKind.PRECONDITIONS),
    "missing-postconditions-section": _missing_section(SectionKind.POSTCONDITIONS),
    "missing-description-section": _missing_section(SectionKind.OVERVIEW),
    "missing-name-section": _missing_section(SectionKind.NAME),
    "unordered-flow": _per_flow(
        (SectionKind.BASIC_FLOW, _ALT, _EXC), tuple(metrics.ORDERING_CHECKS), _flow_finding
    ),
    "origin-free-alternate-flow": _per_flow((_ALT,), ("OriginDescribed?",), _flow_finding),
    "origin-free-exception-flow": _per_flow((_EXC,), ("OriginDescribed?",), _flow_finding),
    "alternate-flow-without-return": _per_flow((_ALT,), ("ReturnExist?",), _last_sentence),
    "exception-flow-without-return": _per_flow((_EXC,), ("ReturnExist?",), _last_sentence),
    "unexplained-alternate-flow": _per_flow((_ALT,), ("ReasonExist?",), _first_sentence),
    "unexplained-exception-flow": _per_flow((_EXC,), ("ReasonExist?",), _first_sentence),
    "multiple-alternate-flows-at-an-alternate-branch-condition": _shared_reason(
        _ALT, "NOAFR"
    ),
    "multiple-exception-flows-at-an-exception-branch-condition": _shared_reason(
        _EXC, "NOEFR"
    ),
    "pronoun": _pronoun,
    "actor-actor": _actor_word,
    "sentence-with-multiple-actions": _multiple_actions,
    "repeating-the-same-noun": _repeated_noun,
    "long-sentence": _outlier("LOS", high=True),
    "short-sentence": _outlier("LOS", high=False),
    "relatively-over-qualified-sentence": _outlier("NOM", high=True),
    "relatively-under-qualified-sentence": _outlier("NOM", high=False),
}

# Findings sort by section in canonical order.
_ITEM_ORDER = {kind.title: i for i, kind in enumerate(SectionKind)}
