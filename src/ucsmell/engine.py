"""Detection engine: maps metric and predicate values to Finding records.

RULES holds one Rule row per detectable smell. detect tags the document
with one call to analyze_document, builds the context the rules share from
the section kinds and sentences it returns (nothing is kept across calls),
and calls each enabled row's scan with it. A scan computes no measure: it
takes every value, quoted word and distribution from the metrics module,
looked up at call time by the row's names, one call per rule per document,
and builds each finding with _Context.finding.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple, Optional

from . import metrics
from .model import (
    EMPTY_SPAN,
    BranchFlow,
    Evidence,
    Finding,
    SectionKind,
    Sentence,
    UseCaseDescription,
)
from .textanalysis import Lexicon, analyze_document


class _ConfigFields(NamedTuple):
    stddev_k: float = 2.0
    # Distribution rules judge only documents of at least this many sentences.
    # Of n values none lies over (n - 1)/sqrt(n) sample stddevs from their mean
    # (1.79 at n = 5, 2.04 at n = 6), so under k = 2 the 5 acts as "at least 6".
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
        if self.min_sentences_for_distribution < 0:
            raise ValueError("min_sentences_for_distribution must be >= 0")
        for name in _COUNT_THRESHOLDS:
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


# Builds a finding from its six fields without Finding's own __new__.
_finding = tuple.__new__


class _Context:
    """What the rules share about one document, built once per detect: each
    sentence and its section (the two lists analyze_document returns), each
    section's title, header line, presence and flows, and the distributions."""

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
        # Each kind's title, header line, whether the section is present, and
        # its flows (none for an absent section or one without flows).
        places = self._places = {}
        for kind, title, has_flows in _PLACES:
            present = d.section_present(kind)
            flows = metrics.section_flows(d, kind) if present and has_flows else ()
            places[kind] = (title, headers.get(kind, 0), present, flows)
        self._measured: dict[str, tuple[list[int], metrics.Distribution]] = {}
        # One Evidence per quoted text: findings that quote equal text share
        # it (it is frozen), and its string.
        self._evidence: dict = {}

    def finding(
        self, smell_id, kind: SectionKind, metric, line: int, text, span=EMPTY_SPAN
    ) -> Finding:
        """The finding quoting text at source line, placed on its line within
        the section (1 = first content line; as is when the header is unknown)."""
        title, header, _, _ = self._places[kind]
        if header and line > header:
            line -= header
        evidence = self._evidence.get(text)
        if evidence is None:
            evidence = self._evidence[text] = Evidence(text)
        return _finding(Finding, (smell_id, title, metric, line, evidence, span))

    def values(self, name: str) -> list[int]:
        """Each sentence's value of the sentence measure called name."""
        return metrics.sentence_values(name, self.sentences, self.cfg.count_los_in_tokens)

    def distribution(self, name: str) -> tuple[list[int], metrics.Distribution]:
        """A sentence measure's values and their distribution, computed once
        per document for the high and the low rule."""
        if name not in self._measured:
            values = self.values(name)
            self._measured[name] = (values, metrics.distribution(values))
        return self._measured[name]


class Rule:
    """One detectable smell as a row: the scan that reads the document, the
    sections it reads, the metric its findings carry (a metrics function
    name, a predicate name, or the FLOW_CHECKS suffixes tried in turn), the
    DetectorConfig field its value is held against (None when a predicate
    must hold or a word must not occur), one argument of the scan, and the
    JSON key its findings' evidence goes under: "word" for a quoted word,
    "flow" for a flow's id and sentences, "sentence" for the rest."""

    __slots__ = ("scan", "sections", "metric", "threshold", "arg", "evidence")

    def __init__(
        self, scan, sections, metric, threshold=None, arg=None, evidence="sentence"
    ) -> None:
        self.scan, self.sections, self.metric = scan, sections, metric
        self.threshold, self.arg, self.evidence = threshold, arg, evidence


_ALT = SectionKind.ALTERNATE_FLOWS
_EXC = SectionKind.EXCEPTION_FLOWS
_ANY = tuple(SectionKind)  # the sentence rules read every sentence
_FLOWS = (SectionKind.BASIC_FLOW, _ALT, _EXC)
# Each kind, its title and whether it has flows, in canonical order: built
# once, as iterating SectionKind runs a Python generator and .title a property.
_PLACES = tuple((kind, kind.title, kind in _FLOWS) for kind in SectionKind)
_STDDEV = "stddev_k"  # the threshold of a rule judged by the distribution
_HIGH, _LOW = True, False  # the side of its bound a value is flagged on


def detect(d: UseCaseDescription, cfg: DetectorConfig, lex: Lexicon) -> list[Finding]:
    """Tag d with lex, then run every enabled detection rule and return
    the ordered findings. Tags from an earlier analysis are replaced."""
    ctx = _Context(d, cfg, *analyze_document(d, lex))
    rows = RULES.items()
    if cfg.enabled_smells is not None:
        rows = [(i, rule) for i, rule in rows if i in cfg.enabled_smells]
    findings: list[Finding] = []
    add = findings.append
    for smell_id, rule in rows:
        rule.scan(ctx, smell_id, rule, add)
    del ctx  # freed before the sort
    for key in _SORT_KEYS:
        findings.sort(key=key)
    return findings


# --- section and flow scans -------------------------------------------------


def _missing(ctx, smell_id, rule, add):
    """A finding when the rule's section is absent."""
    kind = rule.sections[0]
    title, _, present, _ = ctx._places[kind]
    if not present:  # the check PREDICATES[rule.metric] runs
        add(ctx.finding(smell_id, kind, rule.metric, 0, title))


def _flows(ctx, smell_id, rule, add):
    """One finding per flow of the rule's sections that fails one of its
    checks, naming the first check it fails."""
    checks = metrics.FLOW_CHECKS
    for kind in rule.sections:
        for flow in ctx._places[kind][3]:  # metrics.section_flows(ctx.d, kind)
            for suffix in rule.metric:
                if checks[suffix](flow):
                    name = metrics.predicate_name(kind, suffix)
                    add(_flow_finding(ctx, smell_id, kind, flow, name, rule.arg))
                    break


def _flow_finding(ctx, smell_id, kind, flow, metric_name, index) -> Finding:
    """A finding quoting the flow's id and sentences, or, given an index,
    the flow's sentence at index (its id, on its header line, when it has
    no sentence)."""
    sents = _sentences(flow)
    if index is not None:
        if sents:
            return _sentence_finding(ctx, smell_id, kind, sents[index], metric_name)
        text, span = flow.id, flow.span
    else:
        text = tuple(s.text for s in sents)
        if isinstance(flow, BranchFlow):
            text, span = (flow.id, *text), flow.span
        else:
            span = flow.steps[0].span if flow.steps else EMPTY_SPAN
    return ctx.finding(smell_id, kind, metric_name, span.line, text, span)


def _shared_reason(ctx, smell_id, rule, add):
    """One finding per group of at least the threshold's number of flows
    sharing one branch condition."""
    kind = rule.sections[0]
    threshold = getattr(ctx.cfg, rule.threshold)
    for _, flows in metrics.reason_groups(ctx._places[kind][3]):
        if len(flows) < threshold:
            continue
        items = [f.id for f in flows]
        for f in flows:
            items.extend(s.text for s in _sentences(f))
        span = flows[0].span
        add(ctx.finding(smell_id, kind, rule.metric, span.line, tuple(items), span))


def _sentences(flow) -> list[Sentence]:
    return [s for step in flow.steps for s in step.sentences]


# --- word and sentence scans ------------------------------------------------


def _words(ctx, smell_id, rule, add):
    """Each word its metric counts: every pronoun (NOP), or every noun
    "actor" (NON), which a document with one actor is spared under
    suppress_actor_word_when_single_actor."""
    metric, noun = rule.metric, None
    if metric == "NON":
        if ctx.cfg.suppress_actor_word_when_single_actor and len(ctx.d.actors or ()) == 1:
            return
        metric, noun = 'NON("actor")', "actor"
    for i, words in metrics.counted_words(ctx.sentences, noun):
        for surface, span in words:
            add(ctx.finding(smell_id, ctx.kinds[i], metric, span.line, surface, span))


def _repeats(ctx, smell_id, rule, add):
    """Each noun a sentence holds at least the threshold's number of times."""
    threshold = getattr(ctx.cfg, rule.threshold)
    for i, counts in metrics.noun_counts(ctx.sentences, threshold > 1):
        kind, s = ctx.kinds[i], ctx.sentences[i]
        for noun, n in counts.items():
            if n >= threshold:
                add(_sentence_finding(ctx, smell_id, kind, s, f'{rule.metric}("{noun}")'))


def _beyond(ctx, smell_id, rule, add):
    """Sentences whose value lies beyond its bound on the rule's side: a
    count threshold t bounds it at t − 1 from above; stddev_k at the
    document's mean ± k·stddev, on documents with enough sentences."""
    high = rule.arg
    if rule.threshold == _STDDEV:
        if len(ctx.sentences) < max(1, ctx.cfg.min_sentences_for_distribution):
            return
        values, dist = ctx.distribution(rule.metric)
        bound = dist.limits(ctx.cfg.stddev_k)[high]  # high indexes (low, high)
    else:
        values = ctx.values(rule.metric)
        bound = getattr(ctx.cfg, rule.threshold) - 1
    for kind, s, v in zip(ctx.kinds, ctx.sentences, values):
        if (v > bound) if high else (v < bound):
            add(_sentence_finding(ctx, smell_id, kind, s, rule.metric))


def _sentence_finding(ctx, smell_id, kind, s: Sentence, metric_name) -> Finding:
    return ctx.finding(smell_id, kind, metric_name, s.line, s.text, s.span)


def _section_rule(kind: SectionKind) -> Rule:
    """A missing-section smell's row: the section's predicate must hold."""
    return Rule(_missing, (kind,), metrics.SECTION_EXIST[kind])


RULES: dict[str, Rule] = {
    "missing-actor-section": _section_rule(SectionKind.ACTORS),
    "missing-exception-flows-section": _section_rule(_EXC),
    "missing-alternate-flows-section": _section_rule(_ALT),
    "missing-preconditions-section": _section_rule(SectionKind.PRECONDITIONS),
    "missing-postconditions-section": _section_rule(SectionKind.POSTCONDITIONS),
    "missing-description-section": _section_rule(SectionKind.OVERVIEW),
    "missing-name-section": _section_rule(SectionKind.NAME),
    "unordered-flow": Rule(
        _flows, _FLOWS, tuple(metrics.ORDERING_CHECKS), evidence="flow"
    ),
    "origin-free-alternate-flow": Rule(
        _flows, (_ALT,), ("OriginDescribed?",), evidence="flow"
    ),
    "origin-free-exception-flow": Rule(
        _flows, (_EXC,), ("OriginDescribed?",), evidence="flow"
    ),
    "alternate-flow-without-return": Rule(_flows, (_ALT,), ("ReturnExist?",), arg=-1),
    "exception-flow-without-return": Rule(_flows, (_EXC,), ("ReturnExist?",), arg=-1),
    "unexplained-alternate-flow": Rule(_flows, (_ALT,), ("ReasonExist?",), arg=0),
    "unexplained-exception-flow": Rule(_flows, (_EXC,), ("ReasonExist?",), arg=0),
    "multiple-alternate-flows-at-an-alternate-branch-condition": Rule(
        _shared_reason, (_ALT,), "NOAFR", "same_reason_threshold", evidence="flow"
    ),
    "multiple-exception-flows-at-an-exception-branch-condition": Rule(
        _shared_reason, (_EXC,), "NOEFR", "same_reason_threshold", evidence="flow"
    ),
    "pronoun": Rule(_words, _ANY, "NOP", evidence="word"),
    "actor-actor": Rule(_words, _ANY, "NON", evidence="word"),
    "sentence-with-multiple-actions": Rule(
        _beyond, _ANY, "NOV", "multi_action_verb_threshold", _HIGH
    ),
    "repeating-the-same-noun": Rule(_repeats, _ANY, "NON", "repeated_noun_threshold"),
    "long-sentence": Rule(_beyond, _ANY, "LOS", _STDDEV, _HIGH),
    "short-sentence": Rule(_beyond, _ANY, "LOS", _STDDEV, _LOW),
    "relatively-over-qualified-sentence": Rule(_beyond, _ANY, "NOM", _STDDEV, _HIGH),
    "relatively-under-qualified-sentence": Rule(_beyond, _ANY, "NOM", _STDDEV, _LOW),
}

# Frozen, so every caller may share the one set; a test pins it to the
# catalogue's detectable entries, which a lint run never loads.
_DETECTABLE = frozenset(RULES)


def detectable_ids() -> frozenset[str]:
    """The ids of the smells RULES detects."""
    return _DETECTABLE


# The thresholds a count is held against, each at least 1.
_COUNT_THRESHOLDS = sorted({r.threshold for r in RULES.values()} - {None, _STDDEV})

# Findings sort by (section in canonical order, line, smell_id, span.start),
# one stable pass per key, the least significant first: no finding gets a
# key tuple, as a list of them freed at once would stay in CPython's tuple
# free list through the report.
_ITEM_ORDER = {kind.title: i for i, kind in enumerate(SectionKind)}
_SORT_KEYS = (
    attrgetter("span.start"),
    attrgetter("smell_id"),
    attrgetter("line"),
    lambda f: _ITEM_ORDER[f.item_name],
)
