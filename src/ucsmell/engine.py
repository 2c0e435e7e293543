"""Detection engine: maps metric/predicate outputs to Finding records.

RULES is the rule table, one Rule row per detectable smell: the scan that
reads the document, the sections it reads, the metric its findings carry,
its threshold (a DetectorConfig field; stddev_k for the document's mean ±
k·stddev, which stays inert on documents with too few sentences; none when
a predicate must hold), one argument of the scan, and the JSON key (word,
sentence or flow) of its findings' evidence. detect tags the whole
document with one call to analyze_document, which walks it once and
returns each sentence's section kind and the sentences, in two lists; the
context shared by all rules is built from them, so the document is not
walked again. detect then calls each enabled row's scan with that context,
the smell id, the row and the function that collects findings. A scan
reads the document through the metrics module, looked up by the row's
names, and builds each finding with _Context.finding, which wraps the text
it quotes in an Evidence and places it on its line within its section from
each section's title and header line. The section and flow scans read
each section's presence and flows from the same context: all of it is
resolved once per detect call, and nothing is kept across calls. The word
and sentence scans count NOP, NOV, NOM and NON from the record tagging
keeps on each sentence (its tag codes and nouns), and the pronoun and
"actor" rows quote the words counted from the same record
(textanalysis._spans), so a run builds no tokens.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import metrics
from .model import (
    EMPTY_SPAN,
    _NOUNS,
    _TAGS,
    BranchFlow,
    Evidence,
    Finding,
    SectionKind,
    Sentence,
    UseCaseDescription,
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
    returns, each section's title, header line, presence and flows, and the
    distributions."""

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
        # its flows (none for a section without flows).
        self._places = {
            kind: (
                kind.title,
                headers.get(kind, 0),
                d.section_present(kind),
                metrics.section_flows(d, kind) if kind in _FLOWS else (),
            )
            for kind in SectionKind
        }
        self._limits: dict[str, tuple[list[int], float, float]] = {}

    def finding(
        self, smell_id, kind: SectionKind, metric, line: int, text, span=EMPTY_SPAN
    ) -> Finding:
        """The finding quoting text at source line, placed on its line within
        the section (1 = first content line; as is when the header is unknown)."""
        title, header, _, _ = self._places[kind]
        if header and line > header:
            line -= header
        return _finding(Finding, (smell_id, title, metric, line, Evidence(text), span))

    def values(self, name: str) -> list[int]:
        """Each sentence's value of the metrics function called name; with
        count_los_in_tokens, LOS counts words."""
        if name == "LOS" and self.cfg.count_los_in_tokens:
            return [len(s._tagged[_TAGS]) for s in self.sentences]
        measure = getattr(metrics, name)  # per call, so a wrapper on metrics sees it
        return [measure(s) for s in self.sentences]

    def limits(self, name: str) -> tuple[list[int], float, float]:
        """A sentence measure's values and its mean -/+ k·stddev, computed
        once per document for the high and the low rule."""
        if name not in self._limits:
            values = self.values(name)
            dist = distribution(values)
            spread = self.cfg.stddev_k * dist.stddev
            self._limits[name] = (values, dist.mean - spread, dist.mean + spread)
        return self._limits[name]


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
_STDDEV = "stddev_k"  # the threshold of a rule judged by the distribution
_HIGH, _LOW = True, False  # the side of its bound a value is flagged on


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
            rule.scan(ctx, smell_id, rule, findings.append)
    del ctx  # freed before the sort allocates its keys
    findings.sort(
        key=lambda f: (_ITEM_ORDER[f.item_name], f.line, f.smell_id, f.span.start)
    )
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
# detect has just tagged every sentence, so each keeps its record (text,
# span start, line, tag codes, nouns).


def _words(ctx, smell_id, rule, add):
    """Each word its metric counts, by the tag code the rule names: every
    pronoun (NOP), or every noun "actor" (NON), which a document with one
    actor is spared under suppress_actor_word_when_single_actor."""
    code, metric, word = rule.arg, rule.metric, None
    field, needle = _TAGS, code  # a sentence lacking needle is not quoted
    if code == _NOUN:
        actors = ctx.d.actors
        if ctx.cfg.suppress_actor_word_when_single_actor and actors and len(actors) == 1:
            return
        word, metric = ACTOR_WORD, f'{metric}("{ACTOR_WORD}")'
        field, needle = _NOUNS, word
    for kind, s in zip(ctx.kinds, ctx.sentences):
        record = s._tagged
        if needle not in record[field]:
            continue
        for surface, span in _spans(record, code):
            if word is None or surface.lower() == word:
                add(ctx.finding(smell_id, kind, metric, s.line, surface, span))


def _repeats(ctx, smell_id, rule, add):
    """Each noun a sentence holds at least the threshold's number of times."""
    threshold = getattr(ctx.cfg, rule.threshold)
    for kind, s in zip(ctx.kinds, ctx.sentences):
        nouns = s._tagged[_NOUNS]
        if threshold > 1 and len(set(nouns)) == len(nouns):
            continue  # no noun repeats
        counts: dict[str, int] = {}
        for noun in nouns:
            counts[noun] = counts.get(noun, 0) + 1
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
        values, lo, hi = ctx.limits(rule.metric)
        bound = hi if high else lo
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
    "pronoun": Rule(_words, _ANY, "NOP", arg=_PRONOUN, evidence="word"),
    "actor-actor": Rule(_words, _ANY, "NON", arg=_NOUN, evidence="word"),
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

# Findings sort by section in canonical order.
_ITEM_ORDER = {kind.title: i for i, kind in enumerate(SectionKind)}
