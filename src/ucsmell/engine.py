"""Detection engine: maps metric/predicate outputs to Finding records.

Sentence-granularity smells (long/short, over/under qualified) are judged
against the distribution of values over the whole document: a value is
smelly when it lies more than k standard deviations from the mean. The
distribution rules stay inert on documents with too few sentences.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from . import metrics
from .catalogue import detectable_ids
from .model import (
    BranchFlow,
    Finding,
    FlowEvidence,
    PosTag,
    SectionKind,
    Sentence,
    SentenceEvidence,
    SourceSpan,
    UseCaseDescription,
    WordEvidence,
    section_index,
)
from .textanalysis import Lexicon, analyze_document

ACTOR_WORD = "actor"


@dataclass(frozen=True)
class DetectorConfig:
    stddev_k: float = 2.0
    min_sentences_for_distribution: int = 5
    multi_action_verb_threshold: int = 2
    repeated_noun_threshold: int = 2
    same_reason_threshold: int = 2
    suppress_actor_word_when_single_actor: bool = False
    count_los_in_tokens: bool = False
    enabled_smells: Optional[frozenset[str]] = None  # None = all detectable

    def __post_init__(self) -> None:
        if self.stddev_k <= 0:
            raise ValueError("stddev_k must be positive")
        for name in (
            "multi_action_verb_threshold",
            "repeated_noun_threshold",
            "same_reason_threshold",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def enabled_ids(self) -> frozenset[str]:
        """The smells this config runs: enabled_smells, or all detectable."""
        if self.enabled_smells is None:
            return detectable_ids()
        return self.enabled_smells

    def enabled(self, smell_id: str) -> bool:
        return smell_id in self.enabled_ids()


_BOOL_KEYS = {"suppress_actor_word_when_single_actor", "count_los_in_tokens"}
_BOOL_VALUES = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}
_INT_KEYS = {
    "min_sentences_for_distribution",
    "multi_action_verb_threshold",
    "repeated_noun_threshold",
    "same_reason_threshold",
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
        if key == "stddev_k":
            kwargs[key] = float(value)
        elif key in _INT_KEYS:
            kwargs[key] = int(value)
        elif key in _BOOL_KEYS:
            try:
                kwargs[key] = _BOOL_VALUES[value.lower()]
            except KeyError:
                raise ValueError(
                    f"config line {lineno}: {key} must be a boolean, got {value!r}"
                ) from None
        elif key == "enabled_smells":
            kwargs[key] = frozenset(
                s.strip() for s in value.split(",") if s.strip()
            )
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return DetectorConfig(**kwargs)


def load_config(path: str) -> DetectorConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class Distribution:
    n: int
    mean: float
    stddev: float  # sample standard deviation, 0 when n == 1


def distribution(values: list[int]) -> Distribution:
    if not values:
        raise ValueError("distribution of an empty value list is undefined")
    mean = statistics.fmean(values)
    stddev = statistics.stdev(values) if len(values) > 1 else 0.0
    return Distribution(n=len(values), mean=mean, stddev=stddev)


_MISSING_SECTION_SMELLS = [
    ("missing-actor-section", SectionKind.ACTORS, "ActorSectionExist?"),
    (
        "missing-exception-flows-section",
        SectionKind.EXCEPTION_FLOWS,
        "ExceptionFlowsSectionExist?",
    ),
    (
        "missing-alternate-flows-section",
        SectionKind.ALTERNATE_FLOWS,
        "AlternateFlowsSectionExist?",
    ),
    (
        "missing-preconditions-section",
        SectionKind.PRECONDITIONS,
        "PreconditionsSectionExist?",
    ),
    (
        "missing-postconditions-section",
        SectionKind.POSTCONDITIONS,
        "PostconditionsSectionExist?",
    ),
    ("missing-description-section", SectionKind.OVERVIEW, "OverviewSectionExist?"),
    ("missing-name-section", SectionKind.NAME, "NameSectionExist?"),
]

_FLOW_SECTIONS = [
    SectionKind.BASIC_FLOW,
    SectionKind.ALTERNATE_FLOWS,
    SectionKind.EXCEPTION_FLOWS,
]

_SECTION_PREFIX = {
    SectionKind.BASIC_FLOW: "BasicFlow",
    SectionKind.ALTERNATE_FLOWS: "AlternateFlows",
    SectionKind.EXCEPTION_FLOWS: "ExceptionFlows",
}


def _rel_line(d: UseCaseDescription, kind: SectionKind, line: int) -> int:
    """Line number within the section (1 = first content line)."""
    header = d.section_header_lines.get(kind, 0)
    if header and line > header:
        return line - header
    return line


def detect(
    d: UseCaseDescription, cfg: DetectorConfig, lex: Lexicon
) -> list[Finding]:
    """Tag d with lex, then run every enabled detection rule and return
    the ordered findings. Tags from an earlier analysis are replaced."""
    analyze_document(d, lex)

    enabled = cfg.enabled_ids()
    findings: list[Finding] = []
    add = findings.append

    # Lack/Section: missing sections.
    for smell_id, kind, predicate in _MISSING_SECTION_SMELLS:
        if smell_id in enabled and not d.section_present(kind):
            add(
                Finding(
                    smell_id=smell_id,
                    item_name=kind.title,
                    metric=predicate,
                    line=0,
                    evidence=SentenceEvidence(kind.title),
                )
            )

    # Ambiguity/Section: unordered flows and origin-free branch flows.
    for kind in _FLOW_SECTIONS:
        if not d.section_present(kind):
            continue
        prefix = _SECTION_PREFIX[kind]
        if kind is SectionKind.BASIC_FLOW:
            flows = [d.basic_flow]
        else:
            flows = d.branch_flows(kind)
        for flow in flows:
            if "unordered-flow" in enabled:
                failing = None
                if metrics.flow_numbered(flow):
                    failing = f"{prefix}Numbered?"
                elif metrics.flow_ordered(flow):
                    failing = f"{prefix}Ordered?"
                elif metrics.flow_starts_with_1(flow):
                    failing = f"{prefix}StartWith1?"
                if failing is not None:
                    add(_flow_finding(d, "unordered-flow", kind, flow, failing))
        if kind is SectionKind.BASIC_FLOW:
            continue
        smell = (
            "origin-free-alternate-flow"
            if kind is SectionKind.ALTERNATE_FLOWS
            else "origin-free-exception-flow"
        )
        if smell in enabled:
            for flow in d.branch_flows(kind):
                if not metrics.branch_origin_described(flow):
                    add(
                        _flow_finding(
                            d, smell, kind, flow, f"{prefix}OriginDescribed?"
                        )
                    )

    # Lack/Sentence: branch flows without return or reason.
    for kind, without_return, unexplained in (
        (
            SectionKind.ALTERNATE_FLOWS,
            "alternate-flow-without-return",
            "unexplained-alternate-flow",
        ),
        (
            SectionKind.EXCEPTION_FLOWS,
            "exception-flow-without-return",
            "unexplained-exception-flow",
        ),
    ):
        prefix = _SECTION_PREFIX[kind]
        for flow in d.branch_flows(kind):
            if without_return in enabled and not metrics.branch_return_exists(flow):
                sent = _last_sentence(flow)
                add(
                    Finding(
                        smell_id=without_return,
                        item_name=kind.title,
                        metric=f"{prefix}ReturnExist?",
                        line=_rel_line(d, kind, sent.line if sent else 0),
                        evidence=SentenceEvidence(sent.text if sent else flow.id),
                        span=sent.span if sent else flow.span,
                    )
                )
            if unexplained in enabled and not metrics.branch_reason_exists(flow):
                sent = _first_sentence(flow)
                add(
                    Finding(
                        smell_id=unexplained,
                        item_name=kind.title,
                        metric=f"{prefix}ReasonExist?",
                        line=_rel_line(
                            d, kind, sent.line if sent else flow.span.line
                        ),
                        evidence=SentenceEvidence(sent.text if sent else flow.id),
                        span=sent.span if sent else flow.span,
                    )
                )

    # Granularity/Section: several flows sharing one branch condition.
    for kind, smell, metric_name in (
        (
            SectionKind.ALTERNATE_FLOWS,
            "multiple-alternate-flows-at-an-alternate-branch-condition",
            "NOAFR",
        ),
        (
            SectionKind.EXCEPTION_FLOWS,
            "multiple-exception-flows-at-an-exception-branch-condition",
            "NOEFR",
        ),
    ):
        if smell not in enabled:
            continue
        for _, flows in metrics.reason_groups(d.branch_flows(kind)):
            if len(flows) < cfg.same_reason_threshold:
                continue
            items = [f.id for f in flows]
            for f in flows:
                items.extend(
                    s.text for step in f.steps for s in step.sentences
                )
            first = flows[0]
            add(
                Finding(
                    smell_id=smell,
                    item_name=kind.title,
                    metric=metric_name,
                    line=_rel_line(d, kind, first.span.line),
                    evidence=FlowEvidence(tuple(items)),
                    span=first.span,
                )
            )

    # Word- and sentence-scope rules over every sentence.
    sentences = list(d.iter_sentences())
    suppress_actor = (
        cfg.suppress_actor_word_when_single_actor
        and d.actors is not None
        and len(d.actors) == 1
    )
    for kind, s in sentences:
        line = _rel_line(d, kind, s.line)
        if "pronoun" in enabled:
            for tok in s.tokens:
                if tok.pos is PosTag.PRONOUN:
                    add(
                        Finding(
                            smell_id="pronoun",
                            item_name=kind.title,
                            metric="NOP",
                            line=line,
                            evidence=WordEvidence(tok.surface),
                            span=tok.span,
                        )
                    )
        if "actor-actor" in enabled and not suppress_actor:
            for tok in s.tokens:
                if (
                    tok.pos is PosTag.NOUN
                    and tok.surface.lower() == ACTOR_WORD
                ):
                    add(
                        Finding(
                            smell_id="actor-actor",
                            item_name=kind.title,
                            metric=f'NON("{ACTOR_WORD}")',
                            line=line,
                            evidence=WordEvidence(tok.surface),
                            span=tok.span,
                        )
                    )
        if (
            "sentence-with-multiple-actions" in enabled
            and metrics.NOV(s) >= cfg.multi_action_verb_threshold
        ):
            add(_sentence_finding("sentence-with-multiple-actions", kind, s, "NOV", line))
        if "repeating-the-same-noun" in enabled:
            counts: dict[str, int] = {}
            for tok in s.tokens:
                if tok.pos is PosTag.NOUN:
                    counts[tok.surface.lower()] = counts.get(tok.surface.lower(), 0) + 1
            for noun, n in counts.items():
                if n >= cfg.repeated_noun_threshold:
                    add(
                        _sentence_finding(
                            "repeating-the-same-noun", kind, s, f'NON("{noun}")', line
                        )
                    )

    # Granularity/Sentence: distribution-based thresholds.
    findings.extend(_distribution_findings(d, cfg, enabled, sentences))

    findings.sort(
        key=lambda f: (_item_order(f.item_name), f.line, f.smell_id, f.span.start)
    )
    return findings


def _distribution_findings(d, cfg, enabled, sentences) -> list[Finding]:
    out: list[Finding] = []
    if len(sentences) < cfg.min_sentences_for_distribution:
        return out
    for values, high_smell, low_smell, metric_name in (
        (
            [len(s.tokens) if cfg.count_los_in_tokens else metrics.LOS(s) for _, s in sentences],
            "long-sentence",
            "short-sentence",
            "LOS",
        ),
        (
            [metrics.NOM(s) for _, s in sentences],
            "relatively-over-qualified-sentence",
            "relatively-under-qualified-sentence",
            "NOM",
        ),
    ):
        dist = distribution(values)
        hi = dist.mean + cfg.stddev_k * dist.stddev
        lo = dist.mean - cfg.stddev_k * dist.stddev
        for (kind, s), v in zip(sentences, values):
            line = _rel_line(d, kind, s.line)
            if v > hi and high_smell in enabled:
                out.append(_sentence_finding(high_smell, kind, s, metric_name, line))
            elif v < lo and low_smell in enabled:
                out.append(_sentence_finding(low_smell, kind, s, metric_name, line))
    return out


def _sentence_finding(smell_id, kind, s: Sentence, metric_name, line) -> Finding:
    return Finding(
        smell_id=smell_id,
        item_name=kind.title,
        metric=metric_name,
        line=line,
        evidence=SentenceEvidence(s.text),
        span=s.span,
    )


def _flow_finding(d, smell_id, kind, flow, metric_name) -> Finding:
    texts = [s.text for step in flow.steps for s in step.sentences]
    if isinstance(flow, BranchFlow):
        items = (flow.id, *texts)
        span = flow.span
    else:
        items = tuple(texts)
        span = flow.steps[0].span if flow.steps else SourceSpan(0, 0, 0)
    return Finding(
        smell_id=smell_id,
        item_name=kind.title,
        metric=metric_name,
        line=_rel_line(d, kind, span.line),
        evidence=FlowEvidence(items),
        span=span,
    )


def _first_sentence(flow: BranchFlow) -> Optional[Sentence]:
    for step in flow.steps:
        for s in step.sentences:
            return s
    return None


def _last_sentence(flow: BranchFlow) -> Optional[Sentence]:
    sent = None
    for step in flow.steps:
        for s in step.sentences:
            sent = s
    return sent


_ITEM_ORDER = {
    kind.title: i
    for i, kind in enumerate(
        sorted(SectionKind, key=section_index), start=0
    )
}


def _item_order(item_name: str) -> int:
    return _ITEM_ORDER.get(item_name, len(_ITEM_ORDER))
