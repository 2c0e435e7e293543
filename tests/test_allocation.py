"""What a parsed and analyzed document keeps, per step.

A step keeps three objects the cyclic garbage collector tracks: the Step,
its sentence list and its Sentence (one more Sentence per extra sentence).
Spans are kept as ints and built on read, and what an analysis keeps of a
sentence is one exact tuple of strings and ints, which the collector stops
tracking. Every value read from the compact form must equal a fresh
reference analysis, on both front-ends and on ASCII and non-ASCII text.
"""

import gc
from collections import Counter

import pytest

from ucsmell.engine import DetectorConfig, detect
from ucsmell.metrics import NOM, NON, NOP, NOV, NOW
from ucsmell.model import PosTag, SourceSpan, Token
from ucsmell.parser import parse_json, parse_text, serialize
from ucsmell.textanalysis import words_tagged

from test_tagging_reference import ref_analyze

# One step template per index modulo 4; the fourth has two sentences.
_ASCII_STEPS = (
    "The clerk checks the record {i} of the batch.",
    "It stores the user's card in the archive.",
    "The actor quickly opens the new form {i}.",
    "The system prints the report. Then it closes the log-in page.",
)
_NON_ASCII_STEPS = (
    "The clerk files the résumé {i} and the réservation.",
    "It stores the customer’s card at the clerk’s desk.",
    "The actor quickly opens the naïve café form {i}.",
    "Der Kunde zahlt an der Kasse. Then it closes the ÉTÉ page.",
)


def _document(steps: int, non_ascii: bool) -> str:
    templates = _NON_ASCII_STEPS if non_ascii else _ASCII_STEPS
    basic = "".join(
        f"{i}. {templates[i % 4].format(i=i)}\n" for i in range(1, steps + 1)
    )
    return (
        "Name: File a record\nOverview: A clerk files records.\n"
        "Actors:\nClerk - files the records\n"
        f"Preconditions:\n{templates[0].format(i=0)}\n"
        "Postconditions:\nThe record is filed.\n"
        f"Basic Flow:\n{basic}"
        "Alternate Flows:\nA1 If the card is invalid at step 2\n"
        f"A1.1 {templates[1]}\nA1.2 The use case returns to step 3.\n"
        "Exception Flows:\nE1 When the archive is locked at step 3\n"
        f"E1.1 {templates[3]}\nE1.2 The use case ends.\n"
    )


def _text(source):
    return parse_text(source)[0]


def _json(source):
    return parse_json(serialize(parse_text(source)[0]))[0]


FRONT_ENDS = {"text": _text, "json": _json}


def _steps(doc):
    yield from doc.basic_flow.steps
    for flow in doc.alternate_flows + doc.exception_flows:
        yield from flow.steps


def _kept(source, front_end, lexicon):
    """The analyzed document, and the tracked objects it keeps by type."""
    gc.collect()
    gc.collect()
    before = Counter(type(o).__name__ for o in gc.get_objects())
    doc = front_end(source)
    detect(doc, DetectorConfig(), lexicon)
    # Tuples the collector can untrack are untracked once it has seen them.
    gc.collect()
    gc.collect()
    after = Counter(type(o).__name__ for o in gc.get_objects())
    after.subtract(before)
    return doc, +after


@pytest.mark.parametrize("non_ascii", [False, True], ids=["ascii", "non-ascii"])
@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_each_step_keeps_three_tracked_objects(lexicon, front_end, non_ascii):
    parse = FRONT_ENDS[front_end]
    _kept(_document(10, non_ascii), parse, lexicon)  # fills first-use caches
    small, kept_small = _kept(_document(100, non_ascii), parse, lexicon)
    big, kept_big = _kept(_document(200, non_ascii), parse, lexicon)
    steps = len(big.basic_flow.steps) - len(small.basic_flow.steps)
    sentences = sum(1 for _ in big.iter_sentences()) - sum(
        1 for _ in small.iter_sentences()
    )
    assert (steps, sentences) == (100, 125)
    kept_big.subtract(kept_small)
    per_step = +kept_big
    # The Step, its sentence list and its Sentences; no span or analysis
    # record stays tracked.
    assert per_step == Counter(Step=steps, list=steps, Sentence=sentences)
    assert 3 * steps <= sum(per_step.values()) == 2 * steps + sentences


@pytest.mark.parametrize("non_ascii", [False, True], ids=["ascii", "non-ascii"])
@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_no_record_holds_a_span_object(lexicon, front_end, non_ascii):
    doc = FRONT_ENDS[front_end](_document(40, non_ascii))
    detect(doc, DetectorConfig(), lexicon)
    records = [s for _, s in doc.iter_sentences()] + list(_steps(doc))
    records += doc.alternate_flows + doc.exception_flows
    for record in records:
        assert not any(isinstance(o, SourceSpan) for o in gc.get_referents(record))
        assert type(record.span) is SourceSpan


def _utf8_slice(source: bytes, span) -> str:
    return source[span.start : span.end].decode("utf-8")


@pytest.mark.parametrize("non_ascii", [False, True], ids=["ascii", "non-ascii"])
@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_compact_reads_equal_a_fresh_reference_analysis(lexicon, front_end, non_ascii):
    source = _document(40, non_ascii)
    raw = source.encode("utf-8")
    lines = source.split("\n")
    doc = FRONT_ENDS[front_end](source)
    detect(doc, DetectorConfig(), lexicon)
    sentences = [s for _, s in doc.iter_sentences()]
    assert len(sentences) == 59
    for s in sentences:
        if front_end == "text":
            assert s.span.line == s.line > 0
            assert _utf8_slice(raw, s.span) == s.text
        else:
            assert s.span == (0, 0, 0) and s.line == 0
        ref = ref_analyze(s.text, s.span.start, s.line, lexicon)
        nouns = tuple(w.lower() for w, p, *_ in ref if p is PosTag.NOUN)
        counts = Counter(p for _, p, *_ in ref)
        assert (NOP(s), NOV(s), NOM(s), len(s._tagged[3])) == (
            counts[PosTag.PRONOUN], counts[PosTag.VERB], counts[PosTag.MODIFIER],
            len(ref),
        )
        assert s._tagged[4] == nouns
        for word in {w for w, *_ in ref}:
            assert NON(s, word) == nouns.count(word.lower())
            assert NOW(s, word) == sum(w.lower() == word.lower() for w, *_ in ref)
        for pos in PosTag:
            assert words_tagged(s, pos) == [
                (w, SourceSpan(start, end, line))
                for w, p, start, end, line in ref if p is pos
            ]
        assert s.tokens == [
            Token(w, p, SourceSpan(start, end, line)) for w, p, start, end, line in ref
        ]
        if front_end == "text":
            assert all(_utf8_slice(raw, t.span) == t.surface for t in s.tokens)
    for step in _steps(doc):
        if front_end == "text":
            assert _utf8_slice(raw, step.span) == lines[step.span.line - 1].strip()
        else:
            assert step.span == (0, 0, 0)
