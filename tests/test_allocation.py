"""What a parsed and analyzed document keeps, per step, and what detect and
the report leave behind.

A step keeps three objects the cyclic garbage collector tracks: the Step,
its sentence list and its Sentence (one more Sentence per extra sentence).
Spans are kept as ints and built on read, and what an analysis keeps of a
sentence is one exact tuple of strings and ints, which the collector stops
tracking. Every value read from the compact form must equal a fresh
reference analysis, on both front-ends and on ASCII and non-ASCII text.
Records of one analysis with equal tags hold one string and with equal
nouns one tuple, and nothing of them is kept across analyses, so an
analysis keeps little more than the record tuple per sentence.

A document's findings share one Evidence per quoted text. detect builds
no temporary per finding or sentence that outlives the next one: a list
of tuples freed at once would stay in CPython's tuple free lists, which
only a full collection empties, through the report that follows. A JSON
report is built in one copy, its pieces joined in runs and then the runs,
and written to a stream it is held about one record at a time.
"""

import contextlib
import gc
import io
import tracemalloc
from collections import Counter

import largedoc
import pytest

from ucsmell import report
from ucsmell.engine import DetectorConfig, detect, load_config
from ucsmell.metrics import NOM, NON, NOP, NOV, NOW
from ucsmell.model import PosTag, SourceSpan, Token
from ucsmell.parser import parse_json, parse_text, serialize
from ucsmell.textanalysis import analyze_document, words_tagged

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


@pytest.mark.parametrize("non_ascii", [False, True], ids=["ascii", "non-ascii"])
@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_compact_reads_equal_a_fresh_reference_analysis(lexicon, front_end, non_ascii):
    source = _document(40, non_ascii)
    lines = source.split("\n")
    doc = FRONT_ENDS[front_end](source)
    detect(doc, DetectorConfig(), lexicon)
    sentences = [s for _, s in doc.iter_sentences()]
    assert len(sentences) == 59
    for s in sentences:
        if front_end == "text":
            assert s.span.line == s.line > 0
            assert source[s.span.start : s.span.end] == s.text
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
            assert all(source[t.span.start : t.span.end] == t.surface for t in s.tokens)
    for step in _steps(doc):
        if front_end == "text":
            text = source[step.span.start : step.span.end]
            assert text == lines[step.span.line - 1].strip()
        else:
            assert step.span == (0, 0, 0)


def _large_findings(lexicon):
    return detect(parse_text(largedoc.generate(1, 1000).text)[0], DetectorConfig(), lexicon)


@contextlib.contextmanager
def _traced():
    """tracemalloc on for the block; left on if it already was."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        yield
    finally:
        if not tracing:
            tracemalloc.stop()


def _peak_above_start(emit, arg):
    """The tracemalloc peak of emit(arg) above the level it starts at, and
    the length of the text it returns."""
    gc.collect()
    with _traced():
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = emit(arg)
        return tracemalloc.get_traced_memory()[1] - start, len(out)


# The pieces of a report take about as much as the report, so building it
# in one copy peaks near twice its length; a second copy of the whole
# report (a join, then brackets added to it) peaks near three times.
_EMIT_PEAK_PER_CHAR = 2.5
# emit_json joins its pieces in runs, then the runs: its last join holds a
# str header per run, not one per record (2.01 times on the large
# document, 2.24 when it joined all its pieces at once).
_EMIT_RUNS_PEAK_PER_CHAR = 2.1


def test_emit_json_builds_the_report_in_one_copy(lexicon):
    findings = _large_findings(lexicon)
    peak, length = _peak_above_start(report.emit_json, findings)
    assert length > 50_000 and peak <= _EMIT_RUNS_PEAK_PER_CHAR * length


def test_emit_json_files_builds_the_report_in_one_copy(lexicon):
    findings = _large_findings(lexicon)
    per_file = [(f"doc{i}.ucd", findings) for i in range(3)]
    peak, length = _peak_above_start(report.emit_json_files, per_file)
    assert length > 150_000 and peak <= _EMIT_PEAK_PER_CHAR * length


def test_findings_quoting_equal_text_share_one_evidence(lexicon):
    doc = parse_text(largedoc.generate(1, 1000).text)[0]
    first = detect(doc, DetectorConfig(), lexicon)
    held: dict = {}
    for f in first:
        held.setdefault(f.evidence.text, set()).add(id(f.evidence))
    assert len(held) < len(first) / 2  # most findings quote a text again
    assert all(len(ids) == 1 for ids in held.values())
    # A second call builds its own: nothing is kept across calls.
    second = detect(doc, DetectorConfig(), lexicon)
    assert second == first
    assert not {id(f.evidence) for f in first} & {id(f.evidence) for f in second}


# What detect may leave in CPython's free lists, which a full collection
# empties: up to the 80 dicts of the dict free list, and a few tuples. A
# key tuple per finding for the sort, or a list of (i, words) pairs freed
# at once, left 66 KB on the 1 000-step document and 262 KB on 10 000.
_FREE_LIST_RESIDUE = 16 * 1024


@pytest.mark.parametrize("config", [None, "thresholds.cfg"], ids=["default", "thresholds"])
@pytest.mark.parametrize("steps", [1000, 10000])
def test_detect_leaves_little_in_the_free_lists(lexicon, fixtures_dir, steps, config):
    cfg = load_config(str(fixtures_dir / config)) if config else DetectorConfig()
    text = largedoc.generate(1, steps).text
    detect(parse_text(text)[0], cfg, lexicon)  # fills first-use caches
    doc = parse_text(text)[0]
    gc.collect()
    with _traced():
        findings = detect(doc, cfg, lexicon)
        after = tracemalloc.get_traced_memory()[0]
        gc.collect()
        residue = after - tracemalloc.get_traced_memory()[0]
    assert len(findings) > 300
    assert residue <= _FREE_LIST_RESIDUE


class _Discard(io.TextIOBase):
    """A text stream that drops what it is written."""

    length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)


@pytest.mark.parametrize("by_path", [False, True], ids=["one-file", "by-path"])
def test_writing_the_report_holds_about_one_record(lexicon, by_path):
    findings = _large_findings(lexicon)
    if by_path:
        pieces, arg = report.json_files_pieces, [(f"doc{i}.ucd", findings) for i in range(3)]
        emitted = report.emit_json_files(arg)
    else:
        pieces, arg = report.json_pieces, findings
        emitted = report.emit_json(findings)
    # One flow finding quotes all 1 000 steps: a record can be most of the
    # report, so a flow is written a sentence at a time.
    assert max(len(f.evidence.text) for f in findings) == 1000
    assert "".join(pieces(arg)) == emitted
    _Discard().writelines(pieces(arg))  # a first call sets up its frame (3.10)
    out = _Discard()
    peak, _ = _peak_above_start(lambda arg: out.writelines(pieces(arg)) or "", arg)
    assert out.length == len(emitted) > 50_000
    assert peak < 0.02 * out.length


def _records(doc):
    return [s._tagged for _, s in doc.iter_sentences()]


@pytest.mark.parametrize("non_ascii", [False, True], ids=["ascii", "non-ascii"])
@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_equal_tags_and_nouns_are_one_object(lexicon, front_end, non_ascii):
    parse = FRONT_ENDS[front_end]
    source = _document(40, non_ascii)
    first, second = parse(source), parse(source)
    analyze_document(first, lexicon)
    analyze_document(second, lexicon)
    for doc in (first, second):
        held: dict = {}
        for _, _, _, tags, nouns in _records(doc):
            held.setdefault(tags, set()).add(id(tags))
            if nouns:
                held.setdefault(nouns, set()).add(id(nouns))
        assert len(held) < len(_records(doc))  # tags and nouns repeat
        assert all(len(ids) == 1 for ids in held.values())
    # Shared within one analysis only: none is kept for the next. (CPython
    # keeps one object per one-character string, so one code is exempt.)
    pairs = list(zip(_records(first), _records(second)))
    assert not any(a[3] is b[3] for a, b in pairs if len(a[3]) > 1)
    assert not any(a[4] is b[4] for a, b in pairs if a[4])


# What an analysis keeps of a large document's sentence: a record tuple
# of five fields, with its tags and nouns shared (198 bytes when each
# record held its own).
_KEPT_PER_SENTENCE = 130


def test_analysis_keeps_little_per_sentence(lexicon):
    text = largedoc.generate(1, 1000).text
    # Fills the lexicon's rows for this vocabulary, which every later
    # analysis reuses; the sharing of tags and nouns holds nothing past a call.
    analyze_document(parse_text(text)[0], lexicon)
    doc = parse_text(text)[0]
    sentences = sum(1 for _ in doc.iter_sentences())
    gc.collect()
    with _traced():
        start = tracemalloc.get_traced_memory()[0]
        analyze_document(doc, lexicon)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    assert sentences > 1000 and kept <= _KEPT_PER_SENTENCE * sentences
