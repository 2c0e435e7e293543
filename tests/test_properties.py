"""Randomized properties. Example counts across this module exceed 1000."""

import math
import re
import statistics
import sys
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ucsmell.engine import distribution
from ucsmell.metrics import LOS, NOAFR, NON, NOW, normalize_reason
from ucsmell.model import (
    BranchFlow,
    Flow,
    PosTag,
    SectionKind,
    Sentence,
    SourceSpan,
    Step,
    StepRef,
    UseCaseDescription,
)
from ucsmell.parser import parse_json, parse_text, serialize, split_sentences
from ucsmell.textanalysis import analyze_sentence, load_lexicon

LEXICON = load_lexicon()

# Sampling both lexicon words and arbitrary letter strings exercises every
# tagger branch.
_LEXICON_WORDS = sorted(
    set(LEXICON.pronouns) | set(LEXICON.verbs) | set(LEXICON.modifiers)
    | set(LEXICON.stopwords)
)
word_st = st.one_of(
    st.sampled_from(_LEXICON_WORDS),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=10),
)
sentence_st = st.lists(word_st, min_size=1, max_size=12).map(" ".join)


@settings(max_examples=250, deadline=None)
@given(text=sentence_st)
def test_now_at_least_non(text):
    s = Sentence(text=text)
    analyze_sentence(s, LEXICON)
    for tok in s.tokens:
        assert NOW(s, tok.surface) >= NON(s, tok.surface)


@settings(max_examples=150, deadline=None)
@given(text=sentence_st)
def test_pos_counts_partition_tokens(text):
    s = Sentence(text=text)
    analyze_sentence(s, LEXICON)
    tokens = s.tokens
    counts = Counter(t.pos for t in tokens)
    assert set(counts) <= set(PosTag)
    assert sum(counts[pos] for pos in PosTag) == len(tokens)


@settings(max_examples=200, deadline=None)
@given(
    conditions=st.lists(
        st.one_of(st.none(), st.text(alphabet="abcxyz ", min_size=1)),
        max_size=10,
    )
)
def test_reason_groups_conserve_flow_count(conditions):
    flows = [
        BranchFlow(
            id=f"A{i}",
            condition=Sentence(text=c) if c is not None else None,
        )
        for i, c in enumerate(conditions, 1)
    ]
    doc = UseCaseDescription(alternate_flows=flows)
    grouped = sum(n for _, n in NOAFR(doc))
    with_condition = sum(1 for c in conditions if c is not None)
    assert grouped == with_condition


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=500), min_size=1))
def test_distribution_matches_statistics_oracle(values):
    d = distribution(values)
    assert d.n == len(values)
    expected_sd = statistics.stdev(values) if len(values) > 1 else 0.0
    if sys.version_info >= (3, 11):  # stdev is correctly rounded from 3.11
        assert (d.mean, d.stddev) == (statistics.fmean(values), expected_sd)
    else:
        assert abs(d.mean - statistics.fmean(values)) < 1e-9
        assert abs(d.stddev - expected_sd) < 1e-9


def _neighbours(x: float) -> tuple[Fraction, Fraction]:
    return (
        Fraction(math.nextafter(x, -math.inf)),
        Fraction(math.nextafter(x, math.inf)),
    )


@settings(max_examples=500, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=200
    )
)
def test_distribution_is_correctly_rounded(values):
    d = distribution(values)
    n = len(values)
    # The mean: no neighbour of the float lies nearer the exact mean.
    mean = Fraction(sum(values), n)
    assert all(abs(Fraction(d.mean) - mean) <= abs(nb - mean)
               for nb in _neighbours(d.mean))
    if n == 1:
        assert d.stddev == 0.0
        return
    # The stddev: the exact variance lies between the squares of the
    # midpoints from the float to its neighbours.
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    if variance == 0:
        assert d.stddev == 0.0
        return
    sd = Fraction(d.stddev)
    below, above = _neighbours(d.stddev)
    assert ((below + sd) / 2) ** 2 <= variance <= ((sd + above) / 2) ** 2


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet="abc XY.!?,;", max_size=60))
def test_normalize_reason_idempotent_and_case_insensitive(text):
    once = normalize_reason(text)
    assert normalize_reason(once) == once
    assert normalize_reason(text.upper()) == normalize_reason(text.lower())


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=80), offset=st.integers(min_value=0, max_value=50))
def test_tokenize_spans_slice_back_to_surfaces(text, offset):
    raw = text.encode("utf-8")
    s = Sentence(text, span=SourceSpan(offset, offset + len(raw)))
    analyze_sentence(s, LEXICON)
    for tok in s.tokens:
        piece = raw[tok.span.start - offset : tok.span.end - offset]
        assert piece.decode("utf-8") == tok.surface


@settings(max_examples=150, deadline=None)
@given(block=st.text(alphabet="abc d.!?\n", max_size=80))
def test_split_sentences_offsets_and_substrings(block):
    for text, off in split_sentences(block):
        assert text == text.strip() and text
        assert block[off : off + len(text)] == text


# The sentence splitter before its one-sentence shortcut: the pattern alone.
_REFERENCE_SPLIT_RE = re.compile(r"(?<!\d)[.!?]+(?!\d)|[.!?]+(?=\s|$)(?!\s*\d)|\n")


def _split_by_pattern(block):
    out = []
    pos = 0
    for m in _REFERENCE_SPLIT_RE.finditer(block):
        piece = block[pos : m.end()]
        if piece.strip():
            lead = len(piece) - len(piece.lstrip())
            out.append((piece.strip(), pos + lead))
        pos = m.end()
    tail = block[pos:]
    if tail.strip():
        lead = len(tail) - len(tail.lstrip())
        out.append((tail.strip(), pos + lead))
    return out


_space_st = st.text(alphabet=" \t\r\n\u00a0\x1f", max_size=3)
_split_block_st = st.one_of(
    st.text(alphabet="ab19\u00fc\u00df.!? \t\r\n\u00a0", max_size=60),
    # words, a trailing run of terminators, whitespace: the shortcut's case
    st.builds(
        lambda lead, body, run, trail: lead + body + run + trail,
        _space_st,
        st.text(alphabet="ab19\u00fc\u00df \t\r", max_size=30),
        st.text(alphabet=".!?", max_size=3),
        _space_st,
    ),
)


@settings(max_examples=500, deadline=None)
@given(block=_split_block_st)
def test_split_sentences_equals_the_pattern_alone(block):
    assert split_sentences(block) == _split_by_pattern(block)


@st.composite
def _mixed_source_st(draw):
    """A .ucd source whose lines are ASCII or not, line by line."""
    body = st.text(alphabet="ab 1.!?\u00e4\u20ac\U0001f600", min_size=1, max_size=30)
    pad = st.sampled_from(["", " ", "\t", " \u00a0"])
    lines = ["Preconditions:"]
    lines += [draw(pad) + draw(body) for _ in range(draw(st.integers(0, 2)))]
    lines.append("Basic Flow:")
    lines += [f"{draw(pad)}{i}. {draw(body)}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    lines += ["Alternate Flows:", f"{draw(pad)}A1 If {draw(body)}"]
    lines += [f"{draw(pad)}A1.1 {draw(body)}", draw(pad) + draw(body)]
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@settings(max_examples=200, deadline=None)
@given(source=_mixed_source_st())
def test_parse_text_spans_slice_the_utf8_source(source):
    doc, _ = parse_text(source)
    raw_lines = source.encode("utf-8").split(b"\n")
    starts = [0]
    for raw_line in raw_lines:
        starts.append(starts[-1] + len(raw_line) + 1)

    def text_at(span):
        line_start = starts[span.line - 1]
        assert line_start <= span.start <= span.end <= starts[span.line] - 1
        return raw_lines[span.line - 1][span.start - line_start : span.end - line_start]

    for _, s in doc.iter_sentences():
        assert text_at(s.span).decode("utf-8") == s.text
    steps = doc.basic_flow.steps + doc.alternate_flows[0].steps
    for item in steps + doc.alternate_flows:
        text = text_at(item.span).decode("utf-8")
        assert text and text == text.strip()


@settings(max_examples=100, deadline=None)
@given(text=sentence_st)
def test_los_ignores_surrounding_whitespace(text):
    assert LOS(Sentence(text="  " + text + " ")) == LOS(Sentence(text=text))


# --- structured-document round-trip ---------------------------------------

# Words without vowels cannot spell return phrases ("returns to step n"),
# so generated flows keep exactly the origin/return fields we assign.
_consonant_word = st.text(alphabet="bcdfghjklm", min_size=1, max_size=8)
_plain_sentence = st.lists(_consonant_word, min_size=1, max_size=6).map(" ".join)


def _step(label_and_text):
    label, text = label_and_text
    return Step(label=label, number=None, sentences=[Sentence(text=text)])


step_st = st.tuples(
    st.one_of(st.none(), st.integers(min_value=1, max_value=20).map(str)),
    _plain_sentence,
).map(_step)


@st.composite
def branch_flow_st(draw, prefix):
    index = draw(st.integers(min_value=1, max_value=99))
    flow = BranchFlow(id=f"{prefix}{index}")
    if draw(st.booleans()):
        flow.condition = Sentence(text=draw(_plain_sentence))
    if draw(st.booleans()):
        flow.origin = StepRef(
            SectionKind.BASIC_FLOW, str(draw(st.integers(1, 20)))
        )
    if draw(st.booleans()):
        flow.return_to = StepRef(
            SectionKind.BASIC_FLOW, str(draw(st.integers(1, 20)))
        )
    flow.steps = draw(st.lists(step_st, max_size=4))
    return flow


def _unique_ids(flows):
    return len({f.id for f in flows}) == len(flows)


@st.composite
def document_st(draw):
    doc = UseCaseDescription()
    if draw(st.booleans()):
        doc.name = draw(_plain_sentence)
    if draw(st.booleans()):
        doc.overview = draw(_plain_sentence)
    if draw(st.booleans()):
        doc.preconditions = [
            Sentence(text=t) for t in draw(st.lists(_plain_sentence, max_size=3))
        ]
    if draw(st.booleans()):
        doc.basic_flow = Flow(steps=draw(st.lists(step_st, max_size=5)))
    doc.alternate_flows = draw(
        st.lists(branch_flow_st("A"), max_size=3).filter(_unique_ids)
    )
    doc.exception_flows = draw(
        st.lists(branch_flow_st("E"), max_size=3).filter(_unique_ids)
    )
    return doc


@settings(max_examples=120, deadline=None)
@given(doc=document_st())
def test_serialize_parse_json_round_trip(doc):
    first = serialize(doc)
    parsed, diags = parse_json(first)
    assert parsed is not None, diags
    assert serialize(parsed) == first
    assert parsed == parse_json(serialize(parsed))[0]
