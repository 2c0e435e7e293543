"""Randomized properties. Example counts across this module exceed 1000."""

import math
import re
import statistics
import sys
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ucsmell.metrics import LOS, NOAFR, NON, NOW, distribution, normalize_reason
from ucsmell.model import (
    BranchFlow,
    Flow,
    PosTag,
    Sentence,
    SourceSpan,
    Step,
    UseCaseDescription,
)
from ucsmell.parser import (
    _SENT_SPLIT_RE,
    parse_json,
    parse_text,
    serialize,
    split_sentences,
)
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


def _reference_normalize_reason(text):
    t = re.sub(r"\s+", " ", text.casefold().strip())
    t = re.sub(r"^(if|when)\s+", "", t)
    return t.rstrip(".!?,;: ")


# Conditions built from if/when in any case, runs of Unicode whitespace,
# letters that casefold to more than one character (İ, ß, ﬁ) and the
# trailing punctuation normalize_reason strips.
_REASON_SPACES = " \t\n\x1c\xa0\u2028\u3000"
_reason_keyword = st.sampled_from(["if", "when"]).flatmap(
    lambda w: st.tuples(*(st.sampled_from([c, c.upper()]) for c in w)).map("".join)
)
reason_st = st.lists(
    st.one_of(
        _reason_keyword,
        st.text(alphabet=_REASON_SPACES, min_size=1, max_size=3),
        st.text(alphabet="afwİßﬁ.!?,;:", min_size=1, max_size=4),
    ),
    max_size=8,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=reason_st)
def test_normalize_reason_matches_its_pattern_form(text):
    assert normalize_reason(text) == _reference_normalize_reason(text)


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=80), offset=st.integers(min_value=0, max_value=50))
def test_tokenize_spans_slice_back_to_surfaces(text, offset):
    s = Sentence(text, span=SourceSpan(offset, offset + len(text)))
    analyze_sentence(s, LEXICON)
    for tok in s.tokens:
        assert text[tok.span.start - offset : tok.span.end - offset] == tok.surface


@settings(max_examples=150, deadline=None)
@given(block=st.text(alphabet="abc d.!?\n", max_size=80))
def test_split_sentences_offsets_and_substrings(block):
    for text, off in split_sentences(block):
        assert text == text.strip() and text
        assert block[off : off + len(text)] == text


# The sentence splitter before its one-sentence shortcut: the pattern alone.
def _split_by_pattern(block):
    out = []
    pos = 0
    for m in _SENT_SPLIT_RE.finditer(block):
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


# The splitter's pattern before it knew dotted words and abbreviations.
_EARLIER_SPLIT_RE = re.compile(r"(?<!\d)[.!?]+(?!\d)|[.!?]+(?=\s|$)(?!\s*\d)|\n")
_ABBREVIATION_END_RE = re.compile(r"\b(?:e\.g|i\.e|etc|mrs?|dr|vs|approx)$", re.IGNORECASE)
_DOTTED = ["e.g.", "i.e.", "etc.", "Mr.", "Mrs.", "Dr.", "vs.", "approx.", "E.G.",
           "e.g.,", "(i.e.", "audit.txt", "www.example.com", "v2.1.3", "a.b"]


@settings(max_examples=500, deadline=None)
@given(block=st.lists(
    st.tuples(  # a word, a run of terminators, a blank; the last two may be empty
        st.sampled_from(["a", "1", "A", "\u00fc", *_DOTTED]),
        st.sampled_from(["", ".", "!", "?", "..", "?!"]),
        st.sampled_from(["", " ", "\t", "\n"]),
    ).map("".join),
    max_size=12,
).map("".join))
def test_split_sentences_keeps_every_earlier_split_before_a_blank(block):
    # Each sentence the earlier pattern ended at a terminator before a
    # blank or the end still ends there, unless the terminator closes a
    # listed abbreviation.
    ends = {off + len(text) for text, off in split_sentences(block)}
    for m in _EARLIER_SPLIT_RE.finditer(block):
        if block[m.end() - 1] == "\n" or block[m.end():m.end() + 1].strip():
            continue
        if not _ABBREVIATION_END_RE.search(block, 0, m.start()):
            assert m.end() in ends


_lower_word_st = st.one_of(
    st.sampled_from(["the", "clerk", "pays", "20", "\u00fcber", "it"]),
    st.text(alphabet="abcxyz", min_size=1, max_size=6),
)


@settings(max_examples=500, deadline=None)
@given(
    words=st.lists(_lower_word_st, min_size=1, max_size=8),
    end=st.sampled_from(["", ".", "!", "?", "..."]),
    dotted=st.sampled_from(_DOTTED),
    data=st.data(),
)
def test_an_abbreviation_or_dotted_word_adds_no_sentence(words, end, dotted, data):
    # Inserted anywhere before the last word of a sentence of lowercase
    # words, so an "etc." is never followed by a capital.
    i = data.draw(st.integers(min_value=0, max_value=len(words) - 1))
    sentence = " ".join(words) + end
    inserted = " ".join([*words[:i], dotted, *words[i:]]) + end
    assert len(split_sentences(sentence)) == 1
    assert split_sentences(inserted) == [(inserted, 0)]


@st.composite
def _mixed_source_st(draw):
    """A .ucd source whose lines are ASCII or not, line by line."""
    # Bodies of one sentence or several: terminators inside the body, some
    # in digit contexts where they do not split.
    words = ["ab", "step 2.", "A1.1", "b. a", "1.5", "a!", "b?", "\u00e4."]
    body = st.one_of(
        st.text(alphabet="ab 1.!?\u00e4\u20ac\U0001f600", min_size=1, max_size=30),
        st.lists(st.sampled_from(words), min_size=1, max_size=5).map(" ".join),
    )
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
def test_parse_text_spans_slice_the_source(source):
    doc, _ = parse_text(source)
    lines = source.split("\n")
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)

    def text_at(span):
        line_start = starts[span.line - 1]
        assert line_start <= span.start <= span.end <= starts[span.line] - 1
        text = source[span.start : span.end]
        assert text == lines[span.line - 1][span.start - line_start : span.end - line_start]
        return text

    for _, s in doc.iter_sentences():
        assert text_at(s.span) == s.text
    steps = doc.basic_flow.steps + doc.alternate_flows[0].steps
    for item in steps + doc.alternate_flows:
        text = text_at(item.span)
        assert text and text == text.strip()
    # A step's sentences are the splitter's, shifted to where its text
    # starts: after the label, its terminator if any and the blanks.
    for step in steps:
        line = text_at(step.span)
        lead = 0
        if step.label is not None:
            lead = re.match(re.escape(step.label) + r"[.)]?\s+", line).end()
        base = step.span.start + lead
        got = [(s.text, s.span.start - base) for s in step.sentences]
        assert got == split_sentences(line[lead:])


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
        flow.origin = str(draw(st.integers(1, 20)))
    if draw(st.booleans()):
        flow.return_to = draw(
            st.one_of(st.just("end"), st.integers(1, 20).map(str))
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
