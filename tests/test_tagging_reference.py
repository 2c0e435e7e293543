"""analyze_sentence against a brute-force copy of the two-pass tagger it
replaced: tokenize the sentence, then classify each word from scratch
with whether it follows a determiner and the modifiers after one, the
previous word's tag and whether a verb was seen. The tokens
built lazily after an analysis, whatever changes in the sentence before
they are read, against the same reference, and the words of each tag
quoted from the analysis against the reference and those tokens. The
word splitter against the pattern it stands for, which on ASCII text
finds what the ASCII-only pattern it replaced found. NOP, NOV, NOM and
NON, and the analysis record's word count, against brute-force counts
over the tokens. Every row of the tagger's table, for every vocabulary
word and suffixed forms of it, against the reference's classification
and state update. A document's analysis against the analysis of each of
its sentences alone."""

import re

import pytest
import seeding
from hypothesis import example, given, settings, strategies as st

from ucsmell.metrics import NOM, NON, NOP, NOV, counted_words
from ucsmell.model import PosTag, Sentence, SourceSpan
from ucsmell.parser import parse_json, parse_text, serialize
from ucsmell.textanalysis import (
    _AFTER_SUBJECT,
    _CODE_OF_TAG,
    _IN_PHRASE,
    _TAG_OF_CODE,
    _VERB_SEEN,
    Lexicon,
    _row_of,
    _spans,
    _verb_stems,
    analyze_document,
    analyze_sentence,
    load_lexicon,
    split_words,
    words_tagged,
)

# Words: "e.g." and "i.e." in any case, with or without the closing '.',
# else letters and digits of any script, each with the combining
# diacritical marks (U+0300-U+036F) after it, joined by hyphens and
# straight or typographic apostrophes. The ASCII-only pattern it replaced
# finds the same words in ASCII text.
_DOTTED = r"(?i:\b(?:e\.g|i\.e)\b\.?)"
_LETTER = r"[^\W_][\u0300-\u036f]*"
_WORD_RE = re.compile(rf"{_DOTTED}|(?:{_LETTER})+(?:['\u2019-](?:{_LETTER})+)*")
_ASCII_WORD_RE = re.compile(rf"{_DOTTED}|[A-Za-z0-9]+(?:['-][A-Za-z0-9]+)*")
_DETERMINERS = {"the", "a", "an"}


def ref_tokenize(text, base_offset):
    """Each word of text with its character offsets, shifted by base_offset."""
    return [
        (m.group(), base_offset + m.start(), base_offset + m.end())
        for m in _WORD_RE.finditer(text)
    ]


def ref_classify(word, after_determiner, prev_tag, verb_seen, lex):
    if word in ("e.g.", "e.g", "i.e.", "i.e"):
        return PosTag.OTHER
    if word in lex.pronouns:
        return PosTag.PRONOUN
    if not after_determiner and any(s in lex.verbs for s in _verb_stems(word)):
        return PosTag.VERB
    if (
        not after_determiner
        and not verb_seen
        and prev_tag in (PosTag.NOUN, PosTag.PRONOUN)
        and word not in lex.stopwords
        and word not in lex.modifiers
    ):
        for suffix in ("s", "ed"):
            if word.endswith(suffix) and len(word) > len(suffix) + 2:
                return PosTag.VERB
    if word in lex.modifiers:
        return PosTag.MODIFIER
    if word.endswith("ly") and len(word) > 4 and word not in lex.stopwords:
        return PosTag.MODIFIER
    if word in lex.stopwords:
        return PosTag.OTHER
    if word.isdigit():
        return PosTag.OTHER
    return PosTag.NOUN


def ref_next(word, pos, after_determiner, verb_seen):
    """(after_determiner, previous tag, verb_seen) after word, tagged pos."""
    # A determiner's noun phrase runs on through the modifiers after it.
    after_determiner = word in _DETERMINERS or (
        after_determiner and pos is PosTag.MODIFIER
    )
    return after_determiner, pos, verb_seen or pos is PosTag.VERB


def ref_analyze(text, base_offset, line, lex):
    out = []
    after_determiner, prev_tag, verb_seen = False, None, False
    for surface, start, end in ref_tokenize(text, base_offset):
        word = surface.lower()
        pos = ref_classify(word, after_determiner, prev_tag, verb_seen, lex)
        out.append((surface, pos, start, end, line))
        after_determiner, prev_tag, verb_seen = ref_next(
            word, pos, after_determiner, verb_seen
        )
    return out


BUNDLED = load_lexicon()
# Overlapping classes (a pronoun that is also a verb, a modifier that is
# also a stopword), which the bundled lexicon never has.
CUSTOM = Lexicon(
    pronouns=frozenset({"it", "they", "frob"}),
    verbs=frozenset({"frob", "show", "carry", "glow", "it"}),
    modifiers=frozenset({"big", "only", "shows"}),
    stopwords=frozenset({"the", "to", "only", "lonely"}),
)

_VOCAB = sorted(
    {w for lex in (BUNDLED, CUSTOM)
     for group in (lex.pronouns, lex.verbs, lex.modifiers, lex.stopwords)
     for w in group}
)
_SUFFIXES = ["", "s", "es", "ies", "ed", "ied", "ly", "ize", "ous", "er"]
_stem = st.text(alphabet="abcdefghijklmnopqrstuvwxyzéü", min_size=1, max_size=7)
_word = st.one_of(
    st.sampled_from(_VOCAB),
    st.sampled_from(["the", "a", "an", "The", "A", "AN"]),
    st.builds(str.__add__, _stem, st.sampled_from(_SUFFIXES)),
    st.integers(min_value=0, max_value=9999).map(str),
    st.sampled_from(
        ["log-in", "user's", "café", "naïve", "straße", "日本", "ÉTÉ", "clerk’s", "o’clock",
         "e.g.", "I.E.", "i.e", "E.g",
         # decomposed (NFD) accents
         "cafe\u0301", "nai\u0308ve", "E\u0301TE\u0301", "l'e\u0301cole", "2\u0300"]
    ),
)
_case = st.sampled_from([str, str.capitalize, str.upper])
_sep = st.sampled_from(
    [" ", ", ", ". ", " - ", "  ", "\t", " — ", "'", "’", "€", "_", " \u0301", "-\u0300 "]
)


@st.composite
def _sentences(draw):
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        parts.append(draw(_case)(draw(_word)))
        parts.append(draw(_sep))
    return "".join(parts)


@settings(max_examples=400, deadline=None)
@given(
    text=_sentences(),
    base=st.integers(min_value=0, max_value=10_000),
    line=st.integers(min_value=0, max_value=500),
    lex=st.sampled_from([BUNDLED, CUSTOM]),
)
# A determiner, modifiers, then a word that is a verb outside the phrase.
@example(text="The customer opened the new search page.", base=0, line=1, lex=BUNDLED)
@example(text="The big only show glows.", base=7, line=2, lex=CUSTOM)
def test_analyze_sentence_matches_reference(text, base, line, lex):
    s = Sentence(text=text, line=line, span=SourceSpan(base, base + len(text)))
    analyze_sentence(s, lex)
    want = ref_analyze(text, base, line, lex)
    got = [(t.surface, t.pos, t.span.start, t.span.end, t.span.line) for t in s.tokens]
    assert got == want
    # The tokens come from the snapshot, which keeps the tags as one
    # string of codes.
    tags = s._tagged[3]
    assert type(tags) is str and len(tags) == len(want)
    assert all(type(t.span) is SourceSpan for t in s.tokens)


@settings(max_examples=300, deadline=None)
@given(
    text=_sentences(),
    base=st.integers(min_value=0, max_value=10_000),
    line=st.integers(min_value=0, max_value=500),
    lex=st.sampled_from([BUNDLED, CUSTOM]),
    change=st.sampled_from(["nothing", "text", "span", "line", "reanalyzed"]),
    other=_sentences(),
)
def test_lazy_tokens_equal_eager_tagging(text, base, line, lex, change, other):
    s = Sentence(text=text, line=line, span=SourceSpan(base, base + len(text)))
    analyze_sentence(s, lex)
    want = ref_analyze(text, base, line, lex)
    # Changing the sentence after its analysis does not change its tokens;
    # analyzing it again, with the other lexicon, replaces them.
    if change == "text":
        s.text = other
    elif change == "span":
        s.span = SourceSpan(base + 3, base + 3 + len(other), line + 1)
    elif change == "line":
        s.line = line + 1
    elif change == "reanalyzed":
        s.text, s.line = other, line + 2
        s.span = SourceSpan(5, 5 + len(other), line + 2)
        other_lex = CUSTOM if lex is BUNDLED else BUNDLED
        analyze_sentence(s, other_lex)
        want = ref_analyze(other, 5, line + 2, other_lex)
    got = [(t.surface, t.pos, t.span.start, t.span.end, t.span.line) for t in s.tokens]
    assert got == want
    assert s.tokens == s.tokens  # every read gives the same tokens


@settings(max_examples=300, deadline=None)
@given(
    text=_sentences(),
    base=st.integers(min_value=0, max_value=10_000),
    line=st.integers(min_value=0, max_value=500),
    lex=st.sampled_from([BUNDLED, CUSTOM]),
)
# A repeated word, found from the end of the one before ("edit" holds
# "it"); commas and runs of spaces; the wanted word last; non-ASCII text,
# precomposed and decomposed.
@example(text="It edits it, then it stops.", base=0, line=1, lex=BUNDLED)
@example(text="The clerk ,  prints   it ,, and  it", base=3, line=2, lex=BUNDLED)
@example(text="The system shows it", base=9, line=4, lex=BUNDLED)
@example(text="Le café’s naïve clerk shows it to the straße.", base=5, line=3, lex=BUNDLED)
@example(text="Le cafe\u0301 shows it to E\u0301TE\u0301, it glows.", base=1, line=1, lex=CUSTOM)
def test_words_tagged_agree_with_tokens(text, base, line, lex):
    s = Sentence(text=text, line=line, span=SourceSpan(base, base + len(text)))
    assert all(words_tagged(s, pos) == [] for pos in PosTag)  # never analyzed
    analyze_sentence(s, lex)
    ref = ref_analyze(text, base, line, lex)
    # Read before the tokens are first built, then after.
    before = {pos: words_tagged(s, pos) for pos in PosTag}
    for pos in PosTag:
        want = [(w, SourceSpan(start, end, ln)) for w, p, start, end, ln in ref if p is pos]
        assert before[pos] == want
        assert all(type(span) is SourceSpan for _, span in before[pos])
        assert [(t.surface, t.span) for t in s.tokens if t.pos is pos] == want
        assert words_tagged(s, pos) == want


@pytest.mark.parametrize(
    "text",
    [
        # a wanted word inside an earlier word
        "Thistle this", "thistle this", "hehe he", "The heater heats he.",
        "It edits it, then it stops it", "He sees it, it, it!",  # repeated
        "it", "It shows the page", "The system shows it",  # first, last, alone
        "The system shows the page.", "", " , ...",  # no wanted word
    ],
)
def test_spans_equal_the_reference(text):
    # Every tag code, and None for every word, on sentences whose wanted
    # words a scan that skipped the words before them would misplace.
    for lex in (BUNDLED, CUSTOM):
        s = Sentence(text, 4, SourceSpan(7, 7 + len(text), 4))
        analyze_sentence(s, lex)
        ref = ref_analyze(text, 7, 4, lex)
        assert _spans(s._tagged, None) == [(w, SourceSpan(a, b, ln)) for w, _, a, b, ln in ref]
        for pos in PosTag:
            want = [(w, SourceSpan(a, b, ln)) for w, p, a, b, ln in ref if p is pos]
            assert _spans(s._tagged, _CODE_OF_TAG[pos]) == want


def _surfaces():
    """Every vocabulary word with each test suffix, as written and capitalized."""
    words = {w + suffix for w in _VOCAB for suffix in _SUFFIXES}
    words |= {"42", "2\u0300", "café", "straße", "e.g.", "i.e."}
    return sorted(words | {w.capitalize() for w in words})


_STATES = [
    (after_determiner, verb_seen, prev_tag)
    for after_determiner in (False, True)
    for verb_seen in (False, True)
    for prev_tag in (None, *PosTag)
]


def _state(after_determiner, verb_seen, prev_tag):
    return (
        _IN_PHRASE * after_determiner
        + _VERB_SEEN * verb_seen
        + _AFTER_SUBJECT * (prev_tag in (PosTag.NOUN, PosTag.PRONOUN))
    )


def test_every_table_row_matches_the_reference():
    for lex in (BUNDLED, CUSTOM):
        for surface in _surfaces():
            row = _row_of(surface, lex)
            word = surface.lower()
            assert len(row) == 9 and row[8] == word
            for after_determiner, verb_seen, prev_tag in _STATES:
                pos = ref_classify(word, after_determiner, prev_tag, verb_seen, lex)
                next_determiner, _, next_verb_seen = ref_next(
                    word, pos, after_determiner, verb_seen
                )
                code, state = row[_state(after_determiner, verb_seen, prev_tag)]
                assert (_TAG_OF_CODE[code], state) == (
                    pos, _state(next_determiner, next_verb_seen, pos)
                ), (surface, after_determiner, verb_seen, prev_tag)


def test_each_lexicon_keeps_its_own_rows():
    surfaces = ["Frobs", "it", "shows", "glows", "the", "Carries"]
    for lex in (BUNDLED, CUSTOM):
        analyze_sentence(Sentence(" ".join(surfaces)), lex)
        assert {w: lex._rows[w] for w in surfaces} == {w: _row_of(w, lex) for w in surfaces}
    assert BUNDLED._rows["Frobs"] != CUSTOM._rows["Frobs"]  # a pronoun in CUSTOM


def _documents(fixtures_dir):
    texts = [p.read_text("utf-8") for p in sorted(fixtures_dir.glob("*.ucd"))]
    texts += [d.text for d in seeding.seeded_documents() + seeding.clean_documents()]
    for text in texts:
        doc = parse_text(text)[0]
        yield doc
        yield parse_json(serialize(doc))[0]


def test_document_analysis_equals_each_sentence_analyzed_alone(fixtures_dir):
    for lex in (BUNDLED, CUSTOM):
        for doc in _documents(fixtures_dir):
            analyze_document(doc, lex)
            whole = [s._tagged for _, s in doc.iter_sentences()]
            assert whole and all(r[3] for r in whole)
            for _, s in doc.iter_sentences():
                analyze_sentence(s, BUNDLED if lex is CUSTOM else CUSTOM)
                analyze_sentence(s, lex)
            assert [s._tagged for _, s in doc.iter_sentences()] == whole


def _filter_after(sentences, noun):
    """counted_words(sentences, noun) as it was first written: every noun
    of a sentence holding noun quoted, then all but noun dropped."""
    return [
        (i, [w for w in words_tagged(s, PosTag.NOUN) if w[0].lower() == noun])
        for i, s in enumerate(sentences)
        if noun in s._tagged[4]
    ]


_MIXED_CASE = [
    "The Actor tells the ACTOR and the actor's actor.",
    "An actor, the Actors and the actor-actor meet the aCtOr.",
    "Actor actor ACTOR",
    "The clerk, i.e. the actor, files the actor list of the Actor.",
    "The system shows the page.",
]


def test_counted_nouns_equal_the_filter_after_reference(fixtures_dir):
    # The actor-actor rule quotes only the words it reports; what it
    # quotes must equal quoting every noun and keeping those.
    mixed = [Sentence(text, 3, SourceSpan(5, 5 + len(text), 3)) for text in _MIXED_CASE]
    for lex in (BUNDLED, CUSTOM):
        for s in mixed:
            analyze_sentence(s, lex)
        docs = [mixed] + [analyze_document(doc, lex)[1] for doc in _documents(fixtures_dir)]
        for sentences in docs:
            nouns = {"actor", "zzz"} | {n for s in sentences for n in s._tagged[4]}
            for noun in nouns:
                assert list(counted_words(sentences, noun)) == _filter_after(sentences, noun)
        assert [len(words) for _, words in counted_words(mixed, "actor")] == [3, 2, 3, 3]


# Pieces of text around the splitter's fast path: words joined by spaces,
# tabs and commas with a trailing run of '.', '!' and '?' take it;
# apostrophes, hyphens (leading, trailing, doubled), inner punctuation and
# non-ASCII characters send a text to the pattern.
_split_piece = st.one_of(
    st.text(alphabet="abzAZ09 ,", min_size=1, max_size=6),
    st.text(alphabet="aZ9,'-. \t!?é’ü—\u0301\u036f\u0370", max_size=4),
    st.sampled_from(
        ["--", "-a", "a-", "a--b", "'s", "o'", "''", "3-4", "x'-y", "...", "?!",
         ".!?", "  ", "\t", ", ", ",,", "log-in", "user's", "café", "日本", "i.e.", "E.g",
         "cafe\u0301", "\u0301", "a\u0301\u0300b"]
    ),
)
_split_text = st.one_of(
    st.lists(_split_piece, max_size=8).map("".join),
    st.builds(
        str.__add__,
        st.text(alphabet="abzAZ09 ,", max_size=30),
        st.sampled_from(["", ".", "!", "?", "...", "?!.", " .", ". "]),
    ),
    _sentences(),
    st.text(max_size=20),
)


@settings(max_examples=1000, deadline=None)
@given(text=_split_text)
@example(text="")
@example(text=" , ...")
@example(text="The clerk,  prints 3 forms,again!?")
@example(text="It ends. Then-")
@example(text="The clerk\tprints it,\n\x1cthen stops.")  # ASCII whitespace of str.split
def test_split_words_equals_the_pattern(text):
    assert split_words(text) == _WORD_RE.findall(text)
    if text.isascii():
        assert split_words(text) == _ASCII_WORD_RE.findall(text)


def test_word_letters_are_what_isalnum_accepts():
    letter = re.compile(r"[^\W_]")
    for code in range(0x30000):
        ch = chr(code)
        assert bool(letter.fullmatch(ch)) == ch.isalnum(), hex(code)


def _brute_counts(tokens, words):
    def count(pos, word=None):
        return sum(
            1
            for t in tokens
            if t.pos is pos and (word is None or t.surface.lower() == word.lower())
        )

    return (
        count(PosTag.PRONOUN),
        count(PosTag.VERB),
        count(PosTag.MODIFIER),
        {w: count(PosTag.NOUN, w) for w in words},
        len(tokens),
    )


def _metric_counts(s, words):
    counts = NOP(s), NOV(s), NOM(s), {w: NON(s, w) for w in words}
    return (*counts, len(s._tagged[3]))


@settings(max_examples=300, deadline=None)
@given(
    text=_sentences(),
    lex=st.sampled_from([BUNDLED, CUSTOM]),
    how=st.sampled_from(["plain", "analyzed", "reanalyzed"]),
)
def test_metric_counts_match_brute_force_counts(text, lex, how):
    s = Sentence(text=text, span=SourceSpan(0, len(text)))
    if how == "reanalyzed":
        # A second analysis must not keep the first one's counts.
        analyze_sentence(s, CUSTOM if lex is BUNDLED else BUNDLED)
    if how != "plain":
        analyze_sentence(s, lex)
    surfaces = [t.surface for t in s.tokens]
    words = {*surfaces, *(w.upper() for w in surfaces), "actor", "zzz"}
    assert _metric_counts(s, words) == _brute_counts(s.tokens, words)
