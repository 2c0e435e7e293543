"""Tokenizer and coarse rule-and-lexicon part-of-speech tagger.

Use case steps are short subject-verb-object sentences, so a closed-class
lexicon plus two verb suffixes is enough for the pronoun/verb/modifier/
noun counts the metrics need. split_words is the one word splitter: it
splits a plain ASCII sentence (letters, digits, whitespace and commas,
then its closing '.', '!' or '?') at its whitespace and commas, any other
text with the word pattern, whose words are runs of letters and digits
of any script with the combining marks that follow them.
A lexicon keeps one row per distinct surface: the tag and next tagger
state for each of 8 states, then the word lowercased; tagging a word is
one step through its row. One loop, behind analyze_sentence and
analyze_document, is the only writer of a sentence's tagging record: an
exact tuple of its text, span start and line, its tags as a string of
one-letter codes, and its nouns, which the metrics count and the rules
read. analyze_document walks the document once and returns the section
kinds and the sentences it tagged, as two lists, from which the engine
builds its rules' context. One offset loop finds each word from the end
of the one before, for words_tagged (one tag's words, up to the last)
and for the read-only Sentence.tokens (every word, rebuilt on each read
by tagged_tokens).
Everything is deterministic: same sentence and lexicon, same tags.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, Optional

from .model import PosTag, Sentence, SourceSpan, Token, _FrozenRecord

# Letters and digits of any script ([^\W_] is what str.isalnum accepts)
# and the combining diacritical marks (U+0300-U+036F) that follow them, as
# text in decomposed form (NFD) spells accents, joined by hyphens and
# straight or typographic (U+2019) apostrophes. A part is written as a run
# of letters, then marks and letters, which matches faster than a run of
# letters each with its marks.
_PART = r"[^\W_]+(?:[\u0300-\u036f]+[^\W_]*)*"
_WORD_RE = re.compile(rf"{_PART}(?:['\u2019-]{_PART})*")

# Suffixes that mark an inflected verb when the token follows a noun or
# pronoun (the subject position). "-ing" is deliberately absent: in this
# kind of text gerunds almost always act as nouns or qualifiers
# ("warning message", "matching products").
_VERB_SUFFIXES = ("s", "ed")


# An analysis keeps each word's tag as a one-letter code, the first
# letter of its PosTag's value, so a sentence's tags are one string.
_CODE_OF_TAG = {tag: tag.value[0] for tag in PosTag}
_TAG_OF_CODE = {code: tag for tag, code in _CODE_OF_TAG.items()}
_NOUN, _VERB, _MODIFIER, _PRONOUN, _OTHER = (
    _CODE_OF_TAG[tag]
    for tag in (PosTag.NOUN, PosTag.VERB, PosTag.MODIFIER, PosTag.PRONOUN, PosTag.OTHER)
)


class Lexicon(_FrozenRecord):
    __slots__ = ("pronouns", "verbs", "modifiers", "stopwords", "_rows")
    _fields = _compared = ("pronouns", "verbs", "modifiers", "stopwords")

    def __init__(
        self,
        pronouns: frozenset[str],
        verbs: frozenset[str],
        modifiers: frozenset[str],
        stopwords: frozenset[str],
    ) -> None:
        object.__setattr__(self, "pronouns", pronouns)
        object.__setattr__(self, "verbs", verbs)
        object.__setattr__(self, "modifiers", modifiers)
        object.__setattr__(self, "stopwords", stopwords)
        # surface -> its _row_of. Kept per instance, so a lexicon never
        # sees another lexicon's answers.
        object.__setattr__(self, "_rows", {})


_TAG_FIELDS = {
    "pronoun": "pronouns",
    "verb": "verbs",
    "modifier": "modifiers",
    "stopword": "stopwords",
}


def parse_lexicon(text: str) -> Lexicon:
    """Parse the word<TAB>tag lexicon format ('#' starts a comment)."""
    sets: dict[str, set[str]] = {f: set() for f in _TAG_FIELDS.values()}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise ValueError(f"lexicon line {lineno}: expected 'word<TAB>tag'")
        word, tag = parts[0].strip().lower(), parts[1].strip().lower()
        if tag not in _TAG_FIELDS:
            raise ValueError(f"lexicon line {lineno}: unknown tag {tag!r}")
        sets[_TAG_FIELDS[tag]].add(word)
    # Pronouns win ties with every other class.
    for f in ("verbs", "modifiers", "stopwords"):
        sets[f] -= sets["pronouns"]
    return Lexicon(
        pronouns=frozenset(sets["pronouns"]),
        verbs=frozenset(sets["verbs"]),
        modifiers=frozenset(sets["modifiers"]),
        stopwords=frozenset(sets["stopwords"]),
    )


def load_lexicon(path: Optional[str] = None) -> Lexicon:
    """Load a lexicon file, or the bundled default when path is None."""
    if path is None:
        # Read through this package's own loader, as pkgutil.get_data
        # does; importlib.resources would cost a cold start more than the
        # lexicon, since it imports pathlib, tempfile and, from 3.12, inspect.
        data_path = os.path.join(os.path.dirname(__file__), "data", "lexicon.txt")
        text = __spec__.loader.get_data(data_path).decode("utf-8")
    else:
        with open(path, encoding="utf-8-sig") as fh:  # drops a byte order mark
            text = fh.read()
    return parse_lexicon(text)


def split_words(text: str) -> list[str]:
    """The words of text, in order: runs of letters and digits, keeping
    the combining marks that follow them and intra-word hyphens and
    apostrophes.

    Equal to _WORD_RE.findall(text). An ASCII text whose body (the text
    less its trailing run of '.', '!' and '?') holds only letters, digits,
    whitespace and commas, as most use case steps do, is split at its
    whitespace and commas without the pattern.
    """
    if text.isascii():
        words = text.rstrip(".!?").replace(",", " ").split()
        if "".join(words).isalnum():
            return words
    return _WORD_RE.findall(text)


# Builds a span from offsets that are ordered by construction, without
# the check SourceSpan(...) makes.
_span = tuple.__new__


def _spans(record: tuple, code: Optional[str]) -> list[tuple[str, SourceSpan]]:
    """The surface and span of each word of an analysis record's text
    tagged code (every word when code is None), in order, on its line.

    Each word is found with text.find from the end of the one before: no
    letter or digit lies between two words, so the first match is the
    word itself. The words after the last one wanted are never read.
    Offsets index the UTF-8 encoding of text, shifted by the record's
    span start; for ASCII text they equal the character offsets.
    """
    text, base_offset, line, tags, _ = record
    wanted = len(tags) if code is None else tags.rfind(code) + 1
    if not wanted:
        return []
    ascii = text.isascii()
    out = []
    end, byte_end = 0, base_offset  # of the word before, in text and in bytes
    for surface, tag in zip(split_words(text), tags[:wanted]):
        start = text.find(surface, end)
        if ascii:
            byte = base_offset + start
            byte_end = byte + len(surface)
        else:
            byte = byte_end + len(text[end:start].encode("utf-8"))
            byte_end = byte + len(surface.encode("utf-8"))
        end = start + len(surface)
        if tag == code or code is None:
            out.append((surface, _span(SourceSpan, (byte, byte_end, line))))
    return out


def tagged_tokens(record: tuple) -> list[Token]:
    """The words of an analysis record's text as tokens on its line,
    tagged in order by its tag codes."""
    return [
        Token(surface, _TAG_OF_CODE[code], span)
        for (surface, span), code in zip(_spans(record, None), record[3])
    ]


def words_tagged(sentence: Sentence, pos: PosTag) -> list[tuple[str, SourceSpan]]:
    """The surface and span of each word of sentence tagged pos, in order,
    as its last analysis tagged it; [] for a sentence never analyzed.

    Reads the analysis record, not Sentence.tokens, so it builds a span
    only for the words it returns; the spans are the ones those tokens
    carry, since both come from _spans.
    """
    return _spans(sentence._tagged, _CODE_OF_TAG[pos])


def _verb_stems(word: str) -> Iterable[str]:
    yield word
    if word.endswith("ies") and len(word) > 4:
        yield word[:-3] + "y"
    if word.endswith("es") and len(word) > 3:
        yield word[:-2]
    if word.endswith("s") and len(word) > 2:
        yield word[:-1]
    if word.endswith("ed") and len(word) > 3:
        yield word[:-2]
        yield word[:-1]  # e.g. removed -> remove
    if word.endswith("ied") and len(word) > 4:
        yield word[:-3] + "y"


def _facts_of(word: str, lex: Lexicon) -> tuple[bool, bool, str]:
    """What lex says about a lowercased word by itself: whether it is a
    known verb (through _verb_stems), whether its suffix marks a verb, and
    its tag code when it is not read as a verb. A pronoun's facts are
    (False, False, _PRONOUN), so it is never a verb."""
    if word in lex.pronouns:
        return False, False, _PRONOUN
    known_verb = any(stem in lex.verbs for stem in _verb_stems(word))
    # Suffix fallback for verbs missing from the lexicon; _step applies it
    # only in the subject slot.
    suffix_verb = (
        word not in lex.stopwords
        and word not in lex.modifiers
        and any(word.endswith(x) and len(word) > len(x) + 2 for x in _VERB_SUFFIXES)
    )
    if word in lex.modifiers or (
        word.endswith("ly") and len(word) > 4 and word not in lex.stopwords
    ):
        other = _MODIFIER
    elif word in lex.stopwords or word.isdigit():
        other = _OTHER
    else:
        other = _NOUN
    return known_verb, suffix_verb, other


# A determiner opens a noun phrase that runs on through the modifiers after
# it, so no word in it, nor the word after those modifiers, is read as a
# verb ("the search page", "a display case", "the new book").
_DETERMINERS = frozenset({"the", "a", "an"})

# A tagger state is the sum of the flags that hold after the words read
# so far; a sentence starts in state 0.
_IN_PHRASE, _VERB_SEEN, _AFTER_SUBJECT = 1, 2, 4  # the last: a noun or pronoun
# (known verb, suffix marks a verb, other tag, is a determiner) -> the
# _step of each state, in state order; shared by every lexicon.
_TRANSITIONS: dict[tuple, tuple[tuple[str, int], ...]] = {}


def _step(
    known_verb: bool, suffix_verb: bool, other: str, determiner: bool, state: int
) -> tuple[str, int]:
    """The tag code of a word of these facts read in state, and the next state."""
    pos = other
    if not state & _IN_PHRASE:
        if known_verb:
            pos = _VERB
        # The suffix rule fires only directly after a noun/pronoun (the
        # subject slot) and only for the first verb of the sentence, so
        # object nouns like "found products" stay nouns.
        elif suffix_verb and state & (_VERB_SEEN | _AFTER_SUBJECT) == _AFTER_SUBJECT:
            pos = _VERB
    phrase = determiner or (state & _IN_PHRASE and pos == _MODIFIER)
    return pos, (
        (_IN_PHRASE if phrase else 0)
        | (_VERB_SEEN if state & _VERB_SEEN or pos == _VERB else 0)
        | (_AFTER_SUBJECT if pos in (_NOUN, _PRONOUN) else 0)
    )


def _row_of(surface: str, lex: Lexicon) -> tuple:
    """What lex says about surface in each state, the memo's row: the
    8 (tag code, next state) pairs, in state order, then the word
    lowercased (the memo's copy, which every recorded noun of that form
    shares)."""
    word = surface.lower()
    if word == surface:
        word = surface  # one string for both
    key = (*_facts_of(word, lex), word in _DETERMINERS)
    if key not in _TRANSITIONS:
        _TRANSITIONS[key] = tuple(_step(*key, state) for state in range(8))
    return (*_TRANSITIONS[key], word)


def _analyze(
    pairs: Iterable[tuple[object, Sentence]], lex: Lexicon
) -> tuple[list, list[Sentence]]:
    """Tag the sentence of each (section kind, sentence) pair: keep the
    record the metrics and the rules read. Return the kinds and the
    sentences, in two lists in pair order."""
    rows = lex._rows
    kinds: list = []
    sentences: list[Sentence] = []
    add_kind, add_sentence = kinds.append, sentences.append
    for kind, sentence in pairs:
        add_kind(kind)
        add_sentence(sentence)
        text = sentence.text
        tags: list[str] = []
        nouns: list[str] = []
        state = 0
        for surface in split_words(text):
            row = rows.get(surface)
            if row is None:
                row = rows[surface] = _row_of(surface, lex)
            pos, state = row[state]
            tags.append(pos)
            if pos == _NOUN:
                nouns.append(row[8])  # the word, lowercased
        sentence._tagged = (text, sentence._start, sentence.line, "".join(tags), tuple(nouns))
    return kinds, sentences


def analyze_sentence(sentence: Sentence, lex: Lexicon) -> None:
    """Tag sentence and keep the record the metrics and the rules read.
    Its tokens are rebuilt from the kept tags, by tagged_tokens, on each
    read; words_tagged reads the same tags without building them."""
    _analyze(((None, sentence),), lex)


def analyze_document(doc, lex: Lexicon) -> tuple[list, list[Sentence]]:
    """Tag every sentence of a parsed document in place, in one walk of
    doc.iter_sentences(). Return what that walk gave, as two lists: the
    section kind of each sentence, and the sentences."""
    return _analyze(doc.iter_sentences(), lex)
