"""Tokenizer and coarse rule-and-lexicon part-of-speech tagger.

Use case steps are short subject-verb-object sentences, so a closed-class
lexicon plus a few suffix rules is enough for the pronoun/verb/modifier/
noun counts the metrics need. Everything is deterministic: same sentence
and lexicon, same tags.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, Optional

from .model import PosTag, Sentence, SourceSpan, Token, _FrozenRecord

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:['-][A-Za-z0-9]+)*")

# Suffixes that mark an inflected verb when the token follows a noun or
# pronoun (the subject position). "-ing" is deliberately absent: in this
# kind of text gerunds almost always act as nouns or qualifiers
# ("warning message", "matching products").
DEFAULT_VERB_SUFFIX_RULES: tuple[tuple[str, PosTag], ...] = (
    ("s", PosTag.VERB),
    ("ed", PosTag.VERB),
)


# What a lexicon says about one word by itself: whether it is a known verb
# (through _verb_stems), the suffix-rule tag it may take in the subject
# slot (None when no rule applies), and its tag when no verb reading
# applies. A pronoun is (False, None, PRONOUN), so it is never a verb.
_WordFacts = tuple[bool, Optional[PosTag], PosTag]


class Lexicon(_FrozenRecord):
    __slots__ = (
        "pronouns",
        "verbs",
        "modifiers",
        "stopwords",
        "verb_suffix_rules",
        "_word_facts",
    )
    _fields = _compared = (
        "pronouns",
        "verbs",
        "modifiers",
        "stopwords",
        "verb_suffix_rules",
    )

    def __init__(
        self,
        pronouns: frozenset[str],
        verbs: frozenset[str],
        modifiers: frozenset[str],
        stopwords: frozenset[str],
        verb_suffix_rules: tuple[tuple[str, PosTag], ...] = DEFAULT_VERB_SUFFIX_RULES,
    ) -> None:
        object.__setattr__(self, "pronouns", pronouns)
        object.__setattr__(self, "verbs", verbs)
        object.__setattr__(self, "modifiers", modifiers)
        object.__setattr__(self, "stopwords", stopwords)
        object.__setattr__(self, "verb_suffix_rules", verb_suffix_rules)
        # lowercased word -> its _WordFacts. Kept per instance, so a lexicon
        # never sees another lexicon's answers.
        object.__setattr__(self, "_word_facts", {})


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
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_lexicon(text)


def _words(text: str, base_offset: int) -> list[tuple[str, int, int]]:
    """(surface, byte start, byte end) of every word in text.

    Words are runs of ASCII letters and digits, keeping intra-word hyphens and
    apostrophes. Offsets index the UTF-8 encoding of text, shifted by
    base_offset; for ASCII text they equal the character offsets.
    """
    if text.isascii():
        return [
            (m.group(), base_offset + m.start(), base_offset + m.end())
            for m in _WORD_RE.finditer(text)
        ]
    words = []
    char = byte = 0
    for m in _WORD_RE.finditer(text):
        surface = m.group()
        byte += len(text[char : m.start()].encode("utf-8"))
        end = byte + len(surface.encode("utf-8"))
        words.append((surface, base_offset + byte, base_offset + end))
        char, byte = m.end(), end
    return words


def tokenize(sentence_text: str, base_offset: int = 0, line: int = 0) -> list[Token]:
    """Split on whitespace/punctuation, keeping intra-word hyphens and
    apostrophes. Tokens come back untagged (pos OTHER)."""
    return [
        Token(surface, PosTag.OTHER, SourceSpan(start, end, line))
        for surface, start, end in _words(sentence_text, base_offset)
    ]


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


def _facts_of(word: str, lex: Lexicon) -> _WordFacts:
    if word in lex.pronouns:
        return False, None, PosTag.PRONOUN
    known_verb = any(stem in lex.verbs for stem in _verb_stems(word))
    # Suffix fallback for verbs missing from the lexicon; _tags applies it
    # only in the subject slot.
    suffix_tag = None
    if word not in lex.stopwords and word not in lex.modifiers:
        for suffix, tag in lex.verb_suffix_rules:
            if word.endswith(suffix) and len(word) > len(suffix) + 2:
                suffix_tag = tag
                break
    if word in lex.modifiers or (
        word.endswith("ly") and len(word) > 4 and word not in lex.stopwords
    ):
        other = PosTag.MODIFIER
    elif word in lex.stopwords or word.isdigit():
        other = PosTag.OTHER
    else:
        other = PosTag.NOUN
    return known_verb, suffix_tag, other


# A determiner introduces a noun phrase, so the word right after one is
# never read as a verb ("the search page", "a display case").
_DETERMINERS = frozenset({"the", "a", "an"})
_SUBJECT_TAGS = (PosTag.NOUN, PosTag.PRONOUN)


def _tags(surfaces: Iterable[str], lex: Lexicon) -> list[PosTag]:
    """The PosTag of each word of one sentence, in order."""
    memo = lex._word_facts
    tags = []
    prev_word: Optional[str] = None
    prev_tag: Optional[PosTag] = None
    verb_seen = False
    for surface in surfaces:
        word = surface.lower()
        facts = memo.get(word)
        if facts is None:
            facts = memo[word] = _facts_of(word, lex)
        known_verb, suffix_tag, pos = facts
        if prev_word not in _DETERMINERS:
            if known_verb:
                pos = PosTag.VERB
            # The suffix rule fires only directly after a noun/pronoun (the
            # subject slot) and only for the first verb of the sentence, so
            # object nouns like "found products" stay nouns.
            elif suffix_tag and not verb_seen and prev_tag in _SUBJECT_TAGS:
                pos = suffix_tag
        tags.append(pos)
        prev_word = word
        prev_tag = pos
        verb_seen = verb_seen or pos is PosTag.VERB
    return tags


def tag(tokens: list[Token], lex: Lexicon) -> list[Token]:
    """Assign a PosTag to each token; lookup is lowercased, surfaces kept."""
    tags = _tags([t.surface for t in tokens], lex)
    return [Token(t.surface, pos, t.span) for t, pos in zip(tokens, tags)]


def analyze_sentence(sentence: Sentence, lex: Lexicon) -> None:
    """Fill in sentence.tokens (tokenized and tagged) in place."""
    words = _words(sentence.text, sentence.span.start)
    tags = _tags([surface for surface, _, _ in words], lex)
    line = sentence.line
    sentence.tokens = [
        Token(surface, pos, SourceSpan(start, end, line))
        for (surface, start, end), pos in zip(words, tags)
    ]


def analyze_document(doc, lex: Lexicon) -> None:
    """Tokenize and tag every sentence of a parsed document in place."""
    for _, sentence in doc.iter_sentences():
        analyze_sentence(sentence, lex)
