"""Tokenizer and coarse rule-and-lexicon part-of-speech tagger.

Use case steps are short subject-verb-object sentences, so a closed-class
lexicon plus a few suffix rules is enough for the pronoun/verb/modifier/
noun counts the metrics need. Everything is deterministic: same sentence
and lexicon, same tags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from .model import PosTag, Sentence, SourceSpan, Token

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:['-][A-Za-z0-9]+)*")

# Suffixes that mark an inflected verb when the token follows a noun or
# pronoun (the subject position). "-ing" is deliberately absent: in this
# kind of text gerunds almost always act as nouns or qualifiers
# ("warning message", "matching products").
DEFAULT_VERB_SUFFIX_RULES: tuple[tuple[str, PosTag], ...] = (
    ("s", PosTag.VERB),
    ("ed", PosTag.VERB),
)


@dataclass(frozen=True)
class Lexicon:
    pronouns: frozenset[str]
    verbs: frozenset[str]
    modifiers: frozenset[str]
    stopwords: frozenset[str]
    verb_suffix_rules: tuple[tuple[str, PosTag], ...] = DEFAULT_VERB_SUFFIX_RULES
    # word -> whether some _verb_stems(word) candidate is in verbs. Kept per
    # instance, so a lexicon never sees another lexicon's answers.
    _verb_memo: dict[str, bool] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )


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
        text = (
            resources.files("ucsmell").joinpath("data/lexicon.txt").read_text("utf-8")
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_lexicon(text)


def tokenize(sentence_text: str, base_offset: int = 0, line: int = 0) -> list[Token]:
    """Split on whitespace/punctuation, keeping intra-word hyphens and
    apostrophes. Tokens come back untagged (pos OTHER)."""
    # Spans are UTF-8 byte offsets; for ASCII text they equal the
    # character offsets.
    ascii_only = sentence_text.isascii()
    tokens = []
    for m in _WORD_RE.finditer(sentence_text):
        start, end = m.span()
        if not ascii_only:
            start = len(sentence_text[:start].encode("utf-8"))
            end = start + len(m.group().encode("utf-8"))
        tokens.append(
            Token(
                m.group(),
                PosTag.OTHER,
                SourceSpan(base_offset + start, base_offset + end, line),
            )
        )
    return tokens


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


def _known_verb(word: str, lex: Lexicon) -> bool:
    known = lex._verb_memo.get(word)
    if known is None:
        known = any(stem in lex.verbs for stem in _verb_stems(word))
        lex._verb_memo[word] = known
    return known


# A determiner introduces a noun phrase, so the word right after one is
# never read as a verb ("the search page", "a display case").
_DETERMINERS = frozenset({"the", "a", "an"})


def _classify(
    word: str,
    prev_word: Optional[str],
    prev_tag: Optional[PosTag],
    verb_seen: bool,
    lex: Lexicon,
) -> PosTag:
    if word in lex.pronouns:
        return PosTag.PRONOUN
    after_determiner = prev_word in _DETERMINERS
    if not after_determiner and _known_verb(word, lex):
        return PosTag.VERB
    # Suffix fallback for verbs missing from the lexicon: only directly
    # after a noun/pronoun (the subject slot) and only for the first verb
    # of the sentence, so object nouns like "found products" stay nouns.
    if (
        not after_determiner
        and not verb_seen
        and prev_tag in (PosTag.NOUN, PosTag.PRONOUN)
        and word not in lex.stopwords
        and word not in lex.modifiers
    ):
        for suffix, tag in lex.verb_suffix_rules:
            if word.endswith(suffix) and len(word) > len(suffix) + 2:
                return tag
    if word in lex.modifiers:
        return PosTag.MODIFIER
    if word.endswith("ly") and len(word) > 4 and word not in lex.stopwords:
        return PosTag.MODIFIER
    if word in lex.stopwords:
        return PosTag.OTHER
    if word.isdigit():
        return PosTag.OTHER
    return PosTag.NOUN


def tag(tokens: list[Token], lex: Lexicon) -> list[Token]:
    """Assign a PosTag to each token; lookup is lowercased, surfaces kept."""
    tagged: list[Token] = []
    prev_word: Optional[str] = None
    prev_tag: Optional[PosTag] = None
    verb_seen = False
    for tok in tokens:
        word = tok.surface.lower()
        pos = _classify(word, prev_word, prev_tag, verb_seen, lex)
        tagged.append(Token(tok.surface, pos, tok.span))
        prev_word = word
        prev_tag = pos
        verb_seen = verb_seen or pos is PosTag.VERB
    return tagged


def count_pos(tokens: list[Token], pos: PosTag) -> int:
    return sum(1 for t in tokens if t.pos is pos)


def analyze_sentence(sentence: Sentence, lex: Lexicon) -> None:
    """Fill in sentence.tokens (tokenized and tagged) in place."""
    sentence.tokens = tag(
        tokenize(sentence.text, sentence.span.start, sentence.line), lex
    )


def analyze_document(doc, lex: Lexicon) -> None:
    """Tokenize and tag every sentence of a parsed document in place."""
    for _, sentence in doc.iter_sentences():
        analyze_sentence(sentence, lex)
