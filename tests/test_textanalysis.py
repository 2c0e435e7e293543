import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from ucsmell.metrics import NOM, NON, NOP, NOV
from ucsmell.model import PosTag, Sentence, SourceSpan
from ucsmell.parser import _ABBREVIATIONS
from ucsmell.textanalysis import (
    Lexicon,
    analyze_sentence,
    load_lexicon,
    parse_lexicon,
    split_words,
    words_tagged,
)

LEXICON = load_lexicon()


def tokens_of(text, lex=LEXICON, base=0):
    """The tokens of text analyzed as a sentence whose span starts at base."""
    s = Sentence(text, span=SourceSpan(base, base + len(text)))
    analyze_sentence(s, lex)
    return s.tokens


def tags_of(text, lex):
    return [(t.surface, t.pos) for t in tokens_of(text, lex)]


def pos_of(text, word, lex):
    for surface, pos in tags_of(text, lex):
        if surface.lower() == word:
            return pos
    raise AssertionError(f"{word!r} not found in {text!r}")


def test_tokenize_simple():
    tokens = tokens_of("System shows the result.")
    assert [t.surface for t in tokens] == ["System", "shows", "the", "result"]


def test_tokenize_keeps_hyphens_and_apostrophes():
    tokens = tokens_of("The log-in page shows the user's name.")
    surfaces = [t.surface for t in tokens]
    assert "log-in" in surfaces
    assert "user's" in surfaces


def test_tokenize_spans_are_character_offsets():
    text = "Café menu"
    tokens = tokens_of(text)
    assert [(t.span.start, t.span.end) for t in tokens] == [(0, 4), (5, 9)]
    for t in tokens:
        assert text[t.span.start : t.span.end] == t.surface


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(alphabet=st.sampled_from("ab-' .éü€😀\t"), max_size=30),
    base=st.integers(min_value=0, max_value=50),
)
def test_tokenize_spans_match_source_slices(text, base):
    for t in tokens_of(text, base=base):
        assert text[t.span.start - base : t.span.end - base] == t.surface


def test_tokenize_base_offset_shifts_spans():
    t0 = tokens_of("abc def")[1]
    t1 = tokens_of("abc def", base=10)[1]
    assert (t1.span.start, t1.span.end) == (t0.span.start + 10, t0.span.end + 10)


def test_parse_lexicon_roundtrip():
    lex = parse_lexicon("it\tpronoun\nshow\tverb\nbig\tmodifier\nthe\tstopword\n")
    assert "it" in lex.pronouns
    assert "show" in lex.verbs
    assert "big" in lex.modifiers
    assert "the" in lex.stopwords


def test_parse_lexicon_comments_and_blank_lines():
    lex = parse_lexicon("# comment\n\nshow\tverb  # trailing\n")
    assert "show" in lex.verbs


def test_parse_lexicon_pronouns_win_ties():
    lex = parse_lexicon("it\tverb\nit\tpronoun\n")
    assert "it" in lex.pronouns
    assert "it" not in lex.verbs


def test_parse_lexicon_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_lexicon("oneword\n")
    with pytest.raises(ValueError):
        parse_lexicon("word\tunknown-tag\n")


def test_load_default_lexicon():
    lex = load_lexicon()
    assert "it" in lex.pronouns
    assert "insert" in lex.verbs
    assert "the" in lex.stopwords


def test_three_verb_sentence(lexicon):
    text = "System checks the funds, removes the sum, and puts cash out."
    verbs = [s for s, p in tags_of(text, lexicon) if p is PosTag.VERB]
    assert verbs == ["checks", "removes", "puts"]


def test_pronoun_tagging(lexicon):
    assert pos_of("Actor stores it in the wallet.", "it", lexicon) is PosTag.PRONOUN


def test_inflected_lexicon_verbs(lexicon):
    assert pos_of("The clerk verifies the form.", "verifies", lexicon) is PosTag.VERB
    assert pos_of("The clerk scanned the card.", "scanned", lexicon) is PosTag.VERB


def test_determiner_blocks_verb_reading(lexicon):
    # "search" and "book" are lexicon verbs, but in a determiner's noun
    # phrase they are nouns. The phrase runs on through the modifiers
    # after the determiner.
    for text, noun in (
        ("The user opens the search page.", "search"),
        ("The clerk takes the book.", "book"),
        ("The customer opened the new search page.", "search"),
        ("The member places the new book on the lending desk.", "book"),
    ):
        assert pos_of(text, noun, lexicon) is PosTag.NOUN, text
        s = Sentence(text)
        analyze_sentence(s, lexicon)
        assert NOV(s) == 1, text


def test_suffix_rule_tags_unknown_main_verb(lexicon):
    # "staple" is not in the lexicon; the -s suffix after the subject is.
    assert pos_of("The clerk staples the form.", "staples", lexicon) is PosTag.VERB


def test_suffix_rule_inert_after_first_verb(lexicon):
    # "products" follows a verb, so the suffix rule must not fire.
    text = "The system displays the found products on a page."
    assert pos_of(text, "products", lexicon) is PosTag.NOUN


def test_gerunds_are_not_verbs(lexicon):
    assert (
        pos_of("The system shows a warning message.", "warning", lexicon)
        is not PosTag.VERB
    )


def test_ly_words_are_modifiers(lexicon):
    assert pos_of("The system quickly shows a page.", "quickly", lexicon) is (
        PosTag.MODIFIER
    )


def test_modifier_lexicon(lexicon):
    assert pos_of("The system shows an empty page.", "empty", lexicon) is (
        PosTag.MODIFIER
    )


def test_stopwords_and_digits_are_other(lexicon):
    assert pos_of("The flow returns to step 5.", "to", lexicon) is PosTag.OTHER
    assert pos_of("The flow returns to step 5.", "5", lexicon) is PosTag.OTHER


def test_unknown_words_default_to_noun(lexicon):
    assert pos_of("The frobnicator hums.", "frobnicator", lexicon) is PosTag.NOUN


@pytest.mark.parametrize(
    "abbreviation", ["i.e.", "I.E.", "I.e.", "e.g.", "E.G.", "E.g.", "i.e", "e.g"]
)
def test_dotted_abbreviations_are_one_word_tagged_other(lexicon, abbreviation):
    # The dotted abbreviations the sentence splitter keeps whole are one
    # word each, tagged other: "i.e." gives no pronoun "i", and "e.g." no
    # nouns "e" and "g".
    text = f"The clerk pays, {abbreviation} the sum, {abbreviation}, it stops."
    words = ["The", "clerk", "pays", abbreviation, "the", "sum", abbreviation, "it", "stops"]
    assert split_words(text) == words
    s = Sentence(text, span=SourceSpan(3, 3 + len(text)))
    analyze_sentence(s, lexicon)
    assert [(t.surface, t.pos) for t in s.tokens if t.surface == abbreviation] == [
        (abbreviation, PosTag.OTHER)
    ] * 2
    assert [text[t.span.start - 3 : t.span.end - 3] for t in s.tokens] == words
    assert NOP(s) == 1 and _nouns(s) == ["clerk", "sum"]
    assert NON(s, "e") == NON(s, "g") == 0


def test_every_dotted_abbreviation_of_the_splitter_is_one_word():
    dotted = [a for a in _ABBREVIATIONS if "." in a]
    assert dotted
    for a in dotted:
        for written in (a, a.upper()):
            assert split_words(f"x, {written}. y") == ["x", f"{written}.", "y"]
    # Only a whole abbreviation is one word.
    assert split_words("taxi.e.g. ei.eg") == ["taxi", "e.g.", "ei", "eg"]


def test_analyze_sentence_fills_tokens(lexicon):
    s = Sentence(text="System shows the page.")
    analyze_sentence(s, lexicon)
    assert [t.surface for t in s.tokens] == ["System", "shows", "the", "page"]
    assert s.tokens[1].pos is PosTag.VERB


def test_tagging_is_deterministic(lexicon):
    text = "The system displays the found products on a result page."
    assert tags_of(text, lexicon) == tags_of(text, lexicon)


def test_custom_lexicon_type():
    lex = Lexicon(
        pronouns=frozenset({"it"}),
        verbs=frozenset({"frob"}),
        modifiers=frozenset(),
        stopwords=frozenset({"the"}),
    )
    assert pos_of("It frobs the gadget.", "frobs", lex) is PosTag.VERB


def _lexicon_with_verbs(*verbs):
    return Lexicon(
        pronouns=frozenset({"it"}),
        verbs=frozenset(verbs),
        modifiers=frozenset(),
        stopwords=frozenset({"the", "then"}),
    )


def test_verb_lookup_is_per_lexicon():
    # Same words, lexicons that disagree about them, interleaved in one
    # process: each tagging must follow its own lexicon. The verbs follow
    # a stopword, so the suffix fallback cannot tag them either way.
    text = "Then frobs the gadget, then blorks."
    lex_a = _lexicon_with_verbs("frob")
    lex_b = _lexicon_with_verbs("blork")
    assert lex_a == _lexicon_with_verbs("frob")  # the memo is not compared
    for lex, verb, other in (
        (lex_a, "frobs", "blorks"),
        (lex_b, "blorks", "frobs"),
        (lex_a, "frobs", "blorks"),
    ):
        tags = dict(tags_of(text, lex))
        assert tags[verb] is PosTag.VERB
        assert tags[other] is not PosTag.VERB


# Words beyond ASCII. The word pattern once matched ASCII letters only, so
# an accented letter or a typographic apostrophe (U+2019) split a word into
# fragments that were tagged as nouns of their own.


def _nouns(s):
    """The nouns of an analyzed sentence, lowercased and in order."""
    return [w.lower() for w, _ in words_tagged(s, PosTag.NOUN)]


def _counts(s):
    """Its pronoun, verb and modifier counts and its number of words."""
    return NOP(s), NOV(s), NOM(s), len(s._tagged[3])


def test_accented_words_are_whole_words(lexicon):
    text = "The clerk files the résumé and the réservation."
    assert [s for s, _ in tags_of(text, lexicon)] == [
        "The", "clerk", "files", "the", "résumé", "and", "the", "réservation",
    ]
    s = Sentence(text)
    analyze_sentence(s, lexicon)
    assert _nouns(s) == ["clerk", "résumé", "réservation"]
    assert NON(s, "résumé") == NON(s, "Réservation") == 1 and NON(s, "re") == 0


def test_typographic_apostrophe_stays_inside_a_word(lexicon):
    curly = Sentence("The customer’s card goes to the clerk’s desk.")
    straight = Sentence("The customer's card goes to the clerk's desk.")
    for s in (curly, straight):
        analyze_sentence(s, lexicon)
    assert _nouns(curly) == ["customer’s", "card", "clerk’s", "desk"]
    assert [t.replace("’", "'") for t in _nouns(curly)] == _nouns(straight)
    assert _counts(curly) == _counts(straight)


def test_decomposed_accents_stay_inside_a_word(lexicon):
    """A combining mark (U+0300-U+036F) after a letter or digit belongs to
    its word, so text in decomposed form (NFD) splits into the same words
    as its composed form (NFC), each spelled as written. A mark that
    follows no letter or digit belongs to no word."""
    nfc = "The clerk files the résumé and the réservation."
    nfd = unicodedata.normalize("NFD", nfc)
    assert nfd != nfc
    assert [unicodedata.normalize("NFC", w) for w in split_words(nfd)] == split_words(nfc)
    assert split_words("e\u0301te\u0301 l'e\u0301cole 2\u0300-a\u0301") == [
        "e\u0301te\u0301", "l'e\u0301cole", "2\u0300-a\u0301",
    ]
    assert split_words("\u0301 a \u0301b -\u0301 c'\u0301") == ["a", "b", "c"]
    s = Sentence(nfd, span=SourceSpan(7, 7 + len(nfd)))
    analyze_sentence(s, lexicon)
    nouns = ["clerk", "résumé", "réservation"]
    assert _nouns(s) == [unicodedata.normalize("NFD", w) for w in nouns]
    assert NON(s, "re") == 0
    # Spans still slice each word, combining marks and all, out of the text.
    assert [nfd[t.span.start - 7 : t.span.end - 7] for t in s.tokens] == [
        t.surface for t in s.tokens
    ]


def test_words_of_other_scripts_and_digits(lexicon):
    words = [s for s, _ in tags_of("Der Kunde zahlt 3² ½ Straße, 日本 und ÉTÉ—ok_go", lexicon)]
    assert words == ["Der", "Kunde", "zahlt", "3²", "½", "Straße", "日本", "und", "ÉTÉ", "ok", "go"]


def test_lexicon_lookups_lowercase_and_do_not_casefold(lexicon):
    """Lookups and recorded nouns use str.lower, not str.casefold: a noun is
    quoted as written, lowercased, so NON("straße") names the word of the
    text. Case variants that lower() maps together are one noun; "ß" and
    "SS", which only casefold() maps together, stay two."""
    s = Sentence("The Résumé lists the RÉSUMÉ, the Straße and the STRASSE.")
    analyze_sentence(s, lexicon)
    assert _nouns(s) == ["résumé", "résumé", "straße", "strasse"]
    assert NON(s, "RÉSUMÉ") == 2 and NON(s, "Straße") == 1 and NON(s, "strasse") == 1
    # A lexicon entry matches an upper-case non-ASCII surface through lower().
    lex = Lexicon(pronouns=frozenset({"él"}), verbs=frozenset(), modifiers=frozenset(),
                  stopwords=frozenset())
    assert dict(tags_of("ÉL Él él", lex)) == {
        "ÉL": PosTag.PRONOUN, "Él": PosTag.PRONOUN, "él": PosTag.PRONOUN,
    }
