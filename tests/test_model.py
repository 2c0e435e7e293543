import copy
import pickle

import pytest

from ucsmell.engine import DetectorConfig
from ucsmell.model import (
    END,
    SECTION_FIELD,
    ActorDecl,
    BranchFlow,
    Evidence,
    Finding,
    Flow,
    PosTag,
    SectionKind,
    Sentence,
    SourceSpan,
    Step,
    StepRef,
    Token,
    UseCaseDescription,
)
from ucsmell.metrics import NOM, NON, NOP, NOV
from ucsmell.textanalysis import analyze_document, load_lexicon, words_tagged


def test_span_rejects_start_after_end():
    with pytest.raises(ValueError):
        SourceSpan(5, 3)
    with pytest.raises(ValueError):
        SourceSpan(1, 2)._replace(start=5)


def test_span_line_defaults_to_zero():
    assert SourceSpan(1, 2).line == 0


def finding(evidence=Evidence("it")):
    return Finding("pronoun", "Basic Flow", "NOP", 9, evidence, SourceSpan(10, 12, 17))


@pytest.mark.parametrize(
    "record, name",
    [
        (SourceSpan(1, 2, 3), "start"),
        (SourceSpan(1, 2, 3), "line"),
        (Token("it", PosTag.PRONOUN, SourceSpan(1, 3, 1)), "pos"),
        (Token("it", PosTag.PRONOUN, SourceSpan(1, 3, 1)), "surface"),
        (finding(), "line"),
        (Evidence("it"), "text"),
        (Evidence(("A1",)), "text"),
        (StepRef(SectionKind.BASIC_FLOW, "2"), "label"),
        (DetectorConfig(), "stddev_k"),
        (END, "label"),
        (load_lexicon(), "pronouns"),
    ],
)
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)


def test_records_are_hashable():
    span = SourceSpan(1, 2, 3)
    token = Token("it", PosTag.PRONOUN, span)
    assert len({span, SourceSpan(1, 2, 3)}) == 1
    assert len({token, Token("it", PosTag.PRONOUN, SourceSpan(1, 2, 3))}) == 1


def test_record_reprs():
    assert repr(SourceSpan(1, 2, 3)) == "SourceSpan(start=1, end=2, line=3)"
    assert repr(Token("it", PosTag.PRONOUN, SourceSpan(1, 2, 3))) == (
        "Token(surface='it', pos=<PosTag.PRONOUN: 'pronoun'>, "
        "span=SourceSpan(start=1, end=2, line=3))"
    )


def test_records_compare_equal_to_plain_tuples():
    assert SourceSpan(1, 2, 3) == (1, 2, 3)
    start, end, line = SourceSpan(1, 2, 3)
    assert (start, end, line) == (1, 2, 3)


def test_equal_findings_compare_equal():
    assert finding() == finding()
    assert hash(finding()) == hash(finding())
    assert finding(Evidence(("A1", "x"))) == finding(Evidence(("A1", "x")))
    assert END == type(END)() and hash(END) == hash(type(END)())


def test_frozen_records_copy_and_pickle():
    lexicon = load_lexicon()
    for record in (finding(), END, Evidence("it"), Evidence(("A1",)), lexicon):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_document_equality_ignores_positions_and_tokens():
    def document(line, span, analyzed):
        sentence = Sentence("It works.", line, span)
        step = Step("1", 1, [sentence], span)
        flow = BranchFlow("A1", Sentence("If x.", line, span), steps=[step], span=span)
        doc = UseCaseDescription(
            name="X",
            alternate_flows=[flow],
            section_header_lines={SectionKind.NAME: line},
        )
        if analyzed:
            analyze_document(doc, load_lexicon())
        return doc

    a = document(2, SourceSpan(3, 12, 2), True)
    b = document(0, SourceSpan(0, 0, 0), False)
    assert a.alternate_flows[0].steps[0].sentences[0].tokens
    assert a == b
    assert a.alternate_flows[0] == b.alternate_flows[0]
    b.alternate_flows[0].steps[0].sentences[0].text = "It fails."
    assert a != b


def test_sections_in_canonical_order_with_their_fields():
    assert [kind.value for kind in SectionKind] == [
        "Name", "Overview", "Actors", "Preconditions", "Postconditions",
        "Basic Flow", "Alternate Flows", "Exception Flows",
    ]
    assert tuple(SECTION_FIELD) == tuple(SectionKind)
    assert tuple(SECTION_FIELD.values()) == (
        "name", "overview", "actors", "preconditions", "postconditions",
        "basic_flow", "alternate_flows", "exception_flows",
    )
    assert UseCaseDescription._compared == tuple(SECTION_FIELD.values())


def test_section_present():
    step = Step("1", 1, [Sentence("A does B.")])
    flow = BranchFlow("A1")
    full = UseCaseDescription(
        name="X", overview="Y", actors=[ActorDecl("Clerk")],
        preconditions=[Sentence("P.")], postconditions=[Sentence("Q.")],
        basic_flow=Flow([step]), alternate_flows=[flow], exception_flows=[flow],
    )
    assert all(full.section_present(kind) for kind in SectionKind)
    empty = UseCaseDescription(
        name=" \t", overview="", actors=[], preconditions=[], postconditions=None,
        basic_flow=Flow([]),
    )
    assert not any(empty.section_present(kind) for kind in SectionKind)
    assert not any(UseCaseDescription().section_present(kind) for kind in SectionKind)


def test_plain_sentence_has_no_tokens_and_zero_counts():
    s = Sentence("It shows the valid card.")
    assert s.tokens == []
    assert words_tagged(s, PosTag.NOUN) == []
    assert (NOP(s), NOV(s), NOM(s), NON(s, "card"), len(s._tagged[3])) == (0,) * 5
    with pytest.raises(AttributeError):  # only analysis sets tokens
        s.tokens = []


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(Sentence("x"))


def test_config_checks_hold_on_construction_and_replace():
    with pytest.raises(ValueError):
        DetectorConfig(stddev_k=0)
    with pytest.raises(ValueError):
        DetectorConfig()._replace(stddev_k=0)
    assert DetectorConfig()._replace(stddev_k=1.5).stddev_k == 1.5
