import re

import largedoc
import seeding

from ucsmell import metrics, textanalysis
from ucsmell.metrics import (
    LOS,
    NOAFR,
    NOEFR,
    NOM,
    NON,
    NOP,
    NOV,
    NOW,
    PREDICATES,
    normalize_reason,
    reason_groups,
)
from ucsmell.model import (
    BranchFlow,
    Flow,
    Sentence,
    SourceSpan,
    Step,
    UseCaseDescription,
)
from ucsmell.parser import parse_json, parse_text, serialize
from ucsmell.textanalysis import analyze_sentence

from conftest import FIXTURES
from test_engine import _BROKEN_BRANCH_NUMBERING


def sent(text, lexicon):
    s = Sentence(text=text)
    analyze_sentence(s, lexicon)
    return s


def step(number, text, line=0):
    return Step(
        label=str(number) if number is not None else None,
        number=number,
        sentences=[Sentence(text=text, line=line)],
        span=SourceSpan(0, 0, line),
    )


def test_counting_metrics(lexicon):
    s = sent("Actor stores it in the large wallet of the actor.", lexicon)
    assert NOP(s) == 1
    assert NOV(s) == 1
    assert NOM(s) == 1
    assert NOW(s, "actor") == 2
    assert NON(s, "actor") == 2
    assert NON(s, "wallet") == 1
    assert NON(s, "stores") == 0


def test_now_is_case_insensitive(lexicon):
    s = sent("Actor gives the card to the actor.", lexicon)
    assert NOW(s, "Actor") == 2


def test_now_counts_the_words_of_the_last_analysis(lexicon, monkeypatch):
    def no_tokens(*args):
        raise AssertionError("NOW built tokens")

    # NOW counts from the analysis record without building tokens.
    monkeypatch.setattr(textanalysis, "tagged_tokens", no_tokens)
    s = Sentence(text="The actor tells the actor.")
    assert NOW(s, "actor") == 0  # never analyzed
    analyze_sentence(s, lexicon)
    s.text = "The actor leaves."
    assert NOW(s, "actor") == 2
    assert NOW(s, "tells") == 1


def test_los_counts_characters():
    assert LOS(Sentence(text="abcd")) == 4
    assert LOS(Sentence(text="  abcd  ")) == 4
    assert LOS(Sentence(text="café")) == 4  # scalar values, not bytes


def test_normalize_reason():
    assert normalize_reason("If the  code is wrong.") == "the code is wrong"
    assert normalize_reason("WHEN THE CODE IS WRONG") == "the code is wrong"
    assert normalize_reason("the code is wrong!") == "the code is wrong"


def test_reason_groups_and_counts():
    def flow(fid, condition):
        return BranchFlow(
            id=fid,
            condition=Sentence(text=condition) if condition else None,
        )

    doc = UseCaseDescription(
        alternate_flows=[
            flow("A1", "If the code is wrong at step 2"),
            flow("A2", "if the code is wrong at step 2"),
            flow("A3", "If the card expires at step 1"),
            flow("A4", None),
        ],
        exception_flows=[flow("E1", "When the host fails at step 3")],
    )
    groups = dict(NOAFR(doc))
    assert groups["the code is wrong at step 2"] == 2
    assert groups["the card expires at step 1"] == 1
    assert sum(groups.values()) == 3  # conditionless flows are skipped
    assert dict(NOEFR(doc)) == {"the host fails at step 3": 1}
    assert len(reason_groups(doc.alternate_flows)) == 2


def test_flow_numbered():
    flow = Flow(steps=[step(1, "a"), step(None, "b"), step(3, "c")])
    assert len(metrics.flow_numbered(flow)) == 1
    assert metrics.flow_numbered(Flow(steps=[step(1, "a"), step(2, "b")])) == []


def test_flow_ordered_strict_increment():
    assert metrics.flow_ordered(Flow(steps=[step(1, "a"), step(2, "b")])) == []
    assert len(metrics.flow_ordered(Flow(steps=[step(1, "a"), step(3, "b")]))) == 1
    assert len(metrics.flow_ordered(Flow(steps=[step(2, "a"), step(1, "b")]))) == 1


def test_flow_starts_with_1():
    assert metrics.flow_starts_with_1(Flow(steps=[step(1, "a")])) == []
    assert len(metrics.flow_starts_with_1(Flow(steps=[step(2, "a")]))) == 1
    assert metrics.flow_starts_with_1(Flow(steps=[])) == []


def test_origin_described_check():
    check = metrics.FLOW_CHECKS["OriginDescribed?"]
    assert check(BranchFlow(id="A1", origin="2")) == []
    # The parser sets the origin from a "step N" in the condition; the
    # check reads the field, not the condition's text.
    named = BranchFlow(
        id="A1",
        condition=Sentence(text="If the code is wrong at step 2"),
        span=SourceSpan(3, 9, 2),
    )
    assert check(named) == [named.span]
    bare = BranchFlow(id="A1", condition=Sentence(text="If the code is wrong"))
    assert check(bare) == [bare.span]


def test_return_exist_check():
    check = metrics.FLOW_CHECKS["ReturnExist?"]
    assert check(BranchFlow(id="A1", return_to="1")) == []
    assert check(BranchFlow(id="E1", return_to="end")) == []
    # The parser sets return_to from a return phrase in the steps; the
    # check reads the field, not the steps' text.
    phrased = BranchFlow(
        id="A1",
        steps=[step(1, "The use case returns to step 3.")],
        span=SourceSpan(3, 9, 2),
    )
    assert check(phrased) == [phrased.span]
    none = BranchFlow(id="A1", steps=[step(1, "System shows a page.")])
    assert check(none) == [none.span]


def test_reason_exist_check():
    check = metrics.FLOW_CHECKS["ReasonExist?"]
    assert check(BranchFlow(id="A1", condition=Sentence(text="If x"))) == []
    flow = BranchFlow(id="A1", span=SourceSpan(3, 9, 2))
    assert check(flow) == [flow.span]


# A reference for the two branch checks that reads the flow's text: a flow
# describes its origin when it has one or its condition names a step, and
# has a return when it has a return target or a step sentence holds a
# return phrase. The patterns match where the parser's do; the field
# checks equal it because the parser fills the fields in from that text.
_REF_STEP_NAME_RE = re.compile(r"\bstep\s+(\d+)\b", re.IGNORECASE)
_REF_RETURN_RE = re.compile(
    r"\breturns?\s+to\s+(?:step\s+(\d+)|(?:the\s+)?basic\s+flow|(end))\b"
    r"|\buse\s+case\s+ends\b",
    re.IGNORECASE,
)


def ref_origin_described(flow):
    if flow.origin is not None:
        return True
    return flow.condition is not None and bool(
        _REF_STEP_NAME_RE.search(flow.condition.text)
    )


def ref_return_exists(flow):
    if flow.return_to is not None:
        return True
    return any(
        _REF_RETURN_RE.search(s.text) for st in flow.steps for s in st.sentences
    )


# Conditions that name a step "in step N" or in a later sentence, return
# phrases mid-sentence or in a step's second sentence, and a return phrase
# in a condition, which is no return.
_BRANCH_PHRASES = (
    "Basic Flow:\n1. A does B.\n2. C does D.\n3. E does F.\n"
    "Alternate Flows:\n"
    "A1 If the code is wrong in step 2\n"
    "A1.1 The system warns and then returns to step 3 after a pause.\n"
    "A2 When the card is stuck in Step 1, the system beeps\n"
    "A2.1 The clerk says the use case ends soon, then waits.\n"
    "A3 If the host is slow\n"
    "The system retries, and it returns to the basic flow when done.\n"
    "A4 If the pin is wrong. See step 2.\n"
    "A4.1 The system shows a page. Then it returns to end quietly.\n"
    "A5 If the user returns to step 1\n"
    "A5.1 The system shows a page.\n"
    "Exception Flows:\n"
    "E1 If the printer jams in step 3\n"
    "E1.1 The system reports the jam. The use case ends for the clerk.\n"
    "E2. The system stops.\n"
)


def _branch_corpus():
    texts = [p.read_text("utf-8") for p in sorted(FIXTURES.glob("*.ucd"))]
    texts += [_BROKEN_BRANCH_NUMBERING, _BRANCH_PHRASES]
    texts += [
        d.text for d in seeding.seeded_documents() + seeding.clean_documents()
    ]
    texts += [largedoc.generate(seed, 300).text for seed in (1, 2, 3)]
    for text in texts:
        doc, _ = parse_text(text)
        yield doc
        yield parse_json(serialize(doc))[0]


def test_branch_checks_equal_the_text_reference():
    origin = metrics.FLOW_CHECKS["OriginDescribed?"]
    returns = metrics.FLOW_CHECKS["ReturnExist?"]
    outcomes = set()
    for doc in _branch_corpus():
        for flow in doc.alternate_flows + doc.exception_flows:
            want = (ref_origin_described(flow), ref_return_exists(flow))
            assert origin(flow) == ([] if want[0] else [flow.span]), flow.id
            assert returns(flow) == ([] if want[1] else [flow.span]), flow.id
            outcomes |= {("origin", want[0]), ("return", want[1])}
    # Both checks both hold and fail somewhere in the corpus.
    assert len(outcomes) == 4


EXPECTED_PREDICATES = {
    "BasicFlowNumbered?",
    "ExceptionFlowsNumbered?",
    "AlternateFlowsNumbered?",
    "BasicFlowOrdered?",
    "ExceptionFlowsOrdered?",
    "AlternateFlowsOrdered?",
    "BasicFlowStartWith1?",
    "ExceptionFlowsStartWith1?",
    "AlternateFlowsStartWith1?",
    "ExceptionFlowsOriginDescribed?",
    "AlternateFlowsOriginDescribed?",
    "ActorSectionExist?",
    "ExceptionFlowsSectionExist?",
    "AlternateFlowsSectionExist?",
    "PreconditionsSectionExist?",
    "PostconditionsSectionExist?",
    "OverviewSectionExist?",
    "NameSectionExist?",
    "ExceptionFlowsReturnExist?",
    "AlternateFlowsReturnExist?",
    "ExceptionFlowsReasonExist?",
    "AlternateFlowsReasonExist?",
}


def test_all_22_predicates_present():
    assert set(PREDICATES) == EXPECTED_PREDICATES
    assert len(PREDICATES) == 22


def test_predicates_vacuous_on_absent_sections():
    empty = UseCaseDescription()
    for name in EXPECTED_PREDICATES:
        result = PREDICATES[name](empty)
        if name == "NameSectionExist?" or "SectionExist" in name:
            continue  # existence predicates genuinely fail on an empty doc
        assert result.holds, name


def test_section_exist_predicates_fail_on_empty_doc():
    empty = UseCaseDescription()
    for name in EXPECTED_PREDICATES:
        if "SectionExist" in name:
            assert not PREDICATES[name](empty).holds, name


def test_predicates_on_fixture(atm_doc):
    assert not PREDICATES["ActorSectionExist?"](atm_doc).holds
    assert PREDICATES["BasicFlowNumbered?"](atm_doc).holds
    assert PREDICATES["BasicFlowOrdered?"](atm_doc).holds
    assert PREDICATES["BasicFlowStartWith1?"](atm_doc).holds
    assert PREDICATES["AlternateFlowsOriginDescribed?"](atm_doc).holds
    assert PREDICATES["AlternateFlowsReturnExist?"](atm_doc).holds


def test_failing_predicate_carries_witnesses():
    doc, _ = parse_text("Basic Flow:\n1. A does B.\n3. C does D.\n")
    result = PREDICATES["BasicFlowOrdered?"](doc)
    assert not result.holds
    assert len(result.witnesses) == 1
