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
from ucsmell.parser import parse_text
from ucsmell.textanalysis import analyze_sentence


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


def test_branch_origin_described():
    with_origin = BranchFlow(id="A1", origin="2")
    assert metrics.branch_origin_described(with_origin)
    via_condition = BranchFlow(
        id="A1", condition=Sentence(text="If the code is wrong at step 2")
    )
    assert metrics.branch_origin_described(via_condition)
    bare = BranchFlow(id="A1", condition=Sentence(text="If the code is wrong"))
    assert not metrics.branch_origin_described(bare)


def test_branch_return_exists():
    explicit = BranchFlow(id="A1", return_to="1")
    assert metrics.branch_return_exists(explicit)
    phrased = BranchFlow(
        id="A1",
        steps=[step(1, "The use case returns to step 3.")],
    )
    assert metrics.branch_return_exists(phrased)
    ends = BranchFlow(id="E1", steps=[step(1, "The use case ends here.")])
    assert metrics.branch_return_exists(ends)
    none = BranchFlow(id="A1", steps=[step(1, "System shows a page.")])
    assert not metrics.branch_return_exists(none)


def test_branch_reason_exists():
    assert metrics.branch_reason_exists(
        BranchFlow(id="A1", condition=Sentence(text="If x"))
    )
    assert not metrics.branch_reason_exists(BranchFlow(id="A1"))


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
