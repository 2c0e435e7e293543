import json

import pytest

from ucsmell.engine import DetectorConfig, detect
from ucsmell.model import END, ActorDecl, SectionKind, StepRef
from ucsmell.parser import (
    Severity,
    parse_json,
    parse_text,
    serialize,
    split_sentences,
)
from ucsmell.textanalysis import analyze_document

from conftest import FIXTURES, parse_fixture


def test_atm_fixture_structure(atm_doc):
    assert atm_doc.name == "Withdraw money with ATM"
    assert atm_doc.overview.startswith("A cash card holder")
    assert atm_doc.actors is None
    assert len(atm_doc.preconditions) == 1
    assert len(atm_doc.postconditions) == 1
    assert len(atm_doc.basic_flow.steps) == 10
    assert [s.number for s in atm_doc.basic_flow.steps] == list(range(1, 11))
    assert len(atm_doc.alternate_flows) == 2
    assert len(atm_doc.exception_flows) == 1


def test_atm_branch_flow_details(atm_doc):
    a1, a2 = atm_doc.alternate_flows
    assert (a1.id, a2.id) == ("A1", "A2")
    assert a1.condition.text.startswith("If the account lacks")
    assert a1.origin == StepRef(SectionKind.BASIC_FLOW, "6")
    assert a1.return_to == StepRef(SectionKind.BASIC_FLOW, "5")
    assert a2.return_to == StepRef(SectionKind.BASIC_FLOW, "1")
    e1 = atm_doc.exception_flows[0]
    assert e1.condition.text.startswith("When the bank host rejects")
    assert e1.origin == StepRef(SectionKind.BASIC_FLOW, "4")
    assert e1.return_to is END


def test_section_header_lines(atm_doc):
    assert atm_doc.section_header_lines[SectionKind.BASIC_FLOW] == 7
    assert atm_doc.section_header_lines[SectionKind.ALTERNATE_FLOWS] == 18


def test_description_header_is_overview_alias():
    doc, _ = parse_text("Description: Short summary.\nBasic Flow:\n1. A does B.\n")
    assert doc.overview == "Short summary."


def test_headers_case_insensitive():
    doc, _ = parse_text("NAME: X\nbasic flow:\n1. A does B.\n")
    assert doc.name == "X"
    assert len(doc.basic_flow.steps) == 1


@pytest.mark.parametrize(
    "header, kind",
    [
        ("nAmE", SectionKind.NAME),
        ("OvErViEw", SectionKind.OVERVIEW),
        ("DESCRIPTION", SectionKind.OVERVIEW),
        ("aCtOrS", SectionKind.ACTORS),
        ("PreConditions", SectionKind.PRECONDITIONS),
        ("postCONDITIONS", SectionKind.POSTCONDITIONS),
        ("bAsIc FlOw", SectionKind.BASIC_FLOW),
        ("ALTERNATE flows", SectionKind.ALTERNATE_FLOWS),
        ("Exception FLOWS", SectionKind.EXCEPTION_FLOWS),
    ],
)
def test_every_header_spelling_in_mixed_case(header, kind):
    doc, _ = parse_text(f"  {header} :\n")
    assert doc.section_header_lines == {kind: 1}
    doc, _ = parse_text(f"{header}s:\n")  # no other spelling is a header
    assert doc is None


def test_unknown_line_outside_section_warns():
    doc, diags = parse_text("stray text\nName: X\nBasic Flow:\n1. A does B.\n")
    assert doc is not None
    assert any(
        d.severity is Severity.WARNING and "outside" in d.message for d in diags
    )


def test_empty_input_is_error():
    doc, diags = parse_text("just some words\n")
    assert doc is None
    assert any(d.severity is Severity.ERROR for d in diags)


def test_missing_basic_flow_warns():
    doc, diags = parse_text("Name: X\nPreconditions:\nA exists.\n")
    assert doc is not None
    assert any("basic flow" in d.message for d in diags)


def test_duplicate_section_header_warns():
    text = "Name: X\nName: Y\nBasic Flow:\n1. A does B.\n"
    doc, diags = parse_text(text)
    assert any("duplicate section" in d.message for d in diags)


def test_duplicate_flow_id_warns():
    text = (
        "Basic Flow:\n1. A does B.\nAlternate Flows:\n"
        "A1 If x at step 1\nA1.1 B happens.\n"
        "A1 If y at step 1\nA1.1 C happens.\n"
    )
    _, diags = parse_text(text)
    assert any("duplicate flow id" in d.message for d in diags)


def test_flow_ids_repeat_within_a_branch_section_only():
    text = (
        "Basic Flow:\n1. A does B.\n"
        "Alternate Flows:\nA1 If x at step 1\nA1.1 B happens.\n"
        "Exception Flows:\nA1 If y at step 1\nA1.1 C fails.\n"
        "Alternate Flows:\nA1 If z at step 1\nA1.1 D happens.\n"
    )
    doc, diags = parse_text(text)
    assert [(d.message, d.line) for d in diags] == [
        ("duplicate section header 'Alternate Flows'", 9),
        ("duplicate flow id 'A1'", 10),
    ]
    assert [f.id for f in doc.alternate_flows] == ["A1", "A1"]
    assert [f.id for f in doc.exception_flows] == ["A1"]
    _, json_diags = parse_json(serialize(doc))
    assert [d.message for d in json_diags] == ["duplicate flow id 'A1'"]


def test_split_sentences_basic():
    parts = split_sentences("First one. Second one! Third?")
    assert [t for t, _ in parts] == ["First one.", "Second one!", "Third?"]


def test_split_sentences_keeps_step_labels_whole():
    parts = split_sentences("Go to A1.1 now. Done.")
    assert [t for t, _ in parts] == ["Go to A1.1 now.", "Done."]


def test_split_sentences_splits_after_trailing_number():
    parts = split_sentences("The flow returns to step 2. Then it ends.")
    assert [t for t, _ in parts] == [
        "The flow returns to step 2.",
        "Then it ends.",
    ]


def test_split_sentences_offsets():
    block = "Alpha beta. Gamma delta."
    for text, off in split_sentences(block):
        assert block[off : off + len(text)] == text


def test_multi_sentence_step():
    doc, _ = parse_text(
        "Basic Flow:\n1. System saves the data. System shows a message.\n"
    )
    assert len(doc.basic_flow.steps[0].sentences) == 2


def test_sentence_spans_point_into_source(atm_doc):
    raw = (FIXTURES / "atm.ucd").read_bytes()
    for _, s in atm_doc.iter_sentences():
        assert raw[s.span.start : s.span.end].decode("utf-8") == s.text


# Each document with the label and number of each step, by flow.
NON_ASCII_DOCS = [
    pytest.param(
        "Basic Flow:\n1. Der Kunde wählt café. Er zahlt.\n",
        {"basic": [("1", 1)]},
        id="german",
    ),
    pytest.param(
        "Preconditions:\n  Ünïcödé précondition holds. Then ok.\n"
        "Basic Flow:\n1. Señor José pays 5 €. The system prints it.\n"
        "Alternate Flows:\nA1 Wenn der Bär kommt at step 1\n"
        "A1.1 Dér Bär isst. Alles gut.\n",
        {"basic": [("1", 1)], "A1": [(None, None), ("A1.1", 1)]},  # "Wenn" is no If
        id="mixed",
    ),
    pytest.param(
        "Basic Flow:\r\n\t1. 😀 emoji first. Then ascii words.\r\n"
        "2. Plain ascii line.\r\n",
        {"basic": [("1", 1), ("2", 2)]},
        id="emoji-crlf",
    ),
    # Every step form: numbered and unnumbered basic lines, labelled
    # branch steps, an unlabeled branch line and a branch header's rest.
    pytest.param(
        "Basic Flow:\n 1. Der Kunde wählt.\n  Dann zahlt er. Gut.\n2) Die Kasse öffnet.\n"
        "Exception Flows:\nE1 When der Bär kommt at step 1\n"
        "  E1.2 Dér Bär isst.\n\tÄrger folgt. Dann Ruhe.\nE1.3) Schluss.\n"
        "E2 – Der Bär schläft. Still.\n",
        {
            "basic": [("1", 1), (None, None), ("2", 2)],
            "E1": [("E1.2", 2), (None, None), ("E1.3", 3)],
            "E2": [(None, None)],
        },
        id="step-forms",
    ),
]


def _step_labels(doc):
    flows = [("basic", doc.basic_flow)]
    flows += [(f.id, f) for f in doc.alternate_flows + doc.exception_flows]
    return {key: [(st.label, st.number) for st in flow.steps] for key, flow in flows}


@pytest.mark.parametrize("source, steps", NON_ASCII_DOCS)
def test_non_ascii_spans_slice_the_utf8_source(source, steps, lexicon):
    doc, _ = parse_text(source)
    analyze_document(doc, lexicon)
    raw = source.encode("utf-8")
    for _, s in doc.iter_sentences():
        assert raw[s.span.start : s.span.end].decode("utf-8") == s.text
        for tok in s.tokens:
            assert raw[tok.span.start : tok.span.end].decode("utf-8") == tok.surface
    assert _step_labels(doc) == steps
    for flow in [doc.basic_flow, *doc.alternate_flows, *doc.exception_flows]:
        for step in flow.steps:
            # A step's span is its line from its label, or from its first
            # sentence when it has none, to the end of its last sentence.
            text = raw[step.span.start : step.span.end].decode("utf-8")
            assert text.startswith(step.label or step.sentences[0].text)
            assert text.endswith(step.sentences[-1].text)
    assert _step_labels(parse_json(serialize(doc))[0]) == steps


@pytest.mark.parametrize("name", ["atm.ucd", "clean.ucd", "search.ucd"])
def test_roundtrip_identity(name):
    doc, _ = parse_fixture(name)
    doc2, diags = parse_json(serialize(doc))
    assert not diags
    assert doc2 == doc


def test_serialize_is_valid_json(atm_doc):
    obj = json.loads(serialize(atm_doc))
    assert obj["name"] == "Withdraw money with ATM"
    assert obj["alternate_flows"][0]["origin"] == "6"
    assert obj["alternate_flows"][0]["return_to"] == "5"
    assert obj["exception_flows"][0]["return_to"] == "end"


def test_parse_json_rejects_non_object():
    doc, diags = parse_json("[1, 2]")
    assert doc is None
    assert diags[0].severity is Severity.ERROR


def test_parse_json_rejects_invalid_json():
    doc, diags = parse_json("{not json")
    assert doc is None
    assert "invalid JSON" in diags[0].message


def test_parse_json_keeps_duplicate_flow_ids_with_a_warning():
    src = json.dumps(
        {
            "basic_flow": [{"label": "1", "text": "A does B."}],
            "alternate_flows": [
                {"id": "A1", "steps": []},
                {"id": "A1", "steps": []},
            ],
        }
    )
    doc, diags = parse_json(src)
    assert [f.id for f in doc.alternate_flows] == ["A1", "A1"]
    assert [(d.severity, d.message) for d in diags] == [
        (Severity.WARNING, "duplicate flow id 'A1'")
    ]


def test_duplicate_flow_ids_round_trip_with_the_same_warning():
    text = (
        "Basic Flow:\n1. A does B.\nAlternate Flows:\n"
        "A1 If x at step 1\nA1.1 B happens.\n"
        "A1 If y at step 1\nA1.1 C happens.\n"
        "Exception Flows:\nE1 If z at step 1\nE1.1 D fails.\n"
        "E1 If w at step 1\nE1.1 E fails.\nE1 If v at step 1\nE1.1 F fails.\n"
    )
    doc, text_diags = parse_text(text)
    again, json_diags = parse_json(serialize(doc))
    assert again == doc
    messages = ["duplicate flow id 'A1'"] + ["duplicate flow id 'E1'"] * 2
    assert [d.message for d in text_diags] == messages
    assert [d.message for d in json_diags] == messages


def test_parse_json_rederives_origin_and_return():
    src = json.dumps(
        {
            "basic_flow": [{"label": "1", "text": "A does B."}],
            "alternate_flows": [
                {
                    "id": "A1",
                    "condition": "If B fails at step 1",
                    "steps": [{"label": "A1.1", "text": "C returns to step 1."}],
                }
            ],
        }
    )
    doc, diags = parse_json(src)
    assert not diags
    flow = doc.alternate_flows[0]
    assert flow.origin == StepRef(SectionKind.BASIC_FLOW, "1")
    assert flow.return_to == StepRef(SectionKind.BASIC_FLOW, "1")


def test_parse_json_wrong_field_type():
    doc, diags = parse_json(json.dumps({"name": 42}))
    assert doc is None
    assert "'name'" in diags[0].message


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("name", 42, "'name' must be a string"),
        ("overview", ["x"], "'overview' must be a string"),
        ("actors", "Clerk", "'actors' must be an array"),
        ("preconditions", "A exists.", "'preconditions' must be an array of strings"),
        ("postconditions", [1], "'postconditions' must be an array of strings"),
        ("basic_flow", {"text": "A does B."}, "'basic_flow' must be an array"),
        ("alternate_flows", {}, "'alternate_flows' must be an array"),
        ("exception_flows", None, "'exception_flows' must be an array"),
    ],
)
def test_parse_json_names_each_top_level_key_of_the_wrong_type(key, value, message):
    doc, diags = parse_json(json.dumps({key: value}))
    assert doc is None
    assert diags == [(Severity.ERROR, message, 0)]
    # Keys are checked in section order: an earlier section's error wins.
    obj = {"exception_flows": 1, key: value}
    assert parse_json(json.dumps(obj))[1] == diags


@pytest.mark.parametrize("description", [["x"], 3, {"text": "x"}, True])
def test_parse_json_rejects_an_actor_description_that_is_not_a_string(description):
    obj = {"actors": [{"name": "Clerk", "description": description}]}
    doc, diags = parse_json(json.dumps(obj))
    assert doc is None
    assert diags == [(Severity.ERROR, "actor 'description' must be a string", 0)]


@pytest.mark.parametrize(
    "actor", [{"name": "Clerk"}, {"name": "Clerk", "description": None}]
)
def test_parse_json_actor_without_a_description(actor):
    doc, diags = parse_json(json.dumps({"actors": [actor]}))
    assert diags == [(Severity.WARNING, "no basic flow section", 0)]
    assert doc.actors == [ActorDecl("Clerk")]
    assert serialize(doc) == '{\n  "actors": [\n    {\n      "name": "Clerk"\n    }\n  ]\n}\n'


def test_both_front_ends_warn_of_a_missing_basic_flow():
    doc, diags = parse_text("Name: X\nActors:\nA\n")
    warning = [(Severity.WARNING, "no basic flow section", 0)]
    assert diags == warning
    assert parse_json(serialize(doc)) == (doc, warning)
    assert parse_json(json.dumps({"basic_flow": []}))[1] == warning


def test_front_ends_warn_in_document_order():
    condition = "If the card is invalid. The system beeps."
    text = (
        "Basic Flow:\n1. A does B.\nAlternate Flows:\n"
        "A1 If x at step 1\nA1.1 B happens.\n"
        "A1 If y at step 1\nA1.1 C happens.\n"
        f"Exception Flows:\nE1 {condition}\nE1.1 D fails.\n"
    )
    steps = [{"label": "1", "text": "A does B."}]
    alternate = [
        {"id": "A1", "condition": "If x at step 1",
         "steps": [{"label": "A1.1", "text": "B happens."}]},
        {"id": "A1", "condition": "If y at step 1",
         "steps": [{"label": "A1.1", "text": "C happens."}]},
    ]
    exception = [
        {"id": "E1", "condition": condition,
         "steps": [{"label": "E1.1", "text": "D fails."}]},
    ]
    obj = {"basic_flow": steps, "alternate_flows": alternate,
           "exception_flows": exception}
    text_doc, text_diags = parse_text(text)
    json_doc, json_diags = parse_json(json.dumps(obj))
    assert json_doc == text_doc
    messages = [
        "duplicate flow id 'A1'",
        "content after the condition's first sentence ignored",
    ]
    assert [d.message for d in text_diags] == messages
    assert [d.message for d in json_diags] == messages
    # A repeated id is warned at its flow, before that flow's condition.
    exception.append(dict(exception[0]))
    _, json_diags = parse_json(json.dumps(obj))
    assert [d.message for d in json_diags] == messages + [
        "duplicate flow id 'E1'",
        "content after the condition's first sentence ignored",
    ]
    _, text_diags = parse_text(text + f"E1 {condition}\nE1.1 D fails.\n")
    assert [d.message for d in text_diags] == [d.message for d in json_diags]


def test_unlabeled_return_line_is_marker_not_step():
    text = (
        "Basic Flow:\n1. A does B.\nAlternate Flows:\n"
        "A1 If x at step 1\nA1.1 System retries the call.\nReturn to step 1.\n"
    )
    doc, _ = parse_text(text)
    flow = doc.alternate_flows[0]
    assert flow.return_to == StepRef(SectionKind.BASIC_FLOW, "1")
    assert len(flow.steps) == 1


@pytest.mark.parametrize(
    "branch",
    ["A1. If the card is invalid. The system beeps.",
     "A1\nIf the card is invalid. The system beeps."],
    ids=["header-rest", "own-line"],
)
def test_text_after_the_condition_sentence_warns(branch):
    text = f"Basic Flow:\n1. A does B.\nAlternate Flows:\n{branch}\nA1.1 C does D.\n"
    doc, diags = parse_text(text)
    flow = doc.alternate_flows[0]
    assert flow.condition.text == "If the card is invalid."
    assert [s.text for step in flow.steps for s in step.sentences] == ["C does D."]
    line = text.split("\n").index(branch.split("\n")[-1]) + 1
    assert [(d.severity, d.message, d.line) for d in diags] == [
        (Severity.WARNING, "content after the condition's first sentence ignored", line)
    ]


def test_one_sentence_condition_does_not_warn():
    text = "Basic Flow:\n1. A does B.\nAlternate Flows:\nA1 If the card is invalid.\n"
    doc, diags = parse_text(text)
    assert doc.alternate_flows[0].condition.text == "If the card is invalid."
    assert diags == []


def test_json_condition_keeps_its_first_sentence_with_a_warning():
    condition = "If the card is invalid. The system beeps."
    steps = [{"label": "A1.1", "text": "C does D."}]
    flows = [{"id": "A1", "condition": condition, "steps": steps}]
    doc, diags = parse_json(json.dumps({"alternate_flows": flows}))
    assert doc.alternate_flows[0].condition.text == "If the card is invalid."
    no_basic_flow = (Severity.WARNING, "no basic flow section", 0)
    assert [(d.severity, d.message, d.line) for d in diags] == [
        (Severity.WARNING, "content after the condition's first sentence ignored", 0),
        no_basic_flow,
    ]
    text_doc, _ = parse_text(f"Alternate Flows:\nA1 {condition}\nA1.1 C does D.\n")
    assert doc.alternate_flows == text_doc.alternate_flows
    # A condition with no sentence is no condition, without a warning of
    # its own.
    flows[0]["condition"] = "  "
    doc, diags = parse_json(json.dumps({"alternate_flows": flows}))
    assert (doc.alternate_flows[0].condition, diags) == (None, [no_basic_flow])


@pytest.mark.parametrize("blank", ["", "   ", "\n\t"])
def test_blank_json_condition_is_no_condition(lexicon, blank):
    # The text front-end has no way to write an empty condition: a branch
    # without an If/When line has none. A blank JSON one must read the same.
    steps = [{"label": f"{n}", "text": "The system shows the page."} for n in (1, 2, 3)]
    flow = {"id": "E1", "origin": "1", "return_to": "end", "steps": steps[:1]}
    obj = {"basic_flow": steps, "exception_flows": [flow]}
    absent, _ = parse_json(json.dumps(obj))
    flow["condition"] = blank
    doc, diags = parse_json(json.dumps(obj))
    assert diags == []
    assert doc.exception_flows[0].condition is None
    assert doc == absent
    assert len(list(doc.iter_sentences())) == 4
    cfg = DetectorConfig()
    found = detect(doc, cfg, lexicon)
    assert "unexplained-exception-flow" in {f.smell_id for f in found}
    assert found == detect(absent, cfg, lexicon)


def test_both_front_ends_take_the_last_return_phrase():
    text = (
        "Basic Flow:\n1. A does B.\nAlternate Flows:\nA1 If x at step 1\n"
        "A1.1 C returns to step 2.\nA1.2 D returns to step 4.\n"
    )
    text_doc, _ = parse_text(text)
    steps = [
        {"label": "A1.1", "text": "C returns to step 2."},
        {"label": "A1.2", "text": "D returns to step 4."},
    ]
    flows = [{"id": "A1", "condition": "If x at step 1", "steps": steps}]
    json_doc, _ = parse_json(json.dumps({"alternate_flows": flows}))
    want = StepRef(SectionKind.BASIC_FLOW, "4")
    assert text_doc.alternate_flows[0].return_to == want
    assert json_doc.alternate_flows[0].return_to == want
    assert parse_json(serialize(text_doc))[0] == text_doc
