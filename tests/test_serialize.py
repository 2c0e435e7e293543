"""serialize writes exactly the text of the dict-building reference below:
json.dumps(obj, indent=2, ensure_ascii=False) plus a newline."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import largedoc
import seeding
from conftest import FIXTURES
from ucsmell.model import (
    END,
    ActorDecl,
    BranchFlow,
    EndMarker,
    Flow,
    SectionKind,
    Sentence,
    Step,
    StepRef,
    UseCaseDescription,
)
from ucsmell.parser import parse_text, serialize


def reference(doc: UseCaseDescription) -> str:
    """The canonical JSON text, built as a dict and encoded by json.dumps."""
    obj: dict = {}
    if doc.name is not None:
        obj["name"] = doc.name
    if doc.overview is not None:
        obj["overview"] = doc.overview
    if doc.actors is not None:
        obj["actors"] = [
            {"name": a.name, **({"description": a.description} if a.description else {})}
            for a in doc.actors
        ]
    if doc.preconditions is not None:
        obj["preconditions"] = [s.text for s in doc.preconditions]
    if doc.postconditions is not None:
        obj["postconditions"] = [s.text for s in doc.postconditions]
    if doc.basic_flow is not None:
        obj["basic_flow"] = [_step_obj(s) for s in doc.basic_flow.steps]
    if doc.alternate_flows:
        obj["alternate_flows"] = [_flow_obj(f) for f in doc.alternate_flows]
    if doc.exception_flows:
        obj["exception_flows"] = [_flow_obj(f) for f in doc.exception_flows]
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _step_obj(step: Step) -> dict:
    obj: dict = {}
    if step.label is not None:
        obj["label"] = step.label
    obj["text"] = " ".join(s.text for s in step.sentences)
    return obj


def _flow_obj(flow: BranchFlow) -> dict:
    obj: dict = {"id": flow.id}
    if flow.condition is not None:
        obj["condition"] = flow.condition.text
    if flow.origin is not None:
        obj["origin"] = flow.origin.label
    if flow.return_to is not None:
        obj["return_to"] = (
            "end" if isinstance(flow.return_to, EndMarker) else flow.return_to.label
        )
    obj["steps"] = [_step_obj(s) for s in flow.steps]
    return obj


def _parsed(text: str) -> UseCaseDescription:
    doc, diags = parse_text(text)
    assert doc is not None, diags
    return doc


_SUITE = seeding.seeded_documents() + seeding.clean_documents()


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ucd")), ids=lambda p: p.name)
def test_serialize_equals_reference_on_fixtures(path):
    doc = _parsed(path.read_text("utf-8"))
    assert serialize(doc) == reference(doc)


def test_serialize_equals_reference_on_the_seeded_and_clean_suite():
    for seeded in _SUITE:
        doc = _parsed(seeded.text)
        assert serialize(doc) == reference(doc), seeded.name


@pytest.mark.parametrize("steps", [100, 1000, 10000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serialize_equals_reference_on_large_documents(seed, steps):
    doc = _parsed(largedoc.generate(seed, steps).text)
    assert serialize(doc) == reference(doc)


def test_empty_containers():
    assert serialize(UseCaseDescription()) == "{}\n"
    doc = UseCaseDescription(
        actors=[], preconditions=[], postconditions=[], basic_flow=Flow(steps=[])
    )
    doc.alternate_flows = [BranchFlow(id="A1")]
    assert serialize(doc) == reference(doc)
    assert '"actors": [],' in serialize(doc)
    assert '"steps": []\n' in serialize(doc)


# --- documents built from model objects -----------------------------------

# Characters json.dumps escapes, or writes as they are only because
# ensure_ascii is off, mixed with plain ones.
_SPECIAL = ['"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\n", "\t", "\r",
            "\u2028", "\u2029", "é", "ß", "Ω", "中", "\U0001d11e", "\U0001f600"]
text_st = st.one_of(
    st.just(""),
    st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters()), max_size=12),
)
sentences_st = st.lists(text_st.map(Sentence), max_size=3)
step_st = st.builds(
    lambda label, sentences: Step(label=label, number=None, sentences=sentences),
    st.one_of(st.none(), text_st),
    st.lists(text_st.map(Sentence), min_size=1, max_size=3),  # often several
)
steps_st = st.lists(step_st, max_size=4)  # often none
step_ref_st = text_st.map(lambda label: StepRef(SectionKind.BASIC_FLOW, label))
flow_st = st.builds(
    BranchFlow,
    id=text_st,
    condition=st.one_of(st.none(), text_st.map(Sentence)),
    origin=st.one_of(st.none(), step_ref_st),
    return_to=st.one_of(st.none(), st.just(END), step_ref_st),
    steps=steps_st,
)
actor_st = st.builds(ActorDecl, text_st, st.one_of(st.none(), st.just(""), text_st))
model_document_st = st.builds(
    UseCaseDescription,
    name=st.one_of(st.none(), text_st),
    overview=st.one_of(st.none(), text_st),
    actors=st.one_of(st.none(), st.lists(actor_st, max_size=3)),
    preconditions=st.one_of(st.none(), sentences_st),
    postconditions=st.one_of(st.none(), sentences_st),
    basic_flow=st.one_of(st.none(), steps_st.map(Flow)),
    alternate_flows=st.lists(flow_st, max_size=3),
    exception_flows=st.lists(flow_st, max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(doc=model_document_st)
def test_serialize_equals_reference_on_model_documents(doc):
    assert serialize(doc) == reference(doc)
