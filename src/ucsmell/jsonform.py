"""The canonical JSON interchange format: its reader, parse_json, and its
writer, serialize.

parser.parse_json and parser.serialize forward here, so a lint of the
plain-text format never compiles this module. A document read from JSON
goes through the text front-end's checks (_checked, _read_condition,
_note_return), so both front-ends warn alike and fill in the same
fields; it carries no positions.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from typing import Optional

from .model import (
    SECTION_FIELD,
    ActorDecl,
    BranchFlow,
    Flow,
    SectionKind,
    Sentence,
    Step,
    UseCaseDescription,
)
from .parser import (
    _CONDITION_SECTIONS,
    _TEXT_SECTIONS,
    ParseDiagnostic,
    Severity,
    _checked,
    _note_return,
    _one_sentence,
    _read_condition,
    _trailing_number,
    split_sentences,
)


def serialize(doc: UseCaseDescription) -> str:
    """Render a document in the canonical JSON interchange format: the text of
    json.dumps(obj, indent=2, ensure_ascii=False) + "\\n", written directly."""
    out = ["{"]  # the text in pieces; each member starts with ","
    for key in ("name", "overview"):
        text = getattr(doc, key)
        if text is not None:
            out.append(f',\n  "{key}": {_quote(text)}')
    if doc.actors is not None:
        actors = [f'{{\n      "name": {_quote(a.name)}' + (
            f',\n      "description": {_quote(a.description)}' if a.description else ""
        ) + "\n    }" for a in doc.actors]
        out.append(f',\n  "actors": {_array("  ", actors)}')
    for key in ("preconditions", "postconditions"):
        sents = getattr(doc, key)
        if sents is not None:
            out.append(f',\n  "{key}": {_array("  ", [_quote(s.text) for s in sents])}')
    if doc.basic_flow is not None:
        out += (',\n  "basic_flow": ', _steps_json("  ", doc.basic_flow))
    for key in ("alternate_flows", "exception_flows"):
        flows = getattr(doc, key)
        if flows:
            out.append(f',\n  "{key}": [')
            for flow in flows:
                out.append(f'\n    {{\n      "id": {_quote(flow.id)}')
                if flow.condition is not None:
                    out.append(f',\n      "condition": {_quote(flow.condition.text)}')
                if flow.origin is not None:
                    out.append(f',\n      "origin": {_quote(flow.origin)}')
                if flow.return_to is not None:
                    out.append(f',\n      "return_to": {_quote(flow.return_to)}')
                out += (',\n      "steps": ', _steps_json("      ", flow), "\n    },")
            out[-1] = "\n    }\n  ]"
    if len(out) == 1:
        return "{}\n"
    out[1] = out[1][1:]  # no "," before the first member
    out.append("\n}\n")
    return "".join(out)


def _array(pad: str, items: list[str]) -> str:
    """A JSON array at indent pad of its elements' JSON texts."""
    inner = ",\n" + pad + "  "
    return f"[\n{pad}  {inner.join(items)}\n{pad}]" if items else "[]"


def _steps_json(pad: str, flow: Flow | BranchFlow) -> str:
    q, nl, end = _quote, "\n" + pad + "    ", "\n" + pad + "  }"
    items = []
    for step in flow.steps:
        sents = step.sentences  # mostly one: then no join
        text = sents[0].text if len(sents) == 1 else " ".join([s.text for s in sents])
        if step.label is None:
            items.append(f'{{{nl}"text": {q(text)}{end}')
        else:
            items.append(f'{{{nl}"label": {q(step.label)},{nl}"text": {q(text)}{end}')
    return _array(pad, items)


class _SchemaError(Exception):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise _SchemaError(msg)


def parse_json(source: str) -> tuple[Optional[UseCaseDescription], list[ParseDiagnostic]]:
    """The document source holds in the canonical JSON form, with the
    diagnostics; None and one error when it is not JSON or breaks the schema."""
    try:
        obj = json.loads(source)
    except json.JSONDecodeError as exc:
        return None, [ParseDiagnostic(Severity.ERROR, f"invalid JSON: {exc}", exc.lineno)]
    diags: list[ParseDiagnostic] = []

    def warn(msg: str, lineno: int) -> None:
        diags.append(ParseDiagnostic(Severity.WARNING, msg, lineno))

    try:
        doc = _doc_from_obj(obj, warn)
    except _SchemaError as exc:
        return None, [ParseDiagnostic(Severity.ERROR, str(exc), 0)]
    return _checked(doc, warn), diags


def _doc_from_obj(obj, warn) -> UseCaseDescription:
    _expect(isinstance(obj, dict), "top level must be an object")
    doc = UseCaseDescription()
    for kind, key in SECTION_FIELD.items():  # in section order, as serialize writes
        if key not in obj:
            continue
        value = obj[key]
        if kind in _TEXT_SECTIONS:
            _expect(isinstance(value, str), f"'{key}' must be a string")
        elif kind in _CONDITION_SECTIONS:
            _expect(
                isinstance(value, list) and all(isinstance(s, str) for s in value),
                f"'{key}' must be an array of strings",
            )
            value = [Sentence(text=t) for raw in value for t, _ in split_sentences(raw)]
        else:
            _expect(isinstance(value, list), f"'{key}' must be an array")
            if kind is SectionKind.ACTORS:
                value = [_actor_from_obj(a) for a in value]
            elif kind is SectionKind.BASIC_FLOW:
                value = Flow(steps=[_step_from_obj(s) for s in value])
            else:
                ids: set[str] = set()
                value = [_branch_from_obj(f, ids, warn) for f in value]
        setattr(doc, key, value)
    return doc


def _actor_from_obj(obj) -> ActorDecl:
    _expect(
        isinstance(obj, dict) and isinstance(obj.get("name"), str),
        "actor entries must be objects with a 'name' string",
    )
    desc = obj.get("description")
    _expect(desc is None or isinstance(desc, str), "actor 'description' must be a string")
    return ActorDecl(obj["name"], desc)


def _step_from_obj(obj) -> Step:
    _expect(
        isinstance(obj, dict) and isinstance(obj.get("text"), str),
        "steps must be objects with a 'text' string",
    )
    text = obj["text"].strip()
    _expect(text, "step 'text' must not be blank")
    label = obj.get("label")
    _expect(
        label is None or isinstance(label, str), "step 'label' must be a string"
    )
    if _one_sentence(text):  # as split_sentences would give it
        sentences = [Sentence(text)]
    else:
        sentences = [Sentence(t) for t, _ in split_sentences(obj["text"])]
    return Step(label, _trailing_number(label) if label else None, sentences)


def _branch_from_obj(obj, ids: set[str], warn) -> BranchFlow:
    """The flow obj describes. ids holds the ids of the section's earlier
    flows: like parse_text, warn of a repeated one before the condition."""
    _expect(
        isinstance(obj, dict) and isinstance(obj.get("id"), str) and obj["id"],
        "flows must be objects with a non-empty 'id' string",
    )
    flow = BranchFlow(id=obj["id"])
    if flow.id in ids:
        warn(f"duplicate flow id '{flow.id}'", 0)
    ids.add(flow.id)
    text = obj.get("condition")
    if text is not None:
        _expect(isinstance(text, str), "'condition' must be a string")
        sents = [Sentence(text=t) for t, _ in split_sentences(text)]
        _read_condition(flow, sents, 0, warn)
    for key in ("origin", "return_to"):
        if obj.get(key) is not None:
            _expect(isinstance(obj[key], str), f"'{key}' must be a string")
            setattr(flow, key, obj[key])
    _expect(isinstance(obj.get("steps"), list), "flows must carry a 'steps' array")
    flow.steps = [_step_from_obj(s) for s in obj["steps"]]
    if flow.return_to is None:  # the last return phrase wins, as in parse_text
        for step in flow.steps:
            _note_return(flow, " ".join(s.text for s in step.sentences))
    return flow
