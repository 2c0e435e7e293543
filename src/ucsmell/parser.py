"""Readers for the line-oriented plain-text format and the canonical
JSON interchange format, plus the matching serializer.

The plain-text grammar is deliberately small: colon-terminated section
headers, numbered steps inside flow sections, and A<n>/E<n> branch
headers whose first If/When line is the branch condition. See the
bundled fixtures for complete examples.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from itertools import accumulate
from json.encoder import encode_basestring as _quote
from typing import NamedTuple, Optional

from .model import (
    END,
    SECTION_FIELD,
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


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


class ParseDiagnostic(NamedTuple):
    severity: Severity
    message: str
    line: int


# Each section's header, lowercased, and its one alias.
_HEADERS = {kind.value.lower(): kind for kind in SectionKind}
_HEADERS["description"] = SectionKind.OVERVIEW
_TEXT_SECTIONS = (SectionKind.NAME, SectionKind.OVERVIEW)
_CONDITION_SECTIONS = (SectionKind.PRECONDITIONS, SectionKind.POSTCONDITIONS)

_HEADER_RE = re.compile(rf"^({'|'.join(_HEADERS)})\s*:\s*(.*)$", re.IGNORECASE)
_STEP_RE = re.compile(r"^(\d+)[.)]\s+(.*)$")
_BRANCH_STEP_RE = re.compile(r"^([AE]\d+\.\d+)[.)]?\s+(.*)$")
_BRANCH_HEADER_RE = re.compile(r"^([AE])(\d+)(?!\.\d)\b[\s.:\-]*(.*)$")
_CONDITION_RE = re.compile(r"^(if|when)\b", re.IGNORECASE)
_AT_STEP_RE = re.compile(r"\bat step\s+(\d+)\b", re.IGNORECASE)
_ORIGIN_RE = re.compile(r"^origin\s*:\s*(?:step\s+)?(\d+)\s*$", re.IGNORECASE)
RETURN_RE = re.compile(
    r"\breturns?\s+to\s+(?:step\s+(\d+)|(?:the\s+)?basic\s+flow|(end))\b"
    r"|\buse\s+case\s+ends\b",
    re.IGNORECASE,
)

# A sentence terminator splits unless it sits in a digit context, as in
# step labels ("A1.1") or trailing numerals ("step 2.").
_SENT_SPLIT_RE = re.compile(r"(?<!\d)[.!?]+(?!\d)|[.!?]+(?=\s|$)(?!\s*\d)|\n")


def split_sentences(block: str) -> list[tuple[str, int]]:
    """Split a text block into (sentence, char offset) pairs."""
    text = block.strip()
    body = text.rstrip(".!?")
    if "." not in body and "!" not in body and "?" not in body and "\n" not in body:
        # The pattern can match only in the trailing run: one sentence.
        return [(text, len(block) - len(block.lstrip()))] if text else []
    out: list[tuple[str, int]] = []
    pos = 0
    for m in _SENT_SPLIT_RE.finditer(block):
        piece = block[pos : m.end()]
        if piece.strip():
            lead = len(piece) - len(piece.lstrip())
            out.append((piece.strip(), pos + lead))
        pos = m.end()
    tail = block[pos:]
    if tail.strip():
        lead = len(tail) - len(tail.lstrip())
        out.append((tail.strip(), pos + lead))
    return out


_TRAILING_NUMBER_RE = re.compile(r"(\d+)$")


def _trailing_number(label: str) -> Optional[int]:
    m = _TRAILING_NUMBER_RE.search(label)
    return int(m.group(1)) if m else None


class _Lines:
    """Source lines with byte offsets; offsets index the UTF-8 encoding."""

    def __init__(self, source: str):
        self.lines: list[str] = source.split("\n")
        if source.isascii():  # then each offset is a plain length
            self.ascii = [True] * len(self.lines)
        else:
            self.ascii = [ln.isascii() for ln in self.lines]
        sizes = (
            len(ln) + 1 if a else len(ln.encode("utf-8")) + 1
            for ln, a in zip(self.lines, self.ascii)
        )
        self.offsets: list[int] = list(accumulate(sizes, initial=0))

    def span(self, lineno: int, text: str, col: int = 0) -> tuple[int, int, int]:
        """(start, end, line) of text found at character column col of line lineno."""
        start = self.offsets[lineno - 1]
        if self.ascii[lineno - 1]:  # then text, a piece of the line, is too
            start += col
            return start, start + len(text), lineno
        start += len(self.lines[lineno - 1][:col].encode("utf-8"))
        return start, start + len(text.encode("utf-8")), lineno

    def sentences(self, lineno: int, text: str, col: int) -> list[Sentence]:
        """The sentences of text found at character column col of line
        lineno, each with the span that span gives it."""
        base, ascii = self.offsets[lineno - 1] + col, self.ascii[lineno - 1]
        out = []
        for sent, off in split_sentences(text):
            if ascii:  # span's first case, inline
                span = base + off, base + off + len(sent), lineno
            else:
                span = self.span(lineno, sent, col + off)
            out.append(Sentence(sent, lineno, span))
        return out


def _step(lines: _Lines, lineno: int, line: str, col: int, label, number, text) -> Step:
    """The step written as line at column col of line lineno, whose text
    ends the line."""
    sentences = lines.sentences(lineno, text, col + len(line) - len(text))
    return Step(label, number, sentences, lines.span(lineno, line, col))


def parse_text(source: str) -> tuple[Optional[UseCaseDescription], list[ParseDiagnostic]]:
    diags: list[ParseDiagnostic] = []
    lines = _Lines(source)
    doc = UseCaseDescription()
    current: Optional[SectionKind] = None
    current_branch: Optional[BranchFlow] = None
    text_accum: dict[SectionKind, list[str]] = {}
    basic = SectionKind.BASIC_FLOW  # looked up once: enum lookups are slow on 3.11

    def warn(msg: str, lineno: int) -> None:
        diags.append(ParseDiagnostic(Severity.WARNING, msg, lineno))

    for lineno, raw in enumerate(lines.lines, 1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped:
            continue
        col = len(line) - len(line.lstrip())

        m = _HEADER_RE.match(stripped) if ":" in stripped else None
        if m:
            kind = _HEADERS[m.group(1).lower()]
            if kind in doc.section_header_lines:
                warn(f"duplicate section header '{kind.title}'", lineno)
            else:
                doc.section_header_lines[kind] = lineno
            current = kind
            current_branch = None
            rest = m.group(2).strip()
            if kind in _TEXT_SECTIONS:
                text_accum.setdefault(kind, [])
                if rest:
                    text_accum[kind].append(rest)
            elif rest:
                warn(f"content after '{kind.title}:' header ignored", lineno)
            continue

        if current is None:
            warn(f"line outside any section: {stripped[:40]!r}", lineno)
            continue

        if current is basic:  # first: the common case
            if doc.basic_flow is None:
                doc.basic_flow = Flow(steps=[])
            sm = _STEP_RE.match(stripped)
            label, text = sm.groups() if sm else (None, stripped)
            number = label and int(label)
            doc.basic_flow.steps.append(
                _step(lines, lineno, stripped, col, label, number, text)
            )
        elif current in _TEXT_SECTIONS:
            text_accum[current].append(stripped)
        elif current is SectionKind.ACTORS:
            if doc.actors is None:
                doc.actors = []
            for sep in (" - ", ": "):
                if sep in stripped:
                    actor_name, desc = stripped.split(sep, 1)
                    doc.actors.append(ActorDecl(actor_name.strip(), desc.strip()))
                    break
            else:
                doc.actors.append(ActorDecl(stripped))
        elif current in _CONDITION_SECTIONS:
            field = SECTION_FIELD[current]
            sents = lines.sentences(lineno, stripped, col)
            setattr(doc, field, (getattr(doc, field) or []) + sents)
        else:  # branch flow sections
            flows = doc.branch_flows(current)
            bm = _BRANCH_STEP_RE.match(stripped)
            hm = None if bm else _BRANCH_HEADER_RE.match(stripped)
            if hm:
                flow_id = hm.group(1) + hm.group(2)
                if any(f.id == flow_id for f in flows):
                    warn(f"duplicate flow id '{flow_id}'", lineno)
                current_branch = BranchFlow(
                    id=flow_id, span=lines.span(lineno, stripped, col)
                )
                flows.append(current_branch)
                rest = hm.group(3).strip()
                if rest:
                    lead = len(hm.group(3)) - len(hm.group(3).lstrip())
                    rest_col = col + hm.start(3) + lead
                    _branch_content(
                        lines, lineno, rest, rest_col, current_branch, warn
                    )
                continue
            if current_branch is None:
                warn(f"line before any flow header: {stripped[:40]!r}", lineno)
                continue
            if bm:
                label, text = bm.groups()
                number = _trailing_number(label)
                current_branch.steps.append(
                    _step(lines, lineno, stripped, col, label, number, text)
                )
                _note_return(current_branch, text)
            else:
                _branch_content(lines, lineno, stripped, col, current_branch, warn)

    doc.name = " ".join(text_accum.get(SectionKind.NAME, [])) or None
    doc.overview = " ".join(text_accum.get(SectionKind.OVERVIEW, [])) or None

    if not doc.section_header_lines:
        diags.append(ParseDiagnostic(Severity.ERROR, "no sections found", 0))
        return None, diags
    return _checked(doc, warn), diags


def _checked(doc: UseCaseDescription, warn) -> UseCaseDescription:
    """doc, warned of when it has no basic flow: both front-ends' last check."""
    if not doc.section_present(SectionKind.BASIC_FLOW):
        warn("no basic flow section", 0)
    return doc


def _note_return(flow: BranchFlow, text: str) -> None:
    m = RETURN_RE.search(text)
    if m is None:
        return
    if m.group(1):
        flow.return_to = StepRef(SectionKind.BASIC_FLOW, m.group(1))
    else:
        flow.return_to = END


def _branch_content(lines, lineno, text, col, flow: BranchFlow, warn) -> None:
    """Handle an unlabeled line in a branch flow body (or header rest)."""
    om = _ORIGIN_RE.match(text)
    if om:
        flow.origin = StepRef(SectionKind.BASIC_FLOW, om.group(1))
        return
    if _CONDITION_RE.match(text) and flow.condition is None and not flow.steps:
        _read_condition(flow, text, lines.sentences(lineno, text, col), lineno, warn)
        return
    rm = RETURN_RE.search(text)
    if rm is not None:
        _note_return(flow, text)
        if rm.start() == 0 and rm.end() >= len(text.rstrip(" .!?")):
            return  # the whole line is just the return marker
    # Plain unlabeled content becomes an unnumbered step.
    flow.steps.append(_step(lines, lineno, text, col, None, None, text))


def _read_condition(flow: BranchFlow, text: str, sents: list, lineno: int, warn) -> None:
    """Keep the first of sents, the sentences of a branch condition's text,
    and take the flow's origin from the text's "at step N"."""
    if sents:  # a blank condition is none, as a branch without If/When
        flow.condition = sents[0]
    if len(sents) > 1:
        warn("content after the condition's first sentence ignored", lineno)
    am = _AT_STEP_RE.search(text)
    if am:
        flow.origin = StepRef(SectionKind.BASIC_FLOW, am.group(1))


# --- canonical JSON -------------------------------------------------------


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
                    out.append(f',\n      "origin": {_quote(flow.origin.label)}')
                if flow.return_to is not None:
                    end = isinstance(flow.return_to, EndMarker)
                    label = "end" if end else flow.return_to.label
                    out.append(f',\n      "return_to": {_quote(label)}')
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
    label = obj.get("label")
    _expect(
        label is None or isinstance(label, str), "step 'label' must be a string"
    )
    return Step(
        label=label,
        number=_trailing_number(label) if label else None,
        sentences=[Sentence(text=t) for t, _ in split_sentences(obj["text"])],
    )


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
        _read_condition(flow, text, sents, 0, warn)
    if obj.get("origin") is not None:
        _expect(isinstance(obj["origin"], str), "'origin' must be a string")
        flow.origin = StepRef(SectionKind.BASIC_FLOW, obj["origin"])
    if obj.get("return_to") is not None:
        _expect(isinstance(obj["return_to"], str), "'return_to' must be a string")
        flow.return_to = (
            END
            if obj["return_to"] == "end"
            else StepRef(SectionKind.BASIC_FLOW, obj["return_to"])
        )
    _expect(isinstance(obj.get("steps"), list), "flows must carry a 'steps' array")
    flow.steps = [_step_from_obj(s) for s in obj["steps"]]
    if flow.return_to is None:  # the last return phrase wins, as in parse_text
        for step in flow.steps:
            _note_return(flow, " ".join(s.text for s in step.sentences))
    return flow
