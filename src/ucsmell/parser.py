"""The reader of the line-oriented plain-text format, parse_text, and
forwarders to the canonical JSON form's reader and writer.

The plain-text grammar is deliberately small: colon-terminated section
headers, numbered steps inside flow sections, and A<n>/E<n> branch
headers whose first If/When line is the branch condition. See the
bundled fixtures for complete examples.

parse_json and serialize live in jsonform, which loads on their first
call: a lint of the plain-text format never compiles it.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Optional

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
# The basic-flow step a branch condition names, taken as the flow's origin.
_STEP_NAME_RE = re.compile(r"\bstep\s+(\d+)\b", re.IGNORECASE)
_ORIGIN_RE = re.compile(r"^origin\s*:\s*(?:step\s+)?(\d+)\s*$", re.IGNORECASE)
_RETURN_RE = re.compile(
    r"\breturns?\s+to\s+(?:step\s+(\d+)"
    r"|(?:the\s+)?(basic)\s+flow(?:\s+at\s+step\s+(\d+))?|(end))\b"
    r"|\buse\s+case\s+ends\b",
    re.IGNORECASE,
)

# A run of sentence terminators ends a sentence, unless it sits in a digit
# context, as in step labels ("A1.1") or trailing numerals ("step 2. 20"),
# or is a "." directly before a letter ("e.g", "audit.txt"), or the "." of
# a listed abbreviation. "etc." ends a sentence before a capital A-Z only.
# The one list: textanalysis makes each dotted entry one word.
_ABBREVIATIONS = ("e.g", "i.e", "etc", "mr", "mrs", "dr", "vs", "approx")
_SENT_SPLIT_RE = re.compile(
    "(?i:" + "".join(rf"(?<!\b{re.escape(a)})" for a in _ABBREVIATIONS) + ")"
    r"(?:(?<!\d)[.!?]+(?![.!?\d]|(?<=\.)[^\W\d_])|[.!?]+(?=\s|$)(?!\s*\d))"
    r"|(?<=\b(?i:etc))\.(?=\s+[A-Z])|\n"
)


def _one_sentence(text: str) -> bool:
    """Whether the stripped text is at most one sentence: the pattern can
    match only in its trailing run of terminators."""
    body = text.rstrip(".!?")
    return "." not in body and "!" not in body and "?" not in body and "\n" not in body


def split_sentences(block: str) -> list[tuple[str, int]]:
    """Split a text block into (sentence, char offset) pairs."""
    text = block.strip()
    if _one_sentence(text):
        return [(text, len(block) - len(block.lstrip()))] if text else []
    out: list[tuple[str, int]] = []
    pos = 0
    for end in (*map(re.Match.end, _SENT_SPLIT_RE.finditer(block)), len(block)):
        piece = block[pos:end]
        sent = piece.strip()
        if sent:
            out.append((sent, pos + len(piece) - len(piece.lstrip())))
        pos = end
    return out


_TRAILING_NUMBER_RE = re.compile(r"(\d+)$")


def _trailing_number(label: str) -> Optional[int]:
    m = _TRAILING_NUMBER_RE.search(label)
    return int(m.group(1)) if m else None


def _sentences(text: str, start: int, lineno: int) -> list[Sentence]:
    """The sentences of the stripped, non-empty text that starts at index
    start of the source, on line lineno, each with its span."""
    if _one_sentence(text):
        return [Sentence(text, lineno, (start, start + len(text), lineno))]
    out = []
    for sent, off in split_sentences(text):
        off += start
        out.append(Sentence(sent, lineno, (off, off + len(sent), lineno)))
    return out


def _step(start: int, lineno: int, line: str, label, number, text) -> Step:
    """The step written as line, which starts at index start of the source
    on line lineno, and whose text ends it."""
    end = start + len(line)
    # _one_sentence's test, inline (a line holds no "\n"): most steps are
    # one sentence, built here.
    body = text.rstrip(".!?")
    if "." in body or "!" in body or "?" in body:
        sentences = _sentences(text, end - len(text), lineno)
    else:
        sentences = [Sentence(text, lineno, (end - len(text), end, lineno))]
    return Step(label, number, sentences, (start, end, lineno))


def parse_text(source: str) -> tuple[Optional[UseCaseDescription], list[ParseDiagnostic]]:
    diags: list[ParseDiagnostic] = []
    doc = UseCaseDescription()
    current: Optional[SectionKind] = None
    current_branch: Optional[BranchFlow] = None
    text_accum: dict[SectionKind, list[str]] = {}
    flow_ids: dict[SectionKind, set[str]] = {}  # each branch section's flow ids
    # Looked up once: a class-attribute lookup such as SectionKind.BASIC_FLOW is slow.
    basic = SectionKind.BASIC_FLOW

    def warn(msg: str, lineno: int) -> None:
        diags.append(ParseDiagnostic(Severity.WARNING, msg, lineno))

    end = 0  # the source index just past the line before
    for lineno, raw in enumerate(source.split("\n"), 1):
        start, end = end, end + len(raw) + 1
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped is not raw:  # strip gives raw itself when it strips nothing
            start += len(raw) - len(raw.lstrip())  # where stripped starts

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
            doc.basic_flow.steps.append(_step(start, lineno, stripped, label, number, text))
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
            if getattr(doc, field) is None:
                setattr(doc, field, [])
            getattr(doc, field).extend(_sentences(stripped, start, lineno))
        else:  # branch flow sections
            flows = doc.branch_flows(current)
            bm = _BRANCH_STEP_RE.match(stripped)
            hm = None if bm else _BRANCH_HEADER_RE.match(stripped)
            if hm:
                flow_id = hm.group(1) + hm.group(2)
                ids = flow_ids.setdefault(current, set())
                if flow_id in ids:
                    warn(f"duplicate flow id '{flow_id}'", lineno)
                ids.add(flow_id)
                current_branch = BranchFlow(
                    id=flow_id, span=(start, start + len(stripped), lineno)
                )
                flows.append(current_branch)
                rest = hm.group(3).strip()
                if rest:
                    lead = len(hm.group(3)) - len(hm.group(3).lstrip())
                    rest_start = start + hm.start(3) + lead
                    _branch_content(rest_start, lineno, rest, current_branch, warn)
                continue
            if current_branch is None:
                warn(f"line before any flow header: {stripped[:40]!r}", lineno)
                continue
            if bm:
                label, text = bm.groups()
                number = _trailing_number(label)
                current_branch.steps.append(
                    _step(start, lineno, stripped, label, number, text)
                )
                _note_return(current_branch, text)
            else:
                _branch_content(start, lineno, stripped, current_branch, warn)

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


def _note_return(flow: BranchFlow, text: str) -> Optional[re.Match]:
    """The first return phrase in text, taken as the flow's return target:
    the step it names, if any, even in "the basic flow at step N"."""
    m = _RETURN_RE.search(text)
    if m is not None:
        flow.return_to = m.group(1) or m.group(3) or ("basic" if m.group(2) else "end")
    return m


def _branch_content(start, lineno, text, flow: BranchFlow, warn) -> None:
    """Handle an unlabeled line in a branch flow body (or header rest),
    whose stripped text starts at index start of the source."""
    om = _ORIGIN_RE.match(text)
    if om:
        flow.origin = om.group(1)
        return
    if _CONDITION_RE.match(text) and flow.condition is None and not flow.steps:
        _read_condition(flow, _sentences(text, start, lineno), lineno, warn)
        return
    rm = _note_return(flow, text)
    if rm is not None and rm.start() == 0 and rm.end() >= len(text.rstrip(" .!?")):
        return  # the whole line is just the return marker
    # Plain unlabeled content becomes an unnumbered step.
    flow.steps.append(_step(start, lineno, text, None, None, text))


def _read_condition(flow: BranchFlow, sents: list, lineno: int, warn) -> None:
    """Keep the first of sents, the sentences of a branch condition's text,
    and take the flow's origin from the step that sentence names."""
    if not sents:  # a blank condition is none, as a branch without If/When
        return
    flow.condition = sents[0]
    if len(sents) > 1:
        warn("content after the condition's first sentence ignored", lineno)
    m = _STEP_NAME_RE.search(sents[0].text)
    if m:
        flow.origin = m.group(1)


# --- canonical JSON -------------------------------------------------------

_jsonform = None  # the jsonform module, once a forwarder below has loaded it


def _load_jsonform():
    global _jsonform
    from . import jsonform as _jsonform

    return _jsonform


def parse_json(source: str) -> tuple[Optional[UseCaseDescription], list[ParseDiagnostic]]:
    """Read a document in the canonical JSON form: jsonform.parse_json."""
    return (_jsonform or _load_jsonform()).parse_json(source)


def serialize(doc: UseCaseDescription) -> str:
    """Write a document in the canonical JSON form: jsonform.serialize."""
    return (_jsonform or _load_jsonform()).serialize(doc)
