"""Finding serialization: the JSON record format, a human-readable
listing, and exit-code policy.

Each JSON record carries, in order, item_name, metric, line, and exactly
one of word / sentence / flow: the evidence key of the finding's
engine.RULES row. Key order and array ordering are fixed so golden-file
tests stay byte-exact.
"""

from __future__ import annotations

from itertools import islice

from .engine import RULES
from .model import Characteristic, Finding, Scope

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_PARSE_ERROR = 2


def exit_code(findings_count: int, fail_threshold: int = 1) -> int:
    return EXIT_FINDINGS if findings_count >= fail_threshold else EXIT_OK


def finding_record(f: Finding) -> dict:
    key, text = RULES[f.smell_id].evidence, f.evidence.text
    rec: dict = {"item_name": f.item_name, "metric": f.metric, "line": f.line}
    rec[key] = list(text) if key == "flow" else text
    return rec


# What json.dumps(..., ensure_ascii=False) quotes strings with: the C
# quoter json.encoder takes, imported alone, so a lint never loads json.
try:
    from _json import encode_basestring as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring as _quote


def emit_json(findings: list[Finding]) -> str:
    """The records, as json.dumps(records, indent=2, ensure_ascii=False) writes
    them: joined 64 pieces at a time, then the runs, so the last join holds a
    str header per run, not per record."""
    pieces = json_pieces(findings, True)
    return "".join(iter(lambda: "".join(islice(pieces, 64)), ""))


def emit_json_files(per_file: list[tuple[str, list[Finding]]]) -> str:
    """One JSON object mapping each path to its findings' records."""
    return "".join(json_files_pieces(per_file, True))


def json_files_pieces(per_file, whole_flows=False):
    """The pieces of emit_json_files(per_file), as json_pieces cuts them."""
    by_path = dict(per_file)  # a repeated path keeps its first place, last findings
    sep = "{\n"
    for path, findings in by_path.items():
        yield f"{sep}  {_quote(path)}: "
        yield from json_pieces(findings, whole_flows, "  ")
        sep = ",\n"
    yield "\n}" if by_path else "{}"


def json_pieces(findings, whole_flows=False, pad=""):
    """The pieces of emit_json(findings), brackets and all, as json.dumps
    (..., indent=2) lays them out at pad, small enough to write to a
    stream one at a time: a record a piece, and a flow's sentences one
    piece each, as a flow may quote thousands. With whole_flows, for a
    join, a flow is one piece, as each piece held for the join costs a
    str header.

    Writing them directly is several times faster than json.dumps, whose
    indented output never uses the C encoder.
    """
    keys = pad + "    "
    item_sep = f",\n{keys}  "
    close = f"\n{pad}  }}"
    sep = "[\n"
    for f in findings:
        key, text = RULES[f.smell_id].evidence, f.evidence.text
        head = (
            f'{sep}{pad}  {{\n{keys}"item_name": {_quote(f.item_name)},\n'
            f'{keys}"metric": {_quote(f.metric)},\n{keys}"line": {f.line},\n{keys}'
        )
        sep = ",\n"
        if key != "flow":
            yield f'{head}"{key}": {_quote(text)}{close}'
        elif not text:
            yield f'{head}"flow": []{close}'
        elif whole_flows:
            items = item_sep.join(map(_quote, text))
            yield f'{head}"flow": [\n{keys}  {items}\n{keys}]{close}'
        else:
            items = iter(text)
            yield f'{head}"flow": [\n{keys}  {_quote(next(items))}'
            for item in items:
                yield f"{item_sep}{_quote(item)}"
            yield f"\n{keys}]{close}"
    yield f"\n{pad}]" if findings else "[]"


def parse_report(text: str) -> list[dict]:
    """Parse emit_json output back into record dicts, checking shape."""
    import json  # only here: a lint run writes JSON without the json package

    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("report must be a JSON array")
    for rec in records:
        evidence_keys = {"word", "sentence", "flow"} & set(rec)
        if len(evidence_keys) != 1:
            raise ValueError(
                f"record must carry exactly one of word/sentence/flow: {rec}"
            )
    return records


def _excerpt(f: Finding, limit: int = 60) -> str:
    text = f.evidence.text
    text = text if isinstance(text, str) else ", ".join(text)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def emit_pretty(findings: list[Finding], source_name: str = "") -> str:
    from .catalogue import by_id  # imported here: lint --format json never reads it

    lines = []
    counts = {}  # smell-space cell -> findings
    for f in findings:
        smell = by_id(f.smell_id)
        lines.append(
            f"{source_name}:{f.line}: [{f.smell_id}] {smell.name} - {_excerpt(f)}"
        )
        counts[smell.cell] = counts.get(smell.cell, 0) + 1
    if not findings:
        lines.append("no smells detected")
    lines.append("")
    lines.extend(_grid_lines(counts))
    return "\n".join(lines) + "\n"


def _grid_lines(counts: dict[tuple[Characteristic, Scope], int]) -> list[str]:
    """The summary grid of counts, the findings in each smell-space cell."""
    scopes = list(Scope)
    width = max(len(c.title) for c in Characteristic) + 2
    col = max(len(s.title) for s in scopes) + 2
    header = " " * width + "".join(s.title.rjust(col) for s in scopes) + "Total".rjust(col)
    lines = [header]
    total = 0
    for c in Characteristic:
        row_counts = [counts.get((c, s), 0) for s in scopes]
        total += sum(row_counts)
        lines.append(
            c.title.ljust(width)
            + "".join(str(n).rjust(col) for n in row_counts)
            + str(sum(row_counts)).rjust(col)
        )
    lines.append("Total".ljust(width) + " " * (col * len(scopes)) + str(total).rjust(col))
    return lines


__all__ = [
    "EXIT_FINDINGS",
    "EXIT_OK",
    "EXIT_PARSE_ERROR",
    "emit_json",
    "emit_pretty",
    "exit_code",
    "finding_record",
    "json_files_pieces",
    "json_pieces",
    "parse_report",
]
