"""Finding serialization: the JSON record format, a human-readable
listing, and exit-code policy.

Each JSON record carries, in order, item_name, metric, line, and exactly
one of word / sentence / flow: the evidence key of the finding's
engine.RULES row. Key order and array ordering are fixed so golden-file
tests stay byte-exact.
"""

from __future__ import annotations

from typing import Optional

from .engine import RULES
from .model import Characteristic, Finding, Scope

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_PARSE_ERROR = 2


def exit_code(findings_count: int, fail_threshold: Optional[int] = None) -> int:
    threshold = 1 if fail_threshold is None else fail_threshold
    return EXIT_FINDINGS if findings_count >= threshold else EXIT_OK


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
    """The records, as json.dumps(records, indent=2, ensure_ascii=False) writes them."""
    return _records(findings, "")


def emit_json_files(per_file: list[tuple[str, list[Finding]]]) -> str:
    """One JSON object mapping each path to its findings' records."""
    by_path = dict(per_file)  # a repeated path keeps its first place, last findings
    if not by_path:
        return "{}"
    # Each file's records, then one join with the braces and keys: only
    # one file's pieces are ever held at once.
    parts = []
    sep = "{\n"
    for path, findings in by_path.items():
        parts += (f"{sep}  {_quote(path)}: ", _records(findings, "  "))
        sep = ",\n"
    parts.append("\n}")
    return "".join(parts)


def _records(findings: list[Finding], pad: str) -> str:
    """The findings' records as json.dumps(..., indent=2) lays them out at
    pad, built in one join, brackets and all.

    Writing them directly is several times faster than json.dumps, whose
    indented output never uses the C encoder.
    """
    if not findings:
        return "[]"
    keys = pad + "    "
    parts = []
    sep = "[\n"
    for f in findings:
        key, text = RULES[f.smell_id].evidence, f.evidence.text
        if key != "flow":
            tail = f'"{key}": {_quote(text)}'
        else:
            items = f",\n{keys}  ".join(map(_quote, text))
            tail = f'"flow": [\n{keys}  {items}\n{keys}]' if items else '"flow": []'
        parts.append(
            f'{sep}{pad}  {{\n{keys}"item_name": {_quote(f.item_name)},\n'
            f'{keys}"metric": {_quote(f.metric)},\n{keys}"line": {f.line},\n'
            f"{keys}{tail}\n{pad}  }}"
        )
        sep = ",\n"
    parts.append(f"\n{pad}]")
    return "".join(parts)


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

    lines: list[str] = []
    counts: dict[tuple[Characteristic, Scope], int] = {}
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
    "parse_report",
]
