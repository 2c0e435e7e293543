"""Precision/recall evaluation of detector findings against a
human-annotated oracle.

A finding matches an oracle entry when both name the same smell and
section and their line numbers differ by at most one (annotations made
on printed sheets are only approximately line-aligned). An entry with an
evidence_hint matches only findings whose evidence text contains the
hint. Matching is one-to-one and maximum within each (smell, section)
group, so the tallies do not depend on the order of the oracle. Oracle
entries are matched one at a time in line order: each takes the earliest
free compatible finding in (line, span start) order, or else an
augmenting path (Kuhn's algorithm) frees one for it when there is one.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import NamedTuple, Optional

from .catalogue import by_id
from .model import Characteristic, Finding, Scope, _Record

LINE_TOLERANCE = 1

Category = tuple[Characteristic, Scope]


class OracleEntry(NamedTuple):
    smell_id: str
    item_name: str
    line: int
    evidence_hint: Optional[str] = None


class Tally(_Record):
    __slots__ = ("tp", "fp", "fn")
    _fields = _compared = ("tp", "fp", "fn")

    def __init__(self, tp: int = 0, fp: int = 0, fn: int = 0) -> None:
        self.tp = tp
        self.fp = fp
        self.fn = fn

    @property
    def precision(self) -> Optional[float]:
        total = self.tp + self.fp
        return self.tp / total if total else None

    @property
    def recall(self) -> Optional[float]:
        total = self.tp + self.fn
        return self.tp / total if total else None


class EvalReport(_Record):
    __slots__ = ("per_category", "totals", "matched_pairs")
    _fields = _compared = ("per_category", "totals", "matched_pairs")

    def __init__(
        self,
        per_category: Optional[dict[Category, Tally]] = None,
        totals: Optional[Tally] = None,
        matched_pairs: Optional[list[tuple[Finding, OracleEntry]]] = None,
    ) -> None:
        self.per_category = {} if per_category is None else per_category
        self.totals = Tally() if totals is None else totals
        self.matched_pairs = [] if matched_pairs is None else matched_pairs


def load_oracle(source: str) -> list[OracleEntry]:
    """Load oracle entries from a JSON array; exact duplicates collapse.

    Raises ValueError unless smell_id names a catalogue entry, item_name
    is a string, line is an integer (not a boolean) and evidence_hint is
    a string or absent.
    """
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid oracle JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError("oracle must be a JSON array")
    entries: list[OracleEntry] = []
    seen = set()
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ValueError(f"oracle entry {i} must be an object")
        try:
            entry = OracleEntry(
                smell_id=obj["smell_id"],
                item_name=obj["item_name"],
                line=obj["line"],
                evidence_hint=obj.get("evidence_hint"),
            )
        except KeyError as exc:
            raise ValueError(f"oracle entry {i} missing key {exc}") from None
        if not (
            isinstance(entry.smell_id, str)
            and isinstance(entry.item_name, str)
            and isinstance(entry.line, int)
            and not isinstance(entry.line, bool)
            and isinstance(entry.evidence_hint, (str, type(None)))
        ):
            raise ValueError(f"oracle entry {i} has wrong field types")
        try:
            by_id(entry.smell_id)
        except KeyError:
            raise ValueError(
                f"oracle entry {i} names an unknown smell id: {entry.smell_id!r}"
            ) from None
        if entry not in seen:
            seen.add(entry)
            entries.append(entry)
    return entries


def _evidence_text(f: Finding) -> str:
    text = f.evidence.text
    return text if isinstance(text, str) else " ".join(text)


def _category(smell_id: str) -> Category:
    return by_id(smell_id).cell


def _group_matching(candidates, entries) -> list[Optional[int]]:
    """A maximum matching of one group: each entry's candidate index, or None.

    Only candidates within LINE_TOLERANCE of an entry can match it, and
    they form one contiguous window of the line-sorted candidates. Entries
    are matched one by one, in line order, as each window is built, so
    each step keeps the matching of the entries so far maximum.
    """
    lines = [f.line for f in candidates]
    edges: list = []  # each entry's compatible candidates, in order
    # The entry each candidate is matched to, and the candidate each entry holds.
    owner, held = [None] * len(candidates), [None] * len(entries)
    for i, e in enumerate(entries):
        lo = bisect_left(lines, e.line - LINE_TOLERANCE)
        window = range(lo, bisect_right(lines, e.line + LINE_TOLERANCE))
        hint = e.evidence_hint
        if hint is not None:
            window = [j for j in window if hint in _evidence_text(candidates[j])]
        edges.append(window)
        _augment(i, edges, owner, held)
    return held


def _augment(root: int, edges: list, owner: list, held: list) -> None:
    """Match the unmatched entry root, if it can be: to its earliest free
    candidate (a path of one edge), or else along an augmenting path
    searched breadth first, on which every entry moves to the next
    candidate."""
    for j in edges[root]:
        if owner[j] is None:
            owner[j], held[root] = root, j
            return
    reached_from: dict[int, int] = {}  # candidate -> the entry that reached it
    queue = [root]
    for i in queue:  # the queue grows while it is read
        for j in edges[i]:
            if j in reached_from:
                continue
            reached_from[j] = i
            if owner[j] is None:
                while j is not None:  # flip the path back to root
                    i = reached_from[j]
                    owner[j] = i
                    held[i], j = j, held[i]
                return
            queue.append(owner[j])


def match(findings: list[Finding], oracle: list[OracleEntry]) -> EvalReport:
    """Match findings to oracle entries within each (smell, section) group.

    matched_pairs lists the groups in the order of their first oracle
    entry, and each group's pairs in the line order of its entries (oracle
    order among equal lines). Categories appear in the order first seen in
    the findings, then in the oracle. Raises KeyError on an unknown smell id.
    """
    report = EvalReport()
    findings_by_key: dict[tuple[str, str], list[Finding]] = {}
    for f in findings:
        findings_by_key.setdefault((f.smell_id, f.item_name), []).append(f)
    oracle_by_key: dict[tuple[str, str], list[OracleEntry]] = {}
    for entry in oracle:
        oracle_by_key.setdefault((entry.smell_id, entry.item_name), []).append(entry)

    # Each smell id is resolved to its category's tally once.
    per_category = report.per_category
    tallies: dict[str, Tally] = {}
    for smell_id, _ in [*findings_by_key, *oracle_by_key]:
        if smell_id not in tallies:
            category = _category(smell_id)
            if category not in per_category:
                per_category[category] = Tally()
            tallies[smell_id] = per_category[category]
    # Every finding counts as a false positive until it is matched.
    for (smell_id, _), group in findings_by_key.items():
        tallies[smell_id].fp += len(group)

    pairs = report.matched_pairs
    for key, entries in oracle_by_key.items():
        candidates = sorted(
            findings_by_key.get(key, []), key=attrgetter("line", "span.start")
        )
        entries = sorted(entries, key=attrgetter("line"))
        held = _group_matching(candidates, entries)
        matched = [(candidates[j], e) for e, j in zip(entries, held) if j is not None]
        pairs += matched
        tally = tallies[key[0]]
        tally.tp += len(matched)
        tally.fp -= len(matched)
        tally.fn += len(entries) - len(matched)
    totals = report.totals
    for t in per_category.values():
        totals.tp += t.tp
        totals.fp += t.fp
        totals.fn += t.fn
    return report


def _ratio(value: Optional[float]) -> str:
    return "N/A" if value is None else f"{value:.3f}"


def render_table(report: EvalReport) -> str:
    """Aligned text table: Category | Precision | Recall | #indicated | #correct."""
    rows: list[tuple[str, Tally]] = []
    for (characteristic, scope), tally in sorted(
        report.per_category.items(),
        key=lambda kv: (kv[0][0].value, kv[0][1].value),
    ):
        rows.append((f"{characteristic.title}/{scope.title}", tally))
    rows.append(("Total", report.totals))

    headers = ("Category", "Precision", "Recall", "#indicated", "#correct")
    table = [headers]
    for name, t in rows:
        table.append(
            (
                name,
                _ratio(t.precision),
                _ratio(t.recall),
                str(t.tp + t.fp),
                str(t.tp + t.fn),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"
