#!/usr/bin/env python3
"""Rebuild the per-category precision/recall table from synthetic sets.

Constructs finding and oracle lists sized to the published per-category
indicated/correct counts, runs the evaluation matcher over them, and
prints the resulting table next to the published precision values.

It then prints the abstract's headline (22 smells, precision 0.591,
recall 0.981) next to the table's own total (0.596, recall 1.000) and the
one-row assumption that separates them: the table's counts give 53
correct of 89 indicated, while the abstract's figures fit 52/88 and
52/53: one correct finding fewer, so one of the 53 smells missed.
"""

import os
import sys

from ucsmell.catalogue import by_id, catalogue
from ucsmell.engine import load_config
from ucsmell.evaluation import OracleEntry, match, render_table
from ucsmell.model import Evidence, Finding

# (smell standing in for the category, section, #indicated, #correct,
#  published precision or None where the source table has no data)
ROWS = [
    ("unordered-flow", "Basic Flow", 12, 10, 0.833),
    ("pronoun", "Basic Flow", 23, 12, 0.522),
    (
        "multiple-alternate-flows-at-an-alternate-branch-condition",
        "Alternate Flows",
        1,
        1,
        1.0,
    ),
    ("long-sentence", "Basic Flow", 26, 10, 0.385),
    ("repeating-the-same-noun", "Basic Flow", 0, 0, None),
    ("missing-actor-section", "Actors", 23, 16, 0.696),
    ("alternate-flow-without-return", "Alternate Flows", 4, 4, 1.0),
]

PUBLISHED_TOTAL_PRECISION = 0.596
TOLERANCE = 5e-4

# The abstract's headline, for the tool's first version: its smells are
# the catalogue's detectable ones less the two flagged both diamond and
# star (the multiple-flows-at-a-branch-condition smells).
ABSTRACT_SMELLS = 22
ABSTRACT_PRECISION = 0.591
ABSTRACT_RECALL = 0.981
# The counts the abstract's figures fit: (correct, indicated, oracle).
ABSTRACT_COUNTS = (52, 88, 53)
# The checked-in config that runs the first version's smells.
FIRST_VERSION_CONFIG = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "fixtures", "first_version.cfg"
)


def build_sets():
    findings, oracle = [], []
    for smell_id, item, indicated, correct, _ in ROWS:
        for i in range(indicated):
            line = 3 * (i + 1)
            findings.append(
                Finding(
                    smell_id=smell_id,
                    item_name=item,
                    metric="synthetic",
                    line=line,
                    evidence=Evidence("x"),
                )
            )
            if i < correct:
                oracle.append(
                    OracleEntry(smell_id=smell_id, item_name=item, line=line)
                )
    return findings, oracle


def main() -> int:
    findings, oracle = build_sets()
    report = match(findings, oracle)
    print(render_table(report))

    ok = True
    for smell_id, _, indicated, correct, published in ROWS:
        if published is None or indicated == 0:
            continue
        tally = report.per_category[by_id(smell_id).cell]
        delta = abs(tally.precision - published)
        status = "ok" if delta < TOLERANCE else "MISMATCH"
        ok &= delta < TOLERANCE
        print(
            f"{smell_id:<60} computed={tally.precision:.4f} "
            f"published={published:.3f} [{status}]"
        )
    total_delta = abs(report.totals.precision - PUBLISHED_TOTAL_PRECISION)
    total_ok = total_delta < TOLERANCE and report.totals.recall == 1.0
    ok &= total_ok
    print(
        f"{'TOTAL':<60} computed={report.totals.precision:.4f} "
        f"published={PUBLISHED_TOTAL_PRECISION:.3f} "
        f"recall={report.totals.recall:.2f} [{'ok' if total_ok else 'MISMATCH'}]"
    )
    ok &= abstract_note(report.totals)
    return 0 if ok else 1


def abstract_note(totals) -> bool:
    """Print the abstract's headline next to this table's total and the
    one-row assumption between them; check the arithmetic of both."""
    first_version = [
        e for e in catalogue()
        if e.detectable and not {"diamond", "star"} <= e.origin_flags
    ]
    config_smells = load_config(FIRST_VERSION_CONFIG).enabled_smells
    config_ok = config_smells == {e.id for e in first_version}
    correct, indicated, oracle = ABSTRACT_COUNTS
    fits = (
        len(first_version) == ABSTRACT_SMELLS
        and config_ok
        and abs(correct / indicated - ABSTRACT_PRECISION) < TOLERANCE
        and abs(correct / oracle - ABSTRACT_RECALL) < TOLERANCE
        and (correct + 1, indicated + 1) == (totals.tp, totals.tp + totals.fp)
    )
    print()
    if not config_ok:
        print(
            f"{FIRST_VERSION_CONFIG}: enabled_smells is not the "
            f"{len(first_version)} first-version smells [MISMATCH]"
        )
    print(
        f"Abstract headline: {ABSTRACT_SMELLS} smells, precision "
        f"{ABSTRACT_PRECISION:.3f}, recall {ABSTRACT_RECALL:.3f}.\n"
        f"Table total: precision {totals.precision:.3f}, recall "
        f"{totals.recall:.3f} ({totals.tp} correct of {totals.tp + totals.fp} "
        f"indicated); ucsmell detects {len(first_version) + 2} smells, these "
        f"{len(first_version)} and the two flagged both diamond and star.\n"
        f"One-row assumption: the abstract's figures fit {correct}/{indicated} "
        f"(precision) and {correct}/{oracle} (recall) against the table's "
        f"{totals.tp}/{totals.tp + totals.fp}: one correct finding fewer, so "
        f"one smell missed.\nThe source table that would say which row differs "
        f"is not available, so the rows above keep the published counts. "
        f"[{'ok' if fits else 'MISMATCH'}]"
    )
    return fits


if __name__ == "__main__":
    sys.exit(main())
