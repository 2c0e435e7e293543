"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines go to the real stdout so they are visible even under pytest's
capture. None of the criteria may be skipped or weakened.
"""

import json
import pathlib
import random
import statistics
import sys
import time
from collections import Counter

from ucsmell import DetectorConfig, detect, distribution, load_lexicon, parse_text
from ucsmell.catalogue import catalogue, smell_space_cell
from ucsmell.evaluation import OracleEntry, match
from ucsmell.metrics import NOAFR, NON, NOW, PREDICATES
from ucsmell.model import (
    BranchFlow,
    Characteristic,
    Evidence,
    Finding,
    Scope,
    Sentence,
    UseCaseDescription,
)
from ucsmell.parser import parse_json, serialize
from ucsmell.report import emit_json, parse_report
from ucsmell.textanalysis import analyze_sentence

import pytest

import seeding

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
LEXICON = load_lexicon()

_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_verdicts_to_terminal(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _verdict(num: int, title: str, fn) -> None:
    try:
        fn()
    except BaseException:
        _emit(f"acceptance criterion {num} ({title}): FAIL")
        raise
    _emit(f"acceptance criterion {num} ({title}): PASS")


def _parse(name: str):
    doc, diags = parse_text((FIXTURES / name).read_text("utf-8"))
    assert doc is not None, diags
    return doc


# --- criterion 1 ----------------------------------------------------------


def test_criterion_1_catalogue_integrity():
    def check():
        start = time.perf_counter()
        entries = catalogue()
        assert len(entries) == 60
        assert sum(1 for e in entries if e.detectable) == 24
        assert sum(1 for e in entries if "star" in e.origin_flags) == 6
        # every entry sits in exactly one cell and cells partition the set
        cell_total = 0
        for c in Characteristic:
            for s in Scope:
                members = smell_space_cell(c, s)
                cell_total += len(members)
                assert all(e.cell == (c, s) for e in members)
        assert cell_total == 60
        spot = {
            (Characteristic.AMBIGUITY, Scope.SECTION): 3,
            (Characteristic.GRANULARITY, Scope.SENTENCE): 5,
            (Characteristic.LACK, Scope.SECTION): 7,
            (Characteristic.LACK, Scope.SENTENCE): 6,
        }
        for (c, s), n in spot.items():
            assert len(smell_space_cell(c, s)) == n, (c, s)
        assert time.perf_counter() - start < 1.0

    _verdict(1, "catalogue integrity", check)


# --- criterion 2 ----------------------------------------------------------


def test_criterion_2_atm_fixture_regression():
    def check():
        start = time.perf_counter()
        doc = _parse("atm.ucd")
        findings = detect(doc, DetectorConfig(), LEXICON)
        counts = Counter(f.smell_id for f in findings)
        assert counts == {
            "missing-actor-section": 1,
            "actor-actor": 8,
            "sentence-with-multiple-actions": 1,
            "pronoun": 1,
            "multiple-alternate-flows-at-an-alternate-branch-condition": 1,
        }, counts
        (pronoun,) = [f for f in findings if f.smell_id == "pronoun"]
        assert pronoun.evidence == Evidence("it")
        (multi,) = [
            f for f in findings if f.smell_id == "sentence-with-multiple-actions"
        ]
        assert "checks" in multi.evidence.text and "puts" in multi.evidence.text
        (grouped,) = [
            f
            for f in findings
            if f.smell_id
            == "multiple-alternate-flows-at-an-alternate-branch-condition"
        ]
        assert "A1" in grouped.evidence.text and "A2" in grouped.evidence.text
        assert time.perf_counter() - start < 1.0

    _verdict(2, "bundled ATM fixture yields the five expected smell families", check)


# --- criterion 3 ----------------------------------------------------------

# Per-category (indicated, correct) sizes with the published precision to
# reproduce; None where the published table gives 1.00 or no data.
_ACCURACY_ROWS = [
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


def synthetic_accuracy_sets():
    findings, oracle = [], []
    for smell_id, item, indicated, correct, _ in _ACCURACY_ROWS:
        for i in range(indicated):
            line = 3 * (i + 1)  # spaced beyond the +/-1 matching tolerance
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


def test_criterion_3_accuracy_table_arithmetic():
    def check():
        findings, oracle = synthetic_accuracy_sets()
        assert len(findings) == 89 and len(oracle) == 53
        report = match(findings, oracle)
        from ucsmell.catalogue import by_id

        for smell_id, _, indicated, correct, published in _ACCURACY_ROWS:
            if indicated == 0:
                assert by_id(smell_id).cell not in report.per_category
                continue
            tally = report.per_category[by_id(smell_id).cell]
            assert tally.tp + tally.fp == indicated
            assert tally.tp == correct
            if published is not None:
                assert abs(tally.precision - published) < 5e-4, smell_id
            if correct:
                assert tally.recall == 1.0
        assert report.totals.tp + report.totals.fp == 89
        assert report.totals.tp == 53
        assert abs(report.totals.precision - 0.596) < 5e-4
        assert report.totals.recall == 1.0

    _verdict(3, "published accuracy-table arithmetic reproduced", check)


# --- criterion 4 ----------------------------------------------------------


def test_criterion_4_seeded_smell_recall():
    def check():
        start = time.perf_counter()
        cfg = DetectorConfig()
        seeded = seeding.seeded_documents()
        assert len(seeded) >= 30
        coverage = Counter(s for d in seeded for s in d.expected_smells)
        assert len(coverage) == 24
        assert min(coverage.values()) >= 3
        hits = total = 0
        for d in seeded:
            doc, _ = parse_text(d.text)
            found = {f.smell_id for f in detect(doc, cfg, LEXICON)}
            for want in d.expected_smells:
                total += 1
                hits += want in found
        assert total and hits == total  # recall 1.0
        for d in seeding.clean_documents():
            doc, _ = parse_text(d.text)
            assert detect(doc, cfg, LEXICON) == [], d.name
        assert time.perf_counter() - start < 10.0

    _verdict(4, "seeded suite recall 1.0 and clean complement precision 1.0", check)


# --- criterion 5 ----------------------------------------------------------


def test_criterion_5_metric_properties():
    def check():
        start = time.perf_counter()
        rng = random.Random(20260823)
        pool = (
            "system actor it they shows reads large the a of value code page "
            "form user card quickly empty and to in on at step"
        ).split()
        cases = 0
        for _ in range(400):  # NOW >= NON on randomized sentences
            text = " ".join(rng.choices(pool, k=rng.randint(1, 12)))
            s = Sentence(text=text)
            analyze_sentence(s, LEXICON)
            for tok in s.tokens:
                assert NOW(s, tok.surface) >= NON(s, tok.surface)
            cases += 1
        for _ in range(400):  # grouped flow counts conserve flow counts
            conditions = [
                rng.choice([None, "if a", "if b", "if c", "when d"])
                for _ in range(rng.randint(0, 8))
            ]
            flows = [
                BranchFlow(
                    id=f"A{i}",
                    condition=Sentence(text=c) if c else None,
                )
                for i, c in enumerate(conditions, 1)
            ]
            doc = UseCaseDescription(alternate_flows=flows)
            assert sum(n for _, n in NOAFR(doc)) == sum(
                1 for c in conditions if c
            )
            cases += 1
        for _ in range(300):  # distribution agrees with the statistics module
            values = [rng.randint(0, 200) for _ in range(rng.randint(1, 40))]
            d = distribution(values)
            assert abs(d.mean - statistics.fmean(values)) < 1e-9
            expected = statistics.stdev(values) if len(values) > 1 else 0.0
            assert abs(d.stddev - expected) < 1e-9
            cases += 1
        assert cases >= 1000

        d = distribution([8, 10, 12])
        assert (d.mean, d.stddev) == (10.0, 2.0)

        # zero-stddev documents produce no Long/Short findings
        steps = "\n".join(
            f"{i}. The system reads the value {i:02d} now." for i in range(1, 8)
        )
        doc, _ = parse_text(f"Name: X\nOverview: Y\nActors:\nA\nBasic Flow:\n{steps}\n")
        smells = {f.smell_id for f in detect(doc, DetectorConfig(), LEXICON)}
        assert "long-sentence" not in smells and "short-sentence" not in smells

        # predicate vacuity: non-existence predicates hold on an empty doc
        empty = UseCaseDescription()
        for name, predicate in PREDICATES.items():
            if "SectionExist" not in name:
                assert predicate(empty).holds, name
        assert time.perf_counter() - start < 30.0

    _verdict(5, "metric unit properties over 1000+ randomized cases", check)


# --- criterion 6 ----------------------------------------------------------


def test_criterion_6_golden_output_format():
    def check():
        for name in ("atm", "clean", "search"):
            doc = _parse(f"{name}.ucd")
            produced = emit_json(detect(doc, DetectorConfig(), LEXICON)) + "\n"
            golden = (FIXTURES / f"{name}_findings.golden.json").read_bytes()
            assert produced.encode("utf-8") == golden, name
            records = parse_report(produced)  # valid JSON, one evidence key
            for rec in records:
                assert len({"word", "sentence", "flow"} & set(rec)) == 1
            assert json.loads(produced) == records

    _verdict(6, "JSON emitter byte-identical to golden files", check)


# --- criterion 7 ----------------------------------------------------------


def test_criterion_7_round_trip_identity():
    def check():
        fixtures = sorted(FIXTURES.glob("*.ucd"))
        assert fixtures
        for path in fixtures:
            doc, diags = parse_text(path.read_text("utf-8"))
            assert doc is not None, (path, diags)
            again, diags = parse_json(serialize(doc))
            assert not diags, (path, diags)
            assert again == doc, path

    _verdict(7, "parse-serialize-parse round trip is the identity", check)
