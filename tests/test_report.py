import json

import pytest

from ucsmell import report
from ucsmell.engine import DetectorConfig, detect
from ucsmell.model import (
    Finding,
    FlowEvidence,
    SentenceEvidence,
    WordEvidence,
)


def word_finding(line=3):
    return Finding(
        smell_id="pronoun",
        item_name="Basic Flow",
        metric="NOP",
        line=line,
        evidence=WordEvidence("it"),
    )


def sentence_finding():
    return Finding(
        smell_id="long-sentence",
        item_name="Basic Flow",
        metric="LOS",
        line=2,
        evidence=SentenceEvidence("A very long sentence."),
    )


def flow_finding():
    return Finding(
        smell_id="unordered-flow",
        item_name="Basic Flow",
        metric="BasicFlowNumbered?",
        line=1,
        evidence=FlowEvidence(("step one", "step two")),
    )


def test_record_key_order():
    rec = report.finding_record(word_finding())
    assert list(rec) == ["item_name", "metric", "line", "word"]
    assert rec == {
        "item_name": "Basic Flow",
        "metric": "NOP",
        "line": 3,
        "word": "it",
    }


def test_record_evidence_variants():
    assert report.finding_record(sentence_finding())["sentence"] == (
        "A very long sentence."
    )
    assert report.finding_record(flow_finding())["flow"] == ["step one", "step two"]


def test_emit_json_shape():
    out = report.emit_json([word_finding(), sentence_finding()])
    parsed = json.loads(out)
    assert isinstance(parsed, list) and len(parsed) == 2
    assert not out.endswith("\n")


def test_emit_json_empty():
    assert report.emit_json([]) == "[]"


def test_parse_report_roundtrip():
    findings = [word_finding(), sentence_finding(), flow_finding()]
    records = report.parse_report(report.emit_json(findings))
    assert records == [report.finding_record(f) for f in findings]


def test_parse_report_rejects_double_evidence():
    bad = json.dumps(
        [{"item_name": "x", "metric": "m", "line": 1, "word": "a", "sentence": "b"}]
    )
    with pytest.raises(ValueError):
        report.parse_report(bad)
    with pytest.raises(ValueError):
        report.parse_report(json.dumps([{"item_name": "x", "line": 1}]))
    with pytest.raises(ValueError):
        report.parse_report(json.dumps({"not": "a list"}))


def test_exit_code_default_threshold():
    opts = report.ReportOptions()
    assert report.exit_code(0, opts) == report.EXIT_OK
    assert report.exit_code(1, opts) == report.EXIT_FINDINGS


def test_exit_code_custom_threshold():
    opts = report.ReportOptions(fail_threshold=5)
    assert report.exit_code(4, opts) == report.EXIT_OK
    assert report.exit_code(5, opts) == report.EXIT_FINDINGS


def test_report_options_validation():
    with pytest.raises(ValueError):
        report.ReportOptions(fail_threshold=-1)


def test_emit_pretty_lines():
    out = report.emit_pretty([word_finding()], source_name="doc.ucd")
    assert "doc.ucd:3: [pronoun] Pronoun - it" in out


def test_emit_pretty_no_findings():
    out = report.emit_pretty([], source_name="doc.ucd")
    assert "no smells detected" in out


def test_emit_pretty_grid_totals():
    out = report.emit_pretty([word_finding(), word_finding(), flow_finding()])
    lines = out.splitlines()
    total_row = [ln for ln in lines if ln.startswith("Total")][0]
    assert total_row.split()[-1] == "3"
    ambiguity_row = [ln for ln in lines if ln.startswith("Ambiguity")][0]
    assert ambiguity_row.split()[-1] == "3"


def test_golden_files_byte_identical(lexicon, fixtures_dir):
    from ucsmell.parser import parse_text

    for name in ("atm", "clean", "search"):
        doc, _ = parse_text((fixtures_dir / f"{name}.ucd").read_text("utf-8"))
        produced = report.emit_json(detect(doc, DetectorConfig(), lexicon)) + "\n"
        golden = (fixtures_dir / f"{name}_findings.golden.json").read_bytes()
        assert produced.encode("utf-8") == golden, name
