import json
from collections import Counter

import largedoc
import pytest
import seeding
from hypothesis import given, settings, strategies as st

from ucsmell import report
from ucsmell.engine import RULES, DetectorConfig, detect, load_config
from ucsmell.model import EMPTY_SPAN, Evidence, Finding
from ucsmell.parser import parse_text


def word_finding(line=3):
    return Finding(
        smell_id="pronoun",
        item_name="Basic Flow",
        metric="NOP",
        line=line,
        evidence=Evidence("it"),
    )


def sentence_finding():
    return Finding(
        smell_id="long-sentence",
        item_name="Basic Flow",
        metric="LOS",
        line=2,
        evidence=Evidence("A very long sentence."),
    )


def flow_finding():
    return Finding(
        smell_id="unordered-flow",
        item_name="Basic Flow",
        metric="BasicFlowNumbered?",
        line=1,
        evidence=Evidence(("step one", "step two")),
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
    assert report.exit_code(0) == report.EXIT_OK
    assert report.exit_code(1) == report.EXIT_FINDINGS


def test_exit_code_custom_threshold():
    assert report.exit_code(4, fail_threshold=5) == report.EXIT_OK
    assert report.exit_code(5, fail_threshold=5) == report.EXIT_FINDINGS


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
    for name in ("atm", "clean", "search", "nonascii"):
        doc, _ = parse_text((fixtures_dir / f"{name}.ucd").read_text("utf-8"))
        produced = report.emit_json(detect(doc, DetectorConfig(), lexicon)) + "\n"
        golden = (fixtures_dir / f"{name}_findings.golden.json").read_bytes()
        assert produced.encode("utf-8") == golden, name


_EVIDENCE_KEYS = {"word", "sentence", "flow"}


@pytest.mark.parametrize("config", ["default", "thresholds"])
def test_evidence_has_the_shape_its_rule_row_names(config, lexicon, fixtures_dir):
    # Every finding on the fixtures, the seeded and clean suites and a large
    # generated document quotes a str, or a tuple of str exactly when its
    # row's key is "flow"; its record carries that key and no other.
    cfg = DetectorConfig()
    if config == "thresholds":
        cfg = load_config(str(fixtures_dir / "thresholds.cfg"))
    texts = [p.read_text("utf-8") for p in sorted(fixtures_dir.glob("*.ucd"))]
    texts += [d.text for d in seeding.seeded_documents() + seeding.clean_documents()]
    texts.append(largedoc.generate(1, 1000).text)
    keys = Counter()
    for source in texts:
        doc, _ = parse_text(source)
        for f in detect(doc, cfg, lexicon):
            key, text = RULES[f.smell_id].evidence, f.evidence.text
            if key == "flow":
                assert type(text) is tuple and all(type(t) is str for t in text), f
            else:
                assert type(text) is str, f
            assert _EVIDENCE_KEYS & set(report.finding_record(f)) == {key}, f
            keys[key] += 1
    assert set(keys) == _EVIDENCE_KEYS, keys


# Quotes, backslashes, control characters, line separators and non-ASCII
# text, mixed with whatever else hypothesis draws.
_json_text_st = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\u00e9\U0001f600'),
        st.characters(),
    ),
    max_size=12,
)


def _evidence_st(smell_id):
    """Evidence of the shape the smell's rule row gives: a tuple for a flow."""
    if RULES[smell_id].evidence == "flow":
        return st.lists(_json_text_st, max_size=3).map(tuple).map(Evidence)
    return _json_text_st.map(Evidence)


_finding_st = st.sampled_from(sorted(RULES)).flatmap(
    lambda smell_id: st.builds(
        Finding,
        smell_id=st.just(smell_id),
        item_name=_json_text_st,
        metric=_json_text_st,
        line=st.integers(min_value=0, max_value=10**9),
        evidence=_evidence_st(smell_id),
        span=st.just(EMPTY_SPAN),
    )
)


def _dumps(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False)


@settings(max_examples=150, deadline=None)
@given(findings=st.lists(_finding_st, max_size=5))
def test_emit_json_equals_json_dumps(findings):
    want = _dumps([report.finding_record(f) for f in findings])
    assert report.emit_json(findings) == want


@settings(max_examples=100, deadline=None)
@given(
    per_file=st.lists(
        st.tuples(
            # few paths, so that some repeat: the last findings win
            st.one_of(st.sampled_from(["a.ucd", 'b "2".ucd', "\u00e9.ucd"]), _json_text_st),
            st.lists(_finding_st, max_size=3),
        ),
        max_size=4,
    )
)
def test_emit_json_files_equals_json_dumps(per_file):
    want = _dumps(
        {path: [report.finding_record(f) for f in fs] for path, fs in per_file}
    )
    assert report.emit_json_files(per_file) == want


@pytest.mark.parametrize(
    "text",
    ["plain ASCII", 'a "quoted" \\ path', "caf\u00e9 \u2019 \u4e2d \U0001f600",
     "tab\tnew\nline\x00\x1f\x7f", "lone \ud800 and \udfff surrogates", ""],
)
def test_quote_is_the_json_modules_quoting(text):
    # report quotes through the json package's C quoter, imported alone.
    assert report._quote(text) == json.encoder.encode_basestring(text)
    assert report._quote(text) == json.dumps(text, ensure_ascii=False)


def test_emit_json_rejects_a_smell_without_a_rule_row():
    # The evidence key comes from the finding's engine.RULES row, so a
    # smell with no row (here, one the catalogue cannot detect) has none.
    odd = word_finding()._replace(smell_id="omitted-word")
    assert "omitted-word" not in RULES
    with pytest.raises(KeyError, match="omitted-word"):
        report.finding_record(odd)
    with pytest.raises(KeyError, match="omitted-word"):
        report.emit_json([odd])
    with pytest.raises(KeyError, match="omitted-word"):
        report.emit_json_files([("a.ucd", [odd])])
