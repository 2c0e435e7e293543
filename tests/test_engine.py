import ast
import functools
import random
import re
import unicodedata
from pathlib import Path
from collections import Counter

import largedoc
import pytest
import seeding
from hypothesis import given, settings, strategies as st

from ucsmell import metrics, textanalysis
from ucsmell.catalogue import catalogue, detectable_ids
from ucsmell.engine import (
    RULES,
    DetectorConfig,
    detect,
    load_config,
    parse_config,
)
from ucsmell.metrics import distribution
from ucsmell.model import (
    Evidence,
    Finding,
    PosTag,
    SectionKind,
    Sentence,
    UseCaseDescription,
)
from ucsmell.parser import parse_json, parse_text, serialize
from ucsmell.textanalysis import Lexicon, analyze_sentence

from conftest import FIXTURES, parse_fixture


def findings_for(text, lexicon, cfg=None):
    doc, _ = parse_text(text)
    assert doc is not None
    return detect(doc, cfg or DetectorConfig(), lexicon)


# --- configuration --------------------------------------------------------


def test_default_config():
    cfg = DetectorConfig()
    assert cfg.stddev_k == 2.0
    assert cfg.min_sentences_for_distribution == 5
    assert cfg.multi_action_verb_threshold == 2
    assert cfg.enabled_smells is None
    assert "pronoun" in cfg.enabled_ids()
    assert "distorted-flow-structure" not in cfg.enabled_ids()


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(stddev_k=0)
    with pytest.raises(ValueError):
        DetectorConfig(multi_action_verb_threshold=0)
    with pytest.raises(ValueError, match="min_sentences_for_distribution must be >= 0"):
        DetectorConfig(min_sentences_for_distribution=-1)
    # 0 is valid: the distribution rules then run on any non-empty document.
    assert DetectorConfig(min_sentences_for_distribution=0).min_sentences_for_distribution == 0


def test_parse_config():
    cfg = parse_config(
        "# comment\nstddev_k = 1.5\nmin_sentences_for_distribution=8\n"
        "suppress_actor_word_when_single_actor = true\n"
        "enabled_smells = pronoun, actor-actor\n"
    )
    assert cfg.stddev_k == 1.5
    assert cfg.min_sentences_for_distribution == 8
    assert cfg.suppress_actor_word_when_single_actor
    assert cfg.enabled_smells == frozenset({"pronoun", "actor-actor"})
    assert "long-sentence" not in cfg.enabled_ids()


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_config("no_such_option = 3\n")
    with pytest.raises(ValueError):
        parse_config("just a line\n")


@pytest.mark.parametrize(
    "ids, message",
    [
        ({"pronon"}, "unknown smell id in enabled_smells: 'pronon'"),
        ({"pronon", "long-sentence"}, "unknown smell id in enabled_smells: 'pronon'"),
        # A catalogue smell that no rule detects is not enabled either.
        ({"distorted-flow-structure"},
         "unknown smell id in enabled_smells: 'distorted-flow-structure'"),
        ({"b", "a", "pronoun"}, "unknown smell id in enabled_smells: 'a', 'b'"),
    ],
    ids=["typo", "typo-beside-a-known-id", "not-detectable", "two-unknown"],
)
def test_enabled_smells_must_be_detectable_ids(ids, message):
    for make in (
        lambda: DetectorConfig(enabled_smells=frozenset(ids)),
        lambda: DetectorConfig()._replace(enabled_smells=frozenset(ids)),
        lambda: parse_config(f"enabled_smells = {', '.join(sorted(ids))}\n"),
    ):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    assert DetectorConfig(enabled_smells=frozenset()).enabled_ids() == frozenset()
    every = DetectorConfig(enabled_smells=detectable_ids())
    assert every.enabled_ids() == detectable_ids()


def test_parse_config_takes_each_type_from_the_field_default():
    text = (
        "stddev_k = 3\nmin_sentences_for_distribution = 7\n"
        "multi_action_verb_threshold = 3\nrepeated_noun_threshold = 4\n"
        "same_reason_threshold = 5\nsuppress_actor_word_when_single_actor = yes\n"
        "count_los_in_tokens = off\n"
    )
    cfg = parse_config(text)
    assert cfg == DetectorConfig(3.0, 7, 3, 4, 5, True, False, None)
    assert [type(v) for v in cfg] == [float, int, int, int, int, bool, bool, type(None)]
    for key in ("multi_action_verb_threshold", "same_reason_threshold"):
        with pytest.raises(ValueError) as info:
            parse_config(f"{key} = 2.0\n")
        assert str(info.value) == f"config line 1: {key} must be an integer, got '2.0'"
    with pytest.raises(ValueError) as info:
        parse_config("suppress_actor_word_when_single_actor = 2\n")
    assert str(info.value) == (
        "config line 1: suppress_actor_word_when_single_actor must be a boolean, got '2'"
    )


@pytest.mark.parametrize(
    "spelling, value",
    [("1", True), ("YES", True), ("On", True), ("True", True),
     ("0", False), ("no", False), ("OFF", False), ("False", False)],
)
def test_parse_config_boolean_spellings(spelling, value):
    cfg = parse_config(f"count_los_in_tokens = {spelling}\n")
    assert cfg.count_los_in_tokens is value


@pytest.mark.parametrize("spelling", ["ture", "", "2", "y", "enabled"])
def test_parse_config_rejects_unknown_boolean(spelling):
    text = f"# comment\ncount_los_in_tokens = {spelling}\n"
    with pytest.raises(ValueError, match="config line 2"):
        parse_config(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("stddev_k = abc", "config line 2: stddev_k must be a number, got 'abc'"),
        (
            "min_sentences_for_distribution = 2.5",
            "config line 2: min_sentences_for_distribution must be an integer, "
            "got '2.5'",
        ),
        ("repeated_noun_threshold = two", "config line 2: repeated_noun_threshold"),
    ],
)
def test_parse_config_rejects_bad_numbers(line, message):
    with pytest.raises(ValueError) as info:
        parse_config(f"# comment\n{line}\n")
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_stddev_k_must_be_positive_and_finite(k):
    with pytest.raises(ValueError, match="stddev_k"):
        DetectorConfig(stddev_k=float(k))
    with pytest.raises(ValueError, match="stddev_k"):
        DetectorConfig()._replace(stddev_k=float(k))
    with pytest.raises(ValueError, match="stddev_k"):
        parse_config(f"stddev_k = {k}\n")


def test_load_config(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("stddev_k = 3.0\n")
    assert load_config(str(p)).stddev_k == 3.0


def test_first_version_config_enables_the_first_version_smells():
    """The abstract's 22 smells: the detectable ones less the two flagged
    both diamond and star."""
    first_version = {
        e.id
        for e in catalogue()
        if e.detectable and not {"diamond", "star"} <= e.origin_flags
    }
    assert len(first_version) == 22
    assert len(detectable_ids() - first_version) == 2
    cfg = load_config(str(FIXTURES / "first_version.cfg"))
    assert cfg.enabled_smells == first_version
    assert cfg._replace(enabled_smells=None) == DetectorConfig()


# --- distribution ---------------------------------------------------------


def test_distribution_known_values():
    d = distribution([8, 10, 12])
    assert d.n == 3
    assert d.mean == pytest.approx(10.0)
    assert d.stddev == pytest.approx(2.0)


def test_distribution_single_value():
    d = distribution([7])
    assert (d.mean, d.stddev) == (7.0, 0.0)


def test_distribution_empty_raises():
    with pytest.raises(ValueError):
        distribution([])


_DISTRIBUTION_ROWS = {smell for smell, rule in RULES.items() if rule.threshold == "stddev_k"}


def _steps_document(size: int) -> str:
    """A basic flow of size one-sentence steps: an over-qualified, a long
    and a short one, then plain ones."""
    steps = ["The clerk checks the valid new large small order.",
             "The clerk checks the valid order and the receipt and the ticket "
             "at the desk of the branch.",
             "Stop."]
    steps += ["The clerk checks the valid order."] * (size - len(steps))
    return "Name: Check\nBasic Flow:\n" + "".join(f"{i}. {s}\n" for i, s in enumerate(steps, 1))


@pytest.mark.parametrize("config", [None, "thresholds.cfg"], ids=["default", "thresholds"])
def test_distribution_rows_judge_documents_of_at_least_min_sentences(
    lexicon, monkeypatch, config
):
    # A live row takes its bound from Distribution.limits. Of 5 values none
    # lies beyond their mean ± 2·stddev, so under the default config only
    # the calls show the rows live; under thresholds.cfg (k = 1) each row
    # also reports a sentence.
    cfg = load_config(str(FIXTURES / config)) if config else DetectorConfig()
    n = cfg.min_sentences_for_distribution
    bounds = []
    limits = metrics.Distribution.limits
    monkeypatch.setattr(metrics.Distribution, "limits",
                        lambda d, k: bounds.append(k) or limits(d, k))
    for size in (n - 1, n, n + 1):
        bounds.clear()
        findings = findings_for(_steps_document(size), lexicon, cfg)
        found = {f.smell_id for f in findings} & _DISTRIBUTION_ROWS
        live = size >= n
        assert len(bounds) == (len(_DISTRIBUTION_ROWS) if live else 0), size
        assert found == (_DISTRIBUTION_ROWS if live and config else set()), size


# --- fixture regressions --------------------------------------------------


def test_atm_fixture_findings(atm_doc, lexicon, default_config):
    findings = detect(atm_doc, default_config, lexicon)
    counts = Counter(f.smell_id for f in findings)
    assert counts == {
        "missing-actor-section": 1,
        "actor-actor": 8,
        "sentence-with-multiple-actions": 1,
        "pronoun": 1,
        "multiple-alternate-flows-at-an-alternate-branch-condition": 1,
    }
    assert len(findings) == 12


def test_atm_pronoun_finding_details(atm_doc, lexicon, default_config):
    findings = detect(atm_doc, default_config, lexicon)
    (pronoun,) = [f for f in findings if f.smell_id == "pronoun"]
    assert pronoun.item_name == "Basic Flow"
    assert pronoun.line == 9  # section-relative, 1-based
    assert pronoun.evidence == Evidence("it")
    assert pronoun.metric == "NOP"


def test_atm_missing_section_finding(atm_doc, lexicon, default_config):
    findings = detect(atm_doc, default_config, lexicon)
    (missing,) = [f for f in findings if f.smell_id == "missing-actor-section"]
    assert missing.line == 0
    assert missing.item_name == "Actors"
    assert missing.metric == "ActorSectionExist?"


def test_clean_fixture_has_no_findings(clean_doc, lexicon, default_config):
    assert detect(clean_doc, default_config, lexicon) == []


# A branch flow with no sentence: its findings quote its id.
_SENTENCELESS_BRANCH = (
    "Name: X\nBasic Flow:\n1. The user pays.\nAlternate Flows:\nA1.\nOrigin: 1\n"
)


def test_a_finding_is_on_the_line_of_its_span(fixtures_dir, lexicon):
    """A finding's line is its span's line within its section, and the span
    of a word or sentence finding slices the source to the text it quotes;
    a flow quoted by its id is sliced to its header, which starts with it."""
    fixtures = [p.read_text("utf-8") for p in sorted(fixtures_dir.glob("*.ucd"))]
    texts = fixtures + [unicodedata.normalize("NFD", t) for t in fixtures]
    texts += [t.replace("\n", "\r\n") for t in fixtures]
    texts += [d.text for d in seeding.seeded_documents() + seeding.clean_documents()]
    texts += [largedoc.generate(1, 1000).text, _SENTENCELESS_BRANCH]
    configs = [DetectorConfig(), load_config(str(fixtures_dir / "thresholds.cfg"))]
    kinds = {kind.title: kind for kind in SectionKind}
    placed, misplaced, quoted, misquoted = 0, [], 0, []
    for text in texts:
        doc, _ = parse_text(text)
        headers = {f.id: f.span for f in doc.alternate_flows + doc.exception_flows}
        for f in [f for cfg in configs for f in detect(doc, cfg, lexicon)]:
            if not f.span.line:
                continue
            header = doc.section_header_lines[kinds[f.item_name]]
            placed += 1
            if f.line != f.span.line - header:
                misplaced.append(f)
            if RULES[f.smell_id].evidence == "flow" or f.span.start == f.span.end:
                continue
            quoted += 1
            piece, want = text[f.span.start : f.span.end], f.evidence.text
            if headers.get(want) == f.span:
                piece = piece[: len(want)]
            if piece != want:
                misquoted.append((piece, f))
    assert placed > 400 and quoted > 400
    assert misplaced == []
    assert misquoted == []
    sentenceless = findings_for(_SENTENCELESS_BRANCH, lexicon)
    assert {(f.smell_id, f.line, f.span.line) for f in sentenceless} >= {
        ("alternate-flow-without-return", 1, 5),
        ("unexplained-alternate-flow", 1, 5),
    }


@pytest.mark.parametrize("front_end", ["text", "json"])
def test_detect_walks_the_document_once(fixtures_dir, lexicon, monkeypatch, front_end):
    """detect tags the document and builds its rules' context from one walk
    of iter_sentences: analyze_document returns what that walk gave, and
    every finding is exactly a Finding of its six fields."""
    walk = UseCaseDescription.iter_sentences
    walked = []

    def counted(doc):
        walked.append(doc)
        return walk(doc)

    found = 0
    for path in sorted(fixtures_dir.glob("*.ucd")):
        doc, _ = parse_text(path.read_text("utf-8"))
        if front_end == "json":
            doc, _ = parse_json(serialize(doc))
        kinds, sentences = textanalysis.analyze_document(doc, lexicon)
        pairs = list(doc.iter_sentences())
        assert kinds == [kind for kind, _ in pairs]
        assert [id(s) for s in sentences] == [id(s) for _, s in pairs]

        monkeypatch.setattr(UseCaseDescription, "iter_sentences", counted)
        findings = detect(doc, DetectorConfig(), lexicon)
        monkeypatch.undo()
        assert len(walked) == 1 and walked.pop() is doc, path.name
        assert all(type(f) is Finding for f in findings)
        assert all(f == Finding(*f) for f in findings)
        found += len(findings)
    assert found


def test_findings_are_deterministically_ordered(atm_doc, lexicon, default_config):
    a = detect(atm_doc, default_config, lexicon)
    b = detect(atm_doc, default_config, lexicon)
    assert a == b
    keys = [(f.item_name, f.line) for f in a]
    # Sections appear in canonical order; lines ascend within a section.
    seen = []
    for name, _ in keys:
        if name not in seen:
            seen.append(name)
    assert seen == sorted(
        seen,
        key=lambda n: [
            "Name", "Overview", "Actors", "Preconditions", "Postconditions",
            "Basic Flow", "Alternate Flows", "Exception Flows",
        ].index(n),
    )


# Each section's rank in canonical order, as detect sorts by it.
_SECTION_RANK = {kind.title: i for i, kind in enumerate(SectionKind)}


def _sort_key(f):
    """The order detect gives, as one key tuple: the reference its sort
    passes must match."""
    return (_SECTION_RANK[f.item_name], f.line, f.smell_id, f.span.start)


@pytest.mark.parametrize("config", [None, "thresholds.cfg"], ids=["default", "thresholds"])
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_finding_order_does_not_depend_on_the_rule_order(lexicon, monkeypatch,
                                                         config, order):
    """detect orders findings by section, line, smell id and span start,
    one stable sort pass per key; findings that tie on all four (under the
    thresholds config, the repeated nouns of one sentence) keep the order
    their rule found them in, whatever order the rules run in."""
    cfg = load_config(str(FIXTURES / config)) if config else DetectorConfig()
    texts = [p.read_text("utf-8") for p in sorted(FIXTURES.glob("*.ucd"))]
    texts += [d.text for d in seeding.seeded_documents() + seeding.clean_documents()]
    texts.append(largedoc.generate(1, 1000).text)
    docs = [parse_text(text)[0] for text in texts]
    want = [detect(doc, cfg, lexicon) for doc in docs]
    ties = 0
    for found in want:
        assert found == sorted(found, key=_sort_key)
        ties += sum(_sort_key(a) == _sort_key(b) for a, b in zip(found, found[1:]))
    assert sum(map(len, want)) > 400
    assert ties > 100 if config else ties == 0
    rows = list(RULES.items())
    if order == "reversed":
        rows.reverse()
    else:
        random.Random(1).shuffle(rows)
    monkeypatch.setattr("ucsmell.engine.RULES", dict(rows))
    assert [detect(doc, cfg, lexicon) for doc in docs] == want


def test_findings_of_a_rule_on_one_line_follow_their_span_starts(lexicon):
    """The last sort key: a rule's findings on one line are ordered by where
    they start, even when the document lists the sentences otherwise."""
    doc, _ = parse_text("Name: X\nBasic Flow:\n1. It pays. Then it leaves.\n")
    step = doc.basic_flow.steps[0]
    want = [f for f in detect(doc, DetectorConfig(), lexicon) if f.smell_id == "pronoun"]
    assert [(f.line, f.evidence.text) for f in want] == [(1, "It"), (1, "it")]
    step.sentences.reverse()
    found = detect(doc, DetectorConfig(), lexicon)
    assert [f for f in found if f.smell_id == "pronoun"] == want


# --- individual rules -----------------------------------------------------

MINIMAL = "Name: X\nOverview: Y\nActors:\nA - actor\n"


def base_doc(basic, alternates="", exceptions=""):
    text = (
        MINIMAL
        + "Preconditions:\nThe system runs the service.\n"
        + "Postconditions:\nThe system keeps the result of the run.\n"
        + "Basic Flow:\n"
        + basic
    )
    if alternates:
        text += "Alternate Flows:\n" + alternates
    if exceptions:
        text += "Exception Flows:\n" + exceptions
    return text


def test_decomposed_step_has_the_findings_of_its_composed_form(lexicon):
    """An accented word written with combining marks (NFD) is one noun, not
    fragments: no repeated "re" from "résumé" and "réservation"."""
    nfc = base_doc("1. The clerk files the résumé and the réservation.\n")
    nfd = unicodedata.normalize("NFD", nfc)
    assert nfd != nfc

    def findings(text):
        return [
            (f.smell_id, f.metric, f.line, unicodedata.normalize("NFC", f.evidence.text))
            for f in findings_for(text, lexicon)
        ]

    assert 'NON("re")' not in {metric for _, metric, *_ in findings(nfd)}
    assert findings(nfd) == findings(nfc)


def test_unordered_flow_unnumbered(lexicon):
    text = base_doc("1. System shows the page.\nSystem stores the form.\n")
    ids = {f.smell_id for f in findings_for(text, lexicon)}
    assert "unordered-flow" in ids


def test_unordered_flow_skipped_number(lexicon):
    text = base_doc("1. System shows the page.\n3. System stores the form.\n")
    found = [f for f in findings_for(text, lexicon) if f.smell_id == "unordered-flow"]
    assert len(found) == 1
    assert found[0].metric == "BasicFlowOrdered?"


def test_unordered_flow_not_starting_at_1(lexicon):
    text = base_doc("2. System shows the page.\n3. System stores the form.\n")
    found = [f for f in findings_for(text, lexicon) if f.smell_id == "unordered-flow"]
    assert found[0].metric == "BasicFlowStartWith1?"


def test_origin_free_alternate_flow(lexicon):
    text = base_doc(
        "1. System shows the page.\n",
        alternates="A1 If the form lacks a value\nA1.1 System shows a note. Return to step 1.\n",
    )
    ids = {f.smell_id for f in findings_for(text, lexicon)}
    assert "origin-free-alternate-flow" in ids


def test_flow_without_return_and_unexplained(lexicon):
    text = base_doc(
        "1. System shows the page.\n",
        exceptions="E1\nE1.1 System logs the fault of the page.\n",
    )
    ids = {f.smell_id for f in findings_for(text, lexicon)}
    assert "exception-flow-without-return" in ids
    assert "unexplained-exception-flow" in ids


def test_multiple_flows_same_reason(lexicon):
    alt = (
        "A1 If the form lacks a value at step 1\nA1.1 Return to step 1.\n"
        "A2 If the form lacks a value at step 1\nA2.1 Return to step 1.\n"
    )
    text = base_doc("1. System shows the page.\n", alternates=alt)
    found = [
        f
        for f in findings_for(text, lexicon)
        if f.smell_id
        == "multiple-alternate-flows-at-an-alternate-branch-condition"
    ]
    assert len(found) == 1
    assert found[0].metric == "NOAFR"
    assert "A1" in found[0].evidence.text and "A2" in found[0].evidence.text


def test_multi_action_threshold_config(lexicon):
    text = base_doc("1. System checks the form and stores the result.\n")
    assert any(
        f.smell_id == "sentence-with-multiple-actions"
        for f in findings_for(text, lexicon)
    )
    relaxed = DetectorConfig(multi_action_verb_threshold=3)
    assert not any(
        f.smell_id == "sentence-with-multiple-actions"
        for f in findings_for(text, lexicon, relaxed)
    )


def test_repeated_noun(lexicon):
    text = base_doc("1. System sends the code of the code reader to the host.\n")
    found = [
        f for f in findings_for(text, lexicon) if f.smell_id == "repeating-the-same-noun"
    ]
    assert len(found) == 1
    assert found[0].metric == 'NON("code")'


@pytest.mark.xfail(
    strict=True,
    reason=(
        "FOUND: the tagger reads a participle after 'is' as a noun: "
        "'The clerk is logged in and is logged out.' tags as ononooono, so it "
        "gets a repeating-the-same-noun finding with metric NON(\"logged\") "
        "(textanalysis._step)"
    ),
)
@pytest.mark.parametrize("front_end", ["text", "json"])
def test_a_repeated_participle_is_not_a_repeated_noun(lexicon, front_end):
    doc = parse_text(base_doc("1. The clerk is logged in and is logged out.\n"))[0]
    if front_end == "json":
        doc = parse_json(serialize(doc))[0]
    found = detect(doc, DetectorConfig(), lexicon)
    assert [f.metric for f in found if f.smell_id == "repeating-the-same-noun"] == []


def test_detect_counts_repeated_nouns_through_metrics(lexicon, monkeypatch):
    """The repeated-noun rule counts with the function NON counts with,
    looked up on the metrics module, so a wrapper there sees the call."""
    calls = []
    count = metrics.noun_counts

    @functools.wraps(count)
    def counted(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(metrics, "noun_counts", counted)
    text = base_doc("1. System sends the code of the code reader to the host.\n")
    found = [f.metric for f in findings_for(text, lexicon)]
    assert 'NON("code")' in found
    assert len(calls) == 1  # one call for the whole document
    sentences, repeated_only = calls[0]
    assert repeated_only  # the default threshold, 2, needs a repeat
    step = next(s for s in sentences if s.text.startswith("System sends the code"))
    calls.clear()
    assert metrics.NON(step, "CODE") == 2 and calls


def test_suppress_actor_word_when_single_actor(lexicon):
    text = base_doc("1. Actor opens the page of the service.\n")
    assert any(f.smell_id == "actor-actor" for f in findings_for(text, lexicon))
    cfg = DetectorConfig(suppress_actor_word_when_single_actor=True)
    assert not any(
        f.smell_id == "actor-actor" for f in findings_for(text, lexicon, cfg)
    )


def test_disable_rule(lexicon):
    text = base_doc("1. Actor opens the page of the service.\n")
    cfg = DetectorConfig(enabled_smells=frozenset({"pronoun"}))
    assert not any(
        f.smell_id == "actor-actor" for f in findings_for(text, lexicon, cfg)
    )


def test_each_detect_honours_its_own_config(atm_doc, lexicon):
    default = Counter(f.smell_id for f in detect(atm_doc, DetectorConfig(), lexicon))
    assert {"pronoun", "actor-actor"} <= set(default)
    subset = DetectorConfig(enabled_smells=frozenset({"pronoun"}))
    for cfg, want in (
        (DetectorConfig(), default),
        (subset, Counter({"pronoun": default["pronoun"]})),
        (DetectorConfig(), default),
    ):
        assert Counter(f.smell_id for f in detect(atm_doc, cfg, lexicon)) == want


@pytest.mark.parametrize("name", ["atm.ucd", "nonascii.ucd"])
def test_detect_reads_each_section_anew_on_every_call(lexicon, name):
    # Presence and flows are resolved per call: a second detect on the
    # same object sees the sections removed after the first.
    cfg = DetectorConfig()
    doc = parse_fixture(name)[0]
    first = detect(doc, cfg, lexicon)
    alternate, actors = doc.alternate_flows, doc.actors
    doc.alternate_flows, doc.actors = [], None
    fresh = parse_fixture(name)[0]
    fresh.alternate_flows, fresh.actors = [], None
    without = detect(doc, cfg, lexicon)
    assert without == detect(fresh, cfg, lexicon)
    assert without != first
    doc.alternate_flows, doc.actors = alternate, actors
    assert detect(doc, cfg, lexicon) == first


def test_detect_resolves_each_section_once(atm_doc, lexicon, monkeypatch):
    flows_of, present = metrics.section_flows, UseCaseDescription.section_present
    flow_kinds, present_kinds = [], []

    def counted_flows(d, kind):
        flow_kinds.append(kind)
        return flows_of(d, kind)

    def counted_present(d, kind):
        present_kinds.append(kind)
        return present(d, kind)

    monkeypatch.setattr(metrics, "section_flows", counted_flows)
    monkeypatch.setattr(UseCaseDescription, "section_present", counted_present)
    assert detect(atm_doc, DetectorConfig(), lexicon)
    flow_sections = {
        SectionKind.BASIC_FLOW, SectionKind.ALTERNATE_FLOWS, SectionKind.EXCEPTION_FLOWS
    }
    # section_flows at most once per flow section; section_present at most
    # once per kind, plus once per section_flows call.
    assert len(flow_kinds) == len(set(flow_kinds)) and set(flow_kinds) <= flow_sections
    counts = Counter(present_kinds)
    assert all(n <= 1 + flow_kinds.count(kind) for kind, n in counts.items())
    assert len(present_kinds) <= len(SectionKind) + len(flow_kinds)
    # section_flows only for a section that is present.
    flow_kinds.clear()
    assert detect(parse_text(base_doc("1. The system runs.\n"))[0], DetectorConfig(), lexicon)
    assert flow_kinds == [SectionKind.BASIC_FLOW]


def test_detect_tags_with_the_lexicon_it_is_given(atm_doc, lexicon):
    no_pronouns = Lexicon(
        frozenset(), lexicon.verbs, lexicon.modifiers, lexicon.stopwords
    )
    fresh_doc = parse_fixture("atm.ucd")[0]

    def pronouns(doc, lex):
        return sum(f.smell_id == "pronoun" for f in detect(doc, DetectorConfig(), lex))

    assert pronouns(atm_doc, lexicon) == 1
    assert pronouns(fresh_doc, no_pronouns) == 0
    # The same document again: its tags must follow the new lexicon.
    assert pronouns(atm_doc, no_pronouns) == 0
    assert pronouns(atm_doc, lexicon) == 1


def test_detect_tallies_with_the_lexicon_it_is_given(lexicon):
    # Without verbs or modifiers every content word is a noun: "then", a
    # stopword, keeps "checks" out of the subject slot, where its suffix
    # would make it a verb.
    nouns_only = Lexicon(lexicon.pronouns, frozenset(), frozenset(), lexicon.stopwords)
    doc, _ = parse_text(
        base_doc("1. The system then checks the valid card and checks the code.\n")
    )
    step = doc.basic_flow.steps[0].sentences[0]

    def run(lex):
        findings = detect(doc, DetectorConfig(), lex)
        repeated = [
            f.metric for f in findings if f.smell_id == "repeating-the-same-noun"
        ]
        return metrics.NOV(step), metrics.NOM(step), repeated

    default = (2, 1, [])
    assert run(lexicon) == default
    assert run(nouns_only) == (0, 0, ['NON("checks")'])
    assert metrics.NON(step, "Checks") == 2
    assert run(lexicon) == default
    assert metrics.NON(step, "checks") == 0


_WORD_RULES = (
    "pronoun",
    "actor-actor",
    "sentence-with-multiple-actions",
    "repeating-the-same-noun",
)
_STEP_WORDS = (
    "it They HE actor Actor actors system System card code shows reads checks "
    "quickly valid the a and to"
).split()


def _word_findings_by_walking_tokens(doc, cfg):
    """The four word and sentence rules, as a walk over every token."""
    found = Counter()
    for _, s in doc.iter_sentences():
        tokens = s.tokens
        for t in tokens:
            if t.pos is PosTag.PRONOUN:
                found["pronoun", "NOP", t.surface, t.span] += 1
            if t.pos is PosTag.NOUN and t.surface.lower() == "actor":
                found["actor-actor", 'NON("actor")', t.surface, t.span] += 1
        verbs = sum(t.pos is PosTag.VERB for t in tokens)
        if verbs >= cfg.multi_action_verb_threshold:
            found["sentence-with-multiple-actions", "NOV", s.text, s.span] += 1
        nouns = Counter(t.surface.lower() for t in tokens if t.pos is PosTag.NOUN)
        for noun, n in nouns.items():
            if n >= cfg.repeated_noun_threshold:
                metric = f'NON("{noun}")'
                found["repeating-the-same-noun", metric, s.text, s.span] += 1
    return found


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(
        st.lists(st.sampled_from(_STEP_WORDS), min_size=1, max_size=10),
        min_size=1,
        max_size=8,
    ),
    verbs=st.integers(min_value=1, max_value=3),
    nouns=st.integers(min_value=1, max_value=3),
)
def test_word_rules_match_a_walk_over_every_token(lexicon, steps, verbs, nouns):
    basic = "".join(f"{i}. {' '.join(words)}.\n" for i, words in enumerate(steps, 1))
    doc, _ = parse_text(base_doc(basic))
    cfg = DetectorConfig(
        multi_action_verb_threshold=verbs, repeated_noun_threshold=nouns
    )
    found = Counter(
        (f.smell_id, f.metric, f.evidence.text, f.span)
        for f in detect(doc, cfg, lexicon)
        if f.smell_id in _WORD_RULES
    )
    assert found == _word_findings_by_walking_tokens(doc, cfg)


def _generated_doc_text(steps=300):
    """A long basic flow like perfbench's generated documents: mostly plain
    steps, some with a pronoun, some naming the actor."""
    lines = []
    for i in range(1, steps + 1):
        if i % 7 == 0:
            lines.append(f"{i}. It checks the record {i} of the batch.")
        elif i % 11 == 0:
            lines.append(f"{i}. The actor confirms record {i}.")
        else:
            lines.append(f"{i}. The operator reviews record {i} of the batch.")
    return base_doc("".join(f"{line}\n" for line in lines))


@pytest.mark.parametrize("source", ["atm", "generated", "count_los_in_tokens"])
def test_detect_builds_tokens_only_where_a_rule_quotes_them(
    lexicon, monkeypatch, source
):
    """No rule quotes from tokens: the pronoun and "actor" rules read their
    words from the tagging snapshot, so a default run builds no token."""
    cfg = DetectorConfig(count_los_in_tokens=source == "count_los_in_tokens")
    if source == "atm":
        doc, _ = parse_fixture("atm.ucd")
    else:
        doc, _ = parse_text(_generated_doc_text())

    def no_tokens(*args):
        raise AssertionError("detect built tokens")

    monkeypatch.setattr(textanalysis, "tagged_tokens", no_tokens)
    found = detect(doc, cfg, lexicon)
    monkeypatch.undo()
    assert {"pronoun", "actor-actor"} <= {f.smell_id for f in found}
    sentences = [s for _, s in doc.iter_sentences()]
    # Read later, they are the tokens read right after a fresh analysis.
    def fresh_tokens(s):
        fresh = Sentence(s.text, s.line, s.span)
        analyze_sentence(fresh, lexicon)
        return fresh.tokens

    assert [s.tokens for s in sentences] == [fresh_tokens(s) for s in sentences]


class _ScanLog:
    """Stands in for textanalysis._WORD_RE: logs each text findall scans
    and fails on finditer."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.scanned = []

    def findall(self, text):
        self.scanned.append(text)
        return self.pattern.findall(text)

    def finditer(self, text):
        raise AssertionError(f"finditer scanned {text!r}")


# A text the splitter takes apart at its whitespace and commas.
_PLAIN_TEXT = re.compile(r"[A-Za-z0-9\s,]*[A-Za-z0-9][A-Za-z0-9\s,]*[.!?]*")


# search.ucd quotes no word, but has a sentence that is not plain.
@pytest.mark.parametrize("source", ["atm", "search", "generated"])
def test_detect_on_ascii_text_scans_each_sentence_at_most_once(
    lexicon, monkeypatch, source
):
    """Tagging splits each sentence once, taking the pattern only for the
    texts that are not plain, and quoting words takes it for none."""
    if source == "generated":
        doc, _ = parse_text(_generated_doc_text())
    else:
        doc, _ = parse_fixture(f"{source}.ucd")
    texts = [s.text for _, s in doc.iter_sentences()]
    assert all(t.isascii() for t in texts)
    log = _ScanLog(textanalysis._WORD_RE)
    monkeypatch.setattr(textanalysis, "_WORD_RE", log)
    found = detect(doc, DetectorConfig(), lexicon)
    monkeypatch.undo()
    assert ("pronoun" in {f.smell_id for f in found}) is (source != "search")
    assert sorted(log.scanned) == sorted(t for t in texts if not _PLAIN_TEXT.fullmatch(t))


# --- distribution rules ---------------------------------------------------

DISTRIBUTION_SMELLS = {
    "long-sentence",
    "short-sentence",
    "relatively-over-qualified-sentence",
    "relatively-under-qualified-sentence",
}


def constant_length_doc():
    steps = [f"{i}. The system reads the value {i:02d} now." for i in range(1, 7)]
    return MINIMAL + "Basic Flow:\n" + "\n".join(steps) + "\n"


def test_zero_stddev_produces_no_length_findings(lexicon):
    findings = findings_for(constant_length_doc(), lexicon)
    ids = {f.smell_id for f in findings}
    assert "long-sentence" not in ids
    assert "short-sentence" not in ids


def test_distribution_rules_inert_without_sentences(lexicon):
    cfg = DetectorConfig(min_sentences_for_distribution=0)
    findings = findings_for(MINIMAL, lexicon, cfg)
    assert findings
    assert not {f.smell_id for f in findings} & DISTRIBUTION_SMELLS


def test_distribution_rules_inert_below_min_sentences(lexicon):
    text = MINIMAL + "Basic Flow:\n1. Go.\n2. The system reads the long value.\n"
    ids = {f.smell_id for f in findings_for(text, lexicon)}
    assert "short-sentence" not in ids
    assert "long-sentence" not in ids


MID_STEPS = [
    f"{i}. The system reads the value {i:02d} of the form." for i in range(1, 9)
]


def test_long_sentence_detection(lexicon):
    long_step = (
        "9. The system writes the outcome of the request together with the"
        " date, the time, the terminal name, and the account number of the"
        " user into the journal of the day."
    )
    text = MINIMAL + "Basic Flow:\n" + "\n".join(MID_STEPS + [long_step]) + "\n"
    findings = findings_for(text, lexicon)
    longs = [f for f in findings if f.smell_id == "long-sentence"]
    assert len(longs) == 1 and longs[0].line == 9
    assert not any(f.smell_id == "short-sentence" for f in findings)


def test_short_sentence_detection(lexicon):
    text = MINIMAL + "Basic Flow:\n" + "\n".join(MID_STEPS + ["9. Go on."]) + "\n"
    findings = findings_for(text, lexicon)
    shorts = [f for f in findings if f.smell_id == "short-sentence"]
    assert len(shorts) == 1 and shorts[0].line == 9
    assert not any(f.smell_id == "long-sentence" for f in findings)


def test_stddev_k_configurable(lexicon):
    text = MINIMAL + "Basic Flow:\n" + "\n".join(
        f"{i}. The system reads value {'x' * i}." for i in range(1, 9)
    ) + "\n"
    loose = findings_for(text, lexicon, DetectorConfig(stddev_k=10.0))
    assert not any(f.smell_id == "long-sentence" for f in loose)


def test_count_los_in_tokens_measures_sentences_in_words(lexicon):
    steps = ["The system shows the page."] * 8 + [
        "The clerk of the bank in the town gives the card to the man at the desk.",
        "Administrators reauthenticate internationalization configurations.",
    ]
    basic = "".join(f"{i}. {text}\n" for i, text in enumerate(steps, 1))
    doc, _ = parse_text(base_doc(basic))
    cfg = DetectorConfig(count_los_in_tokens=True)
    found = {
        (f.smell_id, f.evidence.text)
        for f in detect(doc, cfg, lexicon)
        if f.smell_id in ("long-sentence", "short-sentence")
    }
    sentences = [s.text for _, s in doc.iter_sentences()]
    words = [len(text.split()) for text in sentences]  # one word per space here
    dist = distribution(words)
    spread = cfg.stddev_k * dist.stddev
    want = {
        ("long-sentence" if n > dist.mean else "short-sentence", text)
        for text, n in zip(sentences, words)
        if abs(n - dist.mean) > spread
    }
    assert found == want
    assert ("long-sentence", steps[8]) in want


# --- one rule per smell, one implementation per predicate ----------------


def test_engine_reads_no_analysis_record():
    """The engine maps metric values to findings: the layout of the
    analysis record, and the distribution, belong to metrics."""
    tree = ast.parse(Path(metrics.__file__).with_name("engine.py").read_text("utf-8"))
    private = {"_tagged", "_TAGS", "_NOUNS", "_TEXT", "_NOUN", "_PRONOUN", "_spans"}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
            named.add(node.name)
    assert not named & private
    defined = {n.name for n in tree.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    assert not defined & {"Distribution", "distribution", "_sqrt_of_fraction"}
    assert not any(isinstance(n, ast.ClassDef) and n.name == "Distribution" for n in ast.walk(tree))
    assert distribution is metrics.distribution


def test_rule_table_has_one_rule_per_detectable_smell():
    assert set(RULES) == detectable_ids()
    assert len(RULES) == len(detectable_ids()) == 24
    for smell_id, rule in RULES.items():
        assert rule.sections and set(rule.sections) <= set(SectionKind), smell_id
        if isinstance(rule.metric, tuple):  # FLOW_CHECKS suffixes, tried in turn
            assert rule.metric and set(rule.metric) <= set(metrics.FLOW_CHECKS), smell_id
            names = [
                metrics.predicate_name(kind, suffix)
                for kind in rule.sections
                for suffix in rule.metric
            ]
            assert set(names) <= set(metrics.PREDICATES), smell_id
        elif rule.metric in metrics.PREDICATES:
            assert rule.metric == metrics.SECTION_EXIST[rule.sections[0]], smell_id
        else:
            assert callable(getattr(metrics, rule.metric, None)), smell_id
        assert rule.threshold is None or rule.threshold in DetectorConfig._fields
    assert {r.evidence for r in RULES.values()} == {"word", "sentence", "flow"}
    count_thresholds = {r.threshold for r in RULES.values()} - {None, "stddev_k"}
    assert count_thresholds == {
        "multi_action_verb_threshold",
        "repeated_noun_threshold",
        "same_reason_threshold",
    }
    # Every count threshold is checked when a config is made.
    for name in count_thresholds:
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            DetectorConfig(**{name: 0})


_ORDERING_SECTIONS = {
    metrics.predicate_name(kind, suffix): kind
    for kind in (
        SectionKind.BASIC_FLOW,
        SectionKind.ALTERNATE_FLOWS,
        SectionKind.EXCEPTION_FLOWS,
    )
    for suffix in metrics.ORDERING_CHECKS
}


# Branch flows that skip a step, start at 2, or hold an unnumbered step
# next to a skipped one; the fixtures and seeded suites break only the
# basic flow's numbering.
_BROKEN_BRANCH_NUMBERING = (
    "Name: Pay bill\n"
    "Overview: The customer pays a bill.\n"
    "Actors:\n"
    "Customer\n"
    "Basic Flow:\n"
    "1. The customer opens the bill.\n"
    "2. The customer pays the bill.\n"
    "Alternate Flows:\n"
    "A1 If the bill is late at step 1\n"
    "A1.1 The system adds a fee.\n"
    "A1.3 The flow returns to step 2.\n"
    "A2 If the bill is disputed at step 1\n"
    "A2.2 The system flags the bill.\n"
    "A2.3 The use case ends.\n"
    "A3 If the bill is split at step 2\n"
    "The system asks for the parts.\n"
    "A3.1 The system records the parts.\n"
    "A3.4 The flow returns to step 2.\n"
    "Exception Flows:\n"
    "E1 If the network fails at step 2\n"
    "E1.2 The system shows an error.\n"
    "E1.3 The use case ends.\n"
    "E2 If the card is refused at step 2\n"
    "E2.1 The system shows a refusal.\n"
    "E2.3 The use case ends.\n"
    "E3 If the bank is closed at step 2\n"
    "The system waits.\n"
    "E3.1 The use case ends.\n"
)


def _agreement_corpus():
    texts = [p.read_text("utf-8") for p in sorted(FIXTURES.glob("*.ucd"))]
    texts.append(_BROKEN_BRANCH_NUMBERING)
    texts += [
        d.text for d in seeding.seeded_documents() + seeding.clean_documents()
    ]
    for text in texts:
        doc, _ = parse_text(text)
        yield doc
        again, diags = parse_json(serialize(doc))
        assert again is not None, diags
        yield again


def test_predicates_and_findings_agree(lexicon):
    failed_somewhere = set()
    for doc in _agreement_corpus():
        findings = detect(doc, DetectorConfig(), lexicon)
        results = {name: p(doc) for name, p in metrics.PREDICATES.items()}
        failing = {name for name, r in results.items() if not r.holds}
        failed_somewhere |= failing
        labels = {f.metric for f in findings}
        for name in results.keys() - _ORDERING_SECTIONS.keys():
            assert (name in failing) == (name in labels), name
        unordered = [f for f in findings if f.smell_id == "unordered-flow"]
        for f in unordered:
            assert f.metric in _ORDERING_SECTIONS and f.metric in failing, f
        for name in failing & _ORDERING_SECTIONS.keys():
            title = _ORDERING_SECTIONS[name].title
            assert any(f.item_name == title for f in unordered), name
    # The corpus makes every predicate fail somewhere, so no check is vacuous.
    assert failed_somewhere == set(metrics.PREDICATES)


# --- precision on the seeded suite ----------------------------------------

# Findings per smell over the seeded suite, 84 in all. Each smell is
# planted in three documents; the manifest names none of the 12 findings
# beyond those. A rule that starts firing anywhere else fails the test.
_SEEDED_EXTRA = {
    "long-sentence": 7,
    "short-sentence": 5,
    "origin-free-alternate-flow": 6,
    "origin-free-exception-flow": 6,
}


def test_seeded_suite_findings_per_smell(lexicon):
    found = Counter()
    for d in seeding.seeded_documents():
        doc, _ = parse_text(d.text)
        found.update(f.smell_id for f in detect(doc, DetectorConfig(), lexicon))
    assert found == {i: _SEEDED_EXTRA.get(i, 3) for i in detectable_ids()}
