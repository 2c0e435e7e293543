import functools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from ucsmell.evaluation import (
    LINE_TOLERANCE,
    OracleEntry,
    Tally,
    _category,
    _evidence_text,
    load_oracle,
    match,
    render_table,
)
from ucsmell.model import Evidence, Finding, SourceSpan


def finding(smell_id="pronoun", item="Basic Flow", line=1, word="it"):
    return Finding(
        smell_id=smell_id,
        item_name=item,
        metric="NOP",
        line=line,
        evidence=Evidence(word),
    )


def entry(smell_id="pronoun", item="Basic Flow", line=1, hint=None):
    return OracleEntry(
        smell_id=smell_id, item_name=item, line=line, evidence_hint=hint
    )


def test_tally_ratios():
    t = Tally(tp=3, fp=1, fn=2)
    assert t.precision == pytest.approx(0.75)
    assert t.recall == pytest.approx(0.6)
    assert Tally().precision is None
    assert Tally().recall is None


def test_load_oracle_roundtrip():
    src = json.dumps(
        [
            {"smell_id": "pronoun", "item_name": "Basic Flow", "line": 3},
            {
                "smell_id": "actor-actor",
                "item_name": "Preconditions",
                "line": 1,
                "evidence_hint": "Actor",
            },
        ]
    )
    entries = load_oracle(src)
    assert len(entries) == 2
    assert entries[1].evidence_hint == "Actor"


def test_load_oracle_collapses_exact_duplicates():
    rec = {"smell_id": "pronoun", "item_name": "Basic Flow", "line": 3}
    assert len(load_oracle(json.dumps([rec, rec]))) == 1


def test_load_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        load_oracle("{not json")
    with pytest.raises(ValueError):
        load_oracle(json.dumps({"smell_id": "pronoun"}))
    with pytest.raises(ValueError):
        load_oracle(json.dumps([{"smell_id": "pronoun"}]))  # missing keys
    with pytest.raises(
        ValueError, match=r"^oracle entry 0 names an unknown smell id: 'nope'$"
    ):
        load_oracle(
            json.dumps([{"smell_id": "nope", "item_name": "x", "line": 1}])
        )


_GOOD_ENTRY = {"smell_id": "actor-actor", "item_name": "Basic Flow", "line": 3}


@pytest.mark.parametrize(
    "field, value",
    [
        ("item_name", ["Basic Flow"]),
        ("item_name", None),
        ("item_name", 3),
        ("evidence_hint", 5),
        ("evidence_hint", ["actor"]),
        ("line", True),
        ("line", False),
        ("line", 3.0),
        ("line", "3"),
        ("smell_id", 1),
    ],
)
def test_load_oracle_rejects_wrong_field_types(field, value):
    with pytest.raises(ValueError, match="oracle entry 1 has wrong field types"):
        load_oracle(json.dumps([_GOOD_ENTRY, {**_GOOD_ENTRY, field: value}]))


def test_load_oracle_accepts_a_string_hint_or_none():
    entries = load_oracle(
        json.dumps([
            {**_GOOD_ENTRY, "evidence_hint": "actor"},
            {**_GOOD_ENTRY, "evidence_hint": None},
            _GOOD_ENTRY,
        ])
    )
    # An explicit null hint is the hint left out, so the two collapse.
    assert entries == [
        OracleEntry("actor-actor", "Basic Flow", 3, "actor"),
        OracleEntry("actor-actor", "Basic Flow", 3),
    ]


def test_exact_match():
    rep = match([finding(line=4)], [entry(line=4)])
    assert rep.totals.tp == 1
    assert rep.totals.fp == 0
    assert rep.totals.fn == 0


def test_line_tolerance_one():
    assert match([finding(line=4)], [entry(line=5)]).totals.tp == 1
    assert match([finding(line=4)], [entry(line=3)]).totals.tp == 1
    rep = match([finding(line=4)], [entry(line=6)])
    assert rep.totals.tp == 0 and rep.totals.fp == 1 and rep.totals.fn == 1


def test_smell_and_section_must_match():
    assert match([finding()], [entry(smell_id="actor-actor")]).totals.tp == 0
    assert match([finding()], [entry(item="Preconditions")]).totals.tp == 0


def test_evidence_hint_filters():
    assert match([finding(word="it")], [entry(hint="it")]).totals.tp == 1
    assert match([finding(word="it")], [entry(hint="them")]).totals.tp == 0


def test_matching_is_one_to_one():
    rep = match([finding(line=1), finding(line=1)], [entry(line=1)])
    assert rep.totals.tp == 1 and rep.totals.fp == 1
    rep = match([finding(line=1)], [entry(line=1), entry(line=2)])
    assert rep.totals.tp == 1 and rep.totals.fn == 1


def test_greedy_matching_is_maximal_for_intervals():
    # Two entries at lines 2 and 3; findings at 1 and 3. Pairing 1<->2 and
    # 3<->3 matches both; a careless assignment (3<->2) would lose one.
    findings = [finding(line=1), finding(line=3)]
    oracle = [entry(line=2), entry(line=3)]
    assert match(findings, oracle).totals.tp == 2


@pytest.mark.parametrize("reverse", [False, True], ids=["hint-last", "hint-first"])
def test_a_hinted_entry_does_not_lose_its_finding_to_an_unhinted_one(reverse):
    # Two pronouns on line 3. Greedy pairing gave the unhinted entry "it"
    # when it came first, so the entry hinted "it" found nothing and the
    # tally was 1/1/1 in one order and 2/0/0 in the other.
    findings = [finding(line=3, word="it"), finding(line=3, word="they")]
    oracle = [entry(line=3), entry(line=3, hint="it")]
    if reverse:
        oracle.reverse()
    rep = match(findings, oracle)
    assert (rep.totals.tp, rep.totals.fp, rep.totals.fn) == (2, 0, 0)
    assert {(f.evidence.text, e.evidence_hint) for f, e in rep.matched_pairs} == {
        ("it", "it"),
        ("they", None),
    }


def test_per_category_split():
    findings = [finding(), finding(smell_id="actor-actor", word="Actor")]
    oracle = [entry()]
    rep = match(findings, oracle)
    cats = {k: (t.tp, t.fp, t.fn) for k, t in rep.per_category.items()}
    assert len(cats) == 1  # pronoun and actor-actor share Ambiguity/Word
    assert rep.totals.tp == 1 and rep.totals.fp == 1


def test_tallies_against_a_hand_computed_report(monkeypatch):
    import ucsmell.evaluation as evaluation
    from ucsmell.model import Characteristic as C, Scope as S

    made = []

    class CountedTally(Tally):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(evaluation, "Tally", CountedTally)
    findings = [
        finding("long-sentence", line=5, word="a long one"),  # no hint: tp
        finding("pronoun", line=2, word="it"),  # hint "it" holds: tp
        finding("actor-actor", line=3, word="Actor"),  # hint "them" fails: fp
        finding("short-sentence", line=9, word="Ok"),  # no entry: fp
        finding("unordered-flow", line=1, word="1"),  # entry a line off: tp
        finding("pronoun", line=7, word="it"),  # no entry: fp
    ]
    oracle = [
        entry("pronoun", line=2, hint="it"),
        entry("actor-actor", line=3, hint="them"),  # fn
        entry("long-sentence", line=5),
        entry("unordered-flow", line=2),
        entry("missing-name-section", item="Name", line=1),  # fn, own category
    ]
    rep = match(findings, oracle)
    assert [(f.smell_id, e.smell_id) for f, e in rep.matched_pairs] == [
        ("pronoun", "pronoun"),
        ("long-sentence", "long-sentence"),
        ("unordered-flow", "unordered-flow"),
    ]
    # Categories in the order first seen: findings first, then unmatched entries.
    assert [(k, (t.tp, t.fp, t.fn)) for k, t in rep.per_category.items()] == [
        ((C.GRANULARITY, S.SENTENCE), (1, 1, 0)),
        ((C.AMBIGUITY, S.WORD), (1, 2, 1)),
        ((C.AMBIGUITY, S.SECTION), (1, 0, 0)),
        ((C.LACK, S.SECTION), (0, 0, 1)),
    ]
    assert (rep.totals.tp, rep.totals.fp, rep.totals.fn) == (3, 3, 2)
    # One tally for the totals and one per category, none per finding.
    assert len(made) == 1 + len(rep.per_category)


def test_render_table_shape():
    rep = match([finding()], [entry()])
    table = render_table(rep)
    lines = table.splitlines()
    assert lines[0].split() == [
        "Category", "Precision", "Recall", "#indicated", "#correct",
    ]
    assert lines[1].startswith("---")
    assert any(ln.startswith("Ambiguity/Word") for ln in lines)
    assert lines[-1].startswith("Total")


def test_render_table_na_for_empty_denominator():
    rep = match([], [entry()])
    assert "N/A" in render_table(rep)


# --- windowed matching equals the plain greedy scan ------------------------
# Without hints, greedy matching is already maximum, so match must give the
# greedy scan's pairs, pair for pair.


def greedy_match_reference(findings, oracle):
    """The greedy loop that scans every candidate of a group for each entry
    (of an oracle without hints).

    Returns the matched (finding, entry) pairs and the tallies as tuples.
    """
    findings_by_key = {}
    for f in findings:
        findings_by_key.setdefault((f.smell_id, f.item_name), []).append(f)
    oracle_by_key = {}
    for e in oracle:
        oracle_by_key.setdefault((e.smell_id, e.item_name), []).append(e)
    matched, pairs = set(), []
    for key, entries in oracle_by_key.items():
        candidates = sorted(
            findings_by_key.get(key, []), key=lambda f: (f.line, f.span.start)
        )
        for e in sorted(entries, key=lambda e: e.line):
            for f in candidates:
                if id(f) in matched or abs(f.line - e.line) > LINE_TOLERANCE:
                    continue
                matched.add(id(f))
                pairs.append((f, e))
                break
    matched_entries = {id(e) for _, e in pairs}
    per_category, totals = {}, [0, 0, 0]
    for f in findings:
        slot = 0 if id(f) in matched else 1
        per_category.setdefault(_category(f.smell_id), [0, 0, 0])[slot] += 1
        totals[slot] += 1
    for e in oracle:
        if id(e) not in matched_entries:
            per_category.setdefault(_category(e.smell_id), [0, 0, 0])[2] += 1
            totals[2] += 1
    return pairs, {k: tuple(v) for k, v in per_category.items()}, tuple(totals)


_SMELLS = ["pronoun", "actor-actor", "long-sentence"]
_ITEMS = ["Basic Flow", "Alternate Flows"]
_WORDS = ["it", "them", "Actor", "its"]


def finding_st(smells=_SMELLS, items=_ITEMS, max_line=6):
    return st.builds(
        lambda smell, item, line, word, start: Finding(
            smell_id=smell,
            item_name=item,
            metric="M",
            line=line,
            evidence=Evidence(word),
            span=SourceSpan(start, start + len(word), line),
        ),
        st.sampled_from(smells),
        st.sampled_from(items),
        st.integers(min_value=0, max_value=max_line),
        st.sampled_from(_WORDS),
        st.integers(min_value=0, max_value=3),
    )


def entry_st(hints, smells=_SMELLS, items=_ITEMS, max_line=6):
    return st.builds(
        OracleEntry,
        smell_id=st.sampled_from(smells),
        item_name=st.sampled_from(items),
        line=st.integers(min_value=-1, max_value=max_line + 1),
        evidence_hint=hints,
    )


@settings(max_examples=300, deadline=None)
@given(
    findings=st.lists(finding_st(), max_size=25),
    oracle=st.lists(entry_st(st.none()), max_size=25),
)
def test_windowed_match_equals_greedy_scan(findings, oracle):
    pairs, per_category, totals = greedy_match_reference(findings, oracle)
    rep = match(findings, oracle)
    assert [(id(f), id(e)) for f, e in rep.matched_pairs] == [
        (id(f), id(e)) for f, e in pairs
    ]
    assert {k: (t.tp, t.fp, t.fn) for k, t in rep.per_category.items()} == (
        per_category
    )
    assert (rep.totals.tp, rep.totals.fp, rep.totals.fn) == totals


# --- with hints: a maximum matching, whatever the oracle's order ----------


def maximum_matching_tallies(findings, oracle):
    """Per-category and total (tp, fp, fn) tallies of a maximum matching,
    found group by group by trying every assignment of entries."""
    groups = {}
    for f in findings:
        groups.setdefault((f.smell_id, f.item_name), ([], []))[0].append(f)
    for e in oracle:
        groups.setdefault((e.smell_id, e.item_name), ([], []))[1].append(e)
    per_category, totals = {}, [0, 0, 0]
    for (smell_id, _), (fs, es) in groups.items():

        @functools.cache
        def most(i, used):
            """The most of entries i.. that can match findings not in used."""
            if i == len(es):
                return 0
            e, best = es[i], most(i + 1, used)  # entry i left unmatched
            for k, f in enumerate(fs):
                if k in used or abs(f.line - e.line) > LINE_TOLERANCE:
                    continue
                if e.evidence_hint is None or e.evidence_hint in _evidence_text(f):
                    best = max(best, 1 + most(i + 1, used | {k}))
            return best

        m = most(0, frozenset())
        tally = per_category.setdefault(_category(smell_id), [0, 0, 0])
        for slot, n in enumerate((m, len(fs) - m, len(es) - m)):
            tally[slot] += n
            totals[slot] += n
    return {k: tuple(v) for k, v in per_category.items()}, tuple(totals)


# One smell in one section, on few lines, so that entries often compete for
# the same findings.
_FEW = {"smells": _SMELLS[:1], "items": _ITEMS[:1], "max_line": 2}


@settings(max_examples=300, deadline=None)
@given(
    findings=st.lists(finding_st(**_FEW), max_size=8),
    oracle=st.lists(
        entry_st(st.one_of(st.none(), st.sampled_from(_WORDS + ["t", "x"])), **_FEW),
        max_size=8,
    ),
    data=st.data(),
)
def test_match_with_hints_is_maximum_in_any_oracle_order(findings, oracle, data):
    per_category, totals = maximum_matching_tallies(findings, oracle)
    for entries in (oracle, data.draw(st.permutations(oracle))):
        rep = match(findings, entries)
        assert {k: (t.tp, t.fp, t.fn) for k, t in rep.per_category.items()} == (
            per_category
        )
        assert (rep.totals.tp, rep.totals.fp, rep.totals.fn) == totals
        # The pairs are one-to-one, and each pair is compatible.
        assert len({id(f) for f, _ in rep.matched_pairs}) == totals[0]
        assert len({id(e) for _, e in rep.matched_pairs}) == totals[0]
        for f, e in rep.matched_pairs:
            assert (f.smell_id, f.item_name) == (e.smell_id, e.item_name)
            assert abs(f.line - e.line) <= LINE_TOLERANCE
            assert e.evidence_hint is None or e.evidence_hint in _evidence_text(f)


# --- the tallies count every finding and every entry once -----------------


def with_repeats(items, max_size=8):
    """Lists of items, some of them listed a second time: one object may
    appear twice in the findings or in the oracle."""
    return st.lists(items, max_size=max_size).flatmap(
        lambda xs: st.lists(st.sampled_from(xs), max_size=3).map(lambda ys: xs + ys)
        if xs
        else st.just(xs)
    )


_F, _E = finding(line=3), entry(line=3)


@settings(max_examples=300, deadline=None)
@given(
    findings=with_repeats(finding_st(max_line=2)),
    oracle=with_repeats(
        entry_st(st.one_of(st.none(), st.sampled_from(_WORDS)), max_line=2)
    ),
)
@example(findings=[_F], oracle=[_E, _E])
@example(findings=[_F, _F], oracle=[_E])
def test_tallies_count_every_finding_and_entry_once(findings, oracle):
    rep = match(findings, oracle)
    totals = rep.totals
    assert totals.tp == len(rep.matched_pairs)
    assert totals.tp + totals.fp == len(findings)
    assert totals.tp + totals.fn == len(oracle)
    for field in Tally._fields:
        in_categories = sum(getattr(t, field) for t in rep.per_category.values())
        assert in_categories == getattr(totals, field)


def test_match_rejects_an_unknown_smell_id_in_the_oracle():
    with pytest.raises(KeyError, match=r"unknown smell id: 'nope'"):
        match([finding()], [entry(), entry(smell_id="nope")])
