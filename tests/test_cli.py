import argparse
import json
import os
import re
import subprocess
import sys
import tokenize
import unicodedata
from collections import Counter
from pathlib import Path

import pytest

import largedoc
import ucsmell
from ucsmell import cli, textanalysis
from ucsmell.cli import run
from ucsmell.parser import parse_text, serialize

# Each fixture and the exit code a lint of it gives.
FIXTURE_CODES = {"atm": 1, "clean": 0, "nonascii": 1, "search": 1}
FOUR_FIXTURES = [f"fixtures/{name}.ucd" for name in FIXTURE_CODES]


def test_lint_clean_exit_zero(capsys, fixtures_dir):
    code = run(["lint", str(fixtures_dir / "clean.ucd")])
    out = capsys.readouterr().out
    assert code == 0
    assert "no smells detected" in out


def test_lint_atm_exit_one(capsys, fixtures_dir):
    code = run(["lint", str(fixtures_dir / "atm.ucd")])
    out = capsys.readouterr().out
    assert code == 1
    assert "[actor-actor]" in out
    assert "[pronoun]" in out


def _indented_crlf(text: str) -> str:
    """Every non-blank line indented by a tab and two spaces, every line
    ended by CRLF. lint reads files in text mode, so the CRLF reaches the
    parser as LF; the indent reaches it as written."""
    return "".join(("\t  " + line if line.strip() else line) + "\r\n"
                   for line in text.splitlines())


# How a variant rewrites the fixture's text, and the options it adds.
_VARIANTS = {
    "as-written": (None, []),
    # Accents spelled as combining marks give the same findings, quoted as
    # written: in composed form (NFC) they are the golden.
    "nfd": (lambda text: unicodedata.normalize("NFD", text), []),
    # Findings name section-relative lines and quote text without its indent.
    "indented-crlf": (_indented_crlf, []),
    # --lexicon reads the bundled lexicon through load_lexicon(path).
    "lexicon": (None, ["--lexicon",
                       str(Path(ucsmell.__file__).parent / "data" / "lexicon.txt")]),
}


@pytest.mark.parametrize("variant", _VARIANTS)
@pytest.mark.parametrize("name", FIXTURE_CODES)
def test_lint_json_matches_golden(capsys, fixtures_dir, tmp_path, name, variant):
    rewrite, options = _VARIANTS[variant]
    path = fixtures_dir / f"{name}.ucd"
    if rewrite:
        text = rewrite(path.read_text("utf-8"))
        path = tmp_path / path.name
        path.write_bytes(text.encode("utf-8"))
    code = run(["lint", "--format", "json", *options, str(path)])
    out = capsys.readouterr().out
    if variant == "nfd":
        out = unicodedata.normalize("NFC", out)
    assert code == FIXTURE_CODES[name]
    golden = (fixtures_dir / f"{name}_findings.golden.json").read_bytes()
    assert out.encode("utf-8") == golden


@pytest.mark.parametrize("name", FIXTURE_CODES)
def test_first_version_config_gives_the_goldens_less_noafr_and_noefr(
    capsys, fixtures_dir, name
):
    # fixtures/first_version.cfg enables the 22 smells of the tool's first
    # version: every golden record but the NOAFR and NOEFR ones.
    golden = json.loads((fixtures_dir / f"{name}_findings.golden.json").read_bytes())
    want = [r for r in golden if r["metric"] not in ("NOAFR", "NOEFR")]
    code = run(["lint", "--format", "json", "--config",
                str(fixtures_dir / "first_version.cfg"), str(fixtures_dir / f"{name}.ucd")])
    out = capsys.readouterr().out
    assert code == (1 if want else 0)
    assert out == json.dumps(want, indent=2, ensure_ascii=False) + "\n"


def _lint_records(argv: list[str], capsys) -> tuple[int, Counter]:
    """A JSON lint's exit code and its records less their lines, as a multiset."""
    code = run(["lint", "--format", "json", *argv])
    records = json.loads(capsys.readouterr().out)
    return code, Counter(
        json.dumps({k: v for k, v in r.items() if k != "line"}, sort_keys=True)
        for r in records
    )


# Steps of several sentences, which neither the fixtures nor a generated
# document have, in the basic flow and in a branch flow.
_MULTI_SENTENCE = (
    "Name: File\nBasic Flow:\n"
    "1. The clerk opens the form. Then it stores it! Done?\n"
    "2. The clerk checks the form. The system stores it.\n"
    "Alternate Flows:\n"
    "A1 If the form is invalid at step 2\n"
    "A1.1 The system shows it. The clerk fixes it.\n"
    "A1.2 The use case returns to step 2.\n"
)
# Abbreviations and dotted words, which end no sentence, in steps, a
# condition and a precondition, and an "etc." before a capital, which does.
_ABBREVIATED = (
    "Name: Export\nPreconditions:\nThe clerk is logged in, i.e. the session is open.\n"
    "Basic Flow:\n"
    "1. The clerk enters the amount, e.g. 20 dollars, and confirms.\n"
    "2. The system writes audit.txt for Mr. Smith, etc. The clerk waits.\n"
    "3. Dr. Lee checks the export vs. the archive of approx. 20 files.\n"
    "Alternate Flows:\n"
    "A1 If the file is locked, e.g. by the archive, at step 2\n"
    "A1.1 The system retries, i.e. it waits.\n"
    "A1.2 The use case returns to step 2.\n"
)
_TEXTS = {"multi-sentence": _MULTI_SENTENCE, "abbreviations": _ABBREVIATED}
# The abbreviations document in capitals, and with "e.g." twice in a step.
_DOTTED = {
    "abbreviations": _ABBREVIATED,
    "upper-case": _ABBREVIATED.replace("i.e.", "I.E.").replace("e.g.", "E.G."),
    "repeated": _ABBREVIATED.replace("e.g. 20 dollars,", "e.g. 20, e.g. 30,"),
}


@pytest.mark.parametrize("front_end", ["text", "json"])
@pytest.mark.parametrize("name", _DOTTED)
def test_dotted_abbreviations_give_no_pronoun_or_noun(capsys, tmp_path, name, front_end):
    # "i.e." and "e.g." are one word each, tagged other: "i.e." once gave a
    # pronoun record quoting "i" (or "I"), and "e.g." twice in a sentence
    # the repeated nouns "e" and "g".
    text = _DOTTED[name]
    path = tmp_path / ("doc.ucd" if front_end == "text" else "doc.json")
    path.write_text(text if front_end == "text" else serialize(parse_text(text)[0]), "utf-8")
    assert run(["lint", "--format", "json", str(path)]) == 1
    records = json.loads(capsys.readouterr().out)
    assert [(r["item_name"], r["word"]) for r in records if r["metric"] == "NOP"] == [
        ("Alternate Flows", "it")
    ]
    assert [r["metric"] for r in records if r["metric"].startswith("NON(")] == []


@pytest.mark.parametrize("config", [None, "thresholds.cfg"], ids=["default", "thresholds"])
@pytest.mark.parametrize("name", [*FIXTURE_CODES, "large-1000-s1", *_TEXTS])
def test_json_front_end_gives_the_text_records(capsys, fixtures_dir, tmp_path,
                                               name, config):
    # A document written as canonical JSON gives the text front-end's
    # records and exit code. JSON carries no positions, so lines are left
    # out. The fixtures have few branch steps; a generated document has
    # hundreds, and thousands of one-sentence steps.
    if name in FIXTURE_CODES:
        text = (fixtures_dir / f"{name}.ucd").read_text("utf-8")
    elif name in _TEXTS:
        text = _TEXTS[name]
    else:
        text = largedoc.generate(1, 1000).text
    ucd, doc = tmp_path / "doc.ucd", tmp_path / "doc.json"
    ucd.write_text(text, "utf-8")
    doc.write_text(serialize(parse_text(text)[0]), "utf-8")
    options = ["--config", str(fixtures_dir / config)] if config else []
    want = _lint_records([*options, str(ucd)], capsys)
    assert _lint_records([*options, str(doc)], capsys) == want


def test_lint_under_every_threshold_matches_golden(capsys, fixtures_dir, monkeypatch):
    # fixtures/thresholds.cfg moves every threshold and flag off its
    # default, so a rule that reads one from the wrong place, or ignores
    # it, changes these records.
    monkeypatch.chdir(fixtures_dir.parent)
    code = run(["lint", "--format", "json", "--config", "fixtures/thresholds.cfg", *FOUR_FIXTURES])
    out = capsys.readouterr().out
    assert code == 1
    golden = (fixtures_dir / "thresholds_findings.golden.json").read_bytes()
    assert out.encode("utf-8") == golden


def test_lint_pretty_matches_golden(capsys, fixtures_dir, monkeypatch):
    # pretty is the default format: each finding's line, smell and
    # excerpt of its evidence, then the grid of counts, file by file.
    monkeypatch.chdir(fixtures_dir.parent)
    code = run(["lint", *FOUR_FIXTURES])
    out = capsys.readouterr().out
    assert code == 1
    assert out.encode("utf-8") == (fixtures_dir / "pretty.golden.txt").read_bytes()


def test_default_lint_builds_no_tokens(capsys, fixtures_dir, monkeypatch):
    def no_tokens(*args):
        raise AssertionError("lint built tokens")

    monkeypatch.setattr(textanalysis, "tagged_tokens", no_tokens)
    code = run(["lint", str(fixtures_dir / "atm.ucd"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (fixtures_dir / "atm_findings.golden.json").read_text("utf-8")


def test_lint_output_is_stable(capsys, fixtures_dir):
    run(["lint", str(fixtures_dir / "atm.ucd"), "--format", "json"])
    first = capsys.readouterr().out
    run(["lint", str(fixtures_dir / "atm.ucd"), "--format", "json"])
    assert capsys.readouterr().out == first


def test_lint_multiple_files_json_keyed_by_path(capsys, fixtures_dir, monkeypatch):
    # One object maps each path, as given, to its golden records, byte for
    # byte: order, whitespace and string escaping included.
    monkeypatch.chdir(fixtures_dir.parent)
    names = ("atm", "clean", "search")
    code = run(["lint", "--format", "json", *(f"fixtures/{n}.ucd" for n in names)])
    want = {
        f"fixtures/{n}.ucd": json.loads((fixtures_dir / f"{n}_findings.golden.json").read_bytes())
        for n in names
    }
    assert code == 1
    assert capsys.readouterr().out == json.dumps(want, indent=2, ensure_ascii=False) + "\n"


def test_lint_json_file_input(tmp_path, capsys, fixtures_dir):
    doc, _ = parse_text((fixtures_dir / "atm.ucd").read_text("utf-8"))
    p = tmp_path / "atm.json"
    p.write_text(serialize(doc))
    code = run(["lint", str(p), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    records = json.loads(out)
    # JSON input has no line positions, but the same smells are found.
    assert len(records) == 12


BOM = "\ufeff"  # a byte order mark, as some editors write at the start of a file


def test_lint_reads_a_ucd_file_with_a_byte_order_mark(tmp_path, capsys, fixtures_dir):
    p = tmp_path / "atm.ucd"
    p.write_text(BOM + (fixtures_dir / "atm.ucd").read_text("utf-8"), "utf-8")
    code = run(["lint", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    assert out == (fixtures_dir / "atm_findings.golden.json").read_text("utf-8")


def test_lint_reads_a_json_file_with_a_byte_order_mark(tmp_path, capsys, fixtures_dir):
    doc, _ = parse_text((fixtures_dir / "atm.ucd").read_text("utf-8"))
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(serialize(doc), "utf-8")
    marked.write_text(BOM + serialize(doc), "utf-8")
    assert run(["lint", str(plain), "--format", "json"]) == 1
    want = capsys.readouterr().out
    code = run(["lint", str(marked), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err, out) == (1, "", want)


def test_config_lexicon_and_oracle_files_may_carry_a_byte_order_mark(
    tmp_path, capsys, fixtures_dir
):
    atm = str(fixtures_dir / "atm.ucd")
    cfg, lex, oracle = (tmp_path / n for n in ("c.cfg", "lex.txt", "oracle.json"))
    cfg.write_text(BOM + "enabled_smells = pronoun\n", "utf-8")
    lex.write_text(BOM + "it\tpronoun\n", "utf-8")
    oracle.write_text(
        BOM + '[{"smell_id": "pronoun", "item_name": "Basic Flow", "line": 9}]',
        "utf-8",
    )
    code = run(["lint", atm, "--config", str(cfg), "--lexicon", str(lex),
                "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [(r["metric"], r.get("word")) for r in records] == [("NOP", "it")]
    code = run(["eval", atm, "--oracle", str(oracle), "--config", str(cfg)])
    assert code == 0
    assert "Total" in capsys.readouterr().out


def test_lint_fail_threshold(capsys, fixtures_dir):
    assert run(["lint", str(fixtures_dir / "atm.ucd"), "--fail-threshold", "99"]) == 0
    capsys.readouterr()


def test_lint_disable_rule(capsys, fixtures_dir):
    run(["lint", str(fixtures_dir / "atm.ucd"), "--disable", "actor-actor",
         "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 4  # the 8 actor-actor findings are gone
    assert not any(r.get("word") == "Actor" for r in records)


def test_lint_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ucd"
    bad.write_text("no structure at all\n")
    assert run(["lint", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"basic_flow": [{"text": "   "}]}', "step 'text' must not be blank"),
        ('{"basic_flow": [{"label": 3, "text": "A does B."}]}',
         "step 'label' must be a string"),
        ('["Basic Flow"]', "top level must be an object"),
    ],
    ids=["blank-text", "label-type", "top-level"],
)
def test_lint_malformed_json_exit_two(tmp_path, capsys, document, message):
    # Each document breaks the JSON schema in one field: no findings, and
    # one error line that names the field.
    p = tmp_path / "doc.json"
    p.write_text(document + "\n")
    assert run(["lint", "--format", "json", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert f": error: {message}" in err


@pytest.mark.parametrize("steps", [1000, 3000])
def test_lint_and_eval_on_generated_large_documents(tmp_path, capsys, steps):
    # eval recalls every outcome the generator planted. lint reports every
    # pronoun it planted, and no other, with its section, section-relative
    # line and word.
    ucd = largedoc.write(largedoc.generate(1, steps), tmp_path)
    assert run(["eval", str(ucd), "--oracle", str(ucd.with_suffix(".oracle.json"))]) == 0
    table = capsys.readouterr().out
    assert any(re.match(r"Total +[^ ]+ +1\.000 ", line) for line in table.splitlines()), table
    assert run(["lint", "--format", "json", str(ucd)]) == 1
    got = Counter((r["item_name"], r["line"], r["word"])
                  for r in json.loads(capsys.readouterr().out) if r["metric"] == "NOP")
    planted = json.loads(ucd.with_suffix(".expected.json").read_bytes())["pronouns"]
    assert got == Counter(tuple(p) for p in planted)


def test_lint_missing_file_exit_two(capsys):
    assert run(["lint", "/does/not/exist.ucd"]) == 2
    capsys.readouterr()


def test_lint_batch_reports_every_parsable_file(tmp_path, capsys, fixtures_dir):
    atm = str(fixtures_dir / "atm.ucd")
    clean = str(fixtures_dir / "clean.ucd")
    bad = tmp_path / "bad.ucd"
    bad.write_text("no structure at all\n")
    code = run(["lint", atm, str(bad), clean, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    obj = json.loads(captured.out)
    assert list(obj) == [atm, clean]
    assert len(obj[atm]) == 12
    assert obj[clean] == []
    assert f"{bad}:" in captured.err


def test_lint_batch_pretty_keeps_findings_of_parsed_files(tmp_path, capsys,
                                                          fixtures_dir):
    atm = str(fixtures_dir / "atm.ucd")
    missing = str(tmp_path / "missing.ucd")
    code = run(["lint", missing, atm])
    captured = capsys.readouterr()
    assert code == 2
    assert "[pronoun]" in captured.out
    assert missing in captured.err


def test_config_file_flag(tmp_path, capsys, fixtures_dir):
    cfg = tmp_path / "ucsmell.cfg"
    cfg.write_text("enabled_smells = pronoun\n")
    run(["lint", str(fixtures_dir / "atm.ucd"), "--config", str(cfg),
         "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert [r["metric"] for r in records] == ["NOP"]


def test_config_env_var(tmp_path, capsys, monkeypatch, fixtures_dir):
    cfg = tmp_path / "ucsmell.cfg"
    cfg.write_text("enabled_smells = missing-actor-section\n")
    monkeypatch.setenv("UCSMELL_CONFIG", str(cfg))
    run(["lint", str(fixtures_dir / "atm.ucd"), "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1
    assert records[0]["metric"] == "ActorSectionExist?"


def test_catalogue_cell(capsys):
    assert run(["catalogue", "--cell", "C_5_2"]) == 0
    out = capsys.readouterr().out
    assert out.count("Name: ") == 7
    assert "Missing Actor Section" in out


def test_catalogue_cell_braced_form(capsys):
    run(["catalogue", "--cell", "C_{5,2}"])
    assert capsys.readouterr().out.count("Name: ") == 7


def test_catalogue_bad_cell(capsys):
    assert run(["catalogue", "--cell", "C_9_9"]) == 2
    assert run(["catalogue", "--cell", "bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cell", ["C_{5,2", "C5,2}"])
def test_catalogue_cell_with_one_brace_is_unrecognized(capsys, cell):
    assert run(["catalogue", "--cell", cell]) == 2
    assert capsys.readouterr() == ("", f"unrecognized cell: {cell}\n")


def test_catalogue_full_listing(capsys):
    run(["catalogue"])
    assert capsys.readouterr().out.count("Name: ") == 60


def test_catalogue_detectable_only(capsys):
    run(["catalogue", "--detectable"])
    assert capsys.readouterr().out.count("Name: ") == 24


def test_eval_subcommand(tmp_path, capsys, fixtures_dir):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(
        json.dumps(
            [
                {"smell_id": "pronoun", "item_name": "Basic Flow", "line": 9},
                {"smell_id": "missing-actor-section", "item_name": "Actors",
                 "line": 0},
            ]
        )
    )
    code = run(["eval", str(fixtures_dir / "atm.ucd"), "--oracle", str(oracle)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Total" in out
    assert "Precision" in out


def test_eval_matches_golden(capsys, fixtures_dir, monkeypatch):
    # The oracle holds hinted entries, an entry matched one line off, an
    # entry in a category with no finding and leaves most findings
    # unmatched, so every column of the table is exercised.
    monkeypatch.chdir(fixtures_dir.parent)
    code = run(["eval", "fixtures/atm.ucd", "--oracle", "fixtures/atm_oracle.json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    golden = (fixtures_dir / "atm_eval.golden.txt").read_bytes()
    assert captured.out.encode("utf-8") == golden


def test_eval_bad_oracle(tmp_path, capsys, fixtures_dir):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("{broken")
    code = run(["eval", str(fixtures_dir / "atm.ucd"), "--oracle", str(oracle)])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "entry",
    [
        {"smell_id": "pronoun", "item_name": ["Basic Flow"], "line": 9},
        {"smell_id": "actor-actor", "item_name": "Basic Flow", "line": 3,
         "evidence_hint": 5},
        {"smell_id": "pronoun", "item_name": "Basic Flow", "line": True},
    ],
)
def test_eval_oracle_with_wrong_field_types_exits_two(
    tmp_path, capsys, fixtures_dir, entry
):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps([entry]))
    code = run(["eval", str(fixtures_dir / "atm.ucd"), "--oracle", str(oracle)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == f"{oracle}: oracle entry 0 has wrong field types"


def test_eval_oracle_with_an_unknown_smell_id_names_the_entry(
    tmp_path, capsys, fixtures_dir
):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps([{"smell_id": "nope", "item_name": "x", "line": 1}]))
    code = run(["eval", str(fixtures_dir / "atm.ucd"), "--oracle", str(oracle)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"{oracle}: oracle entry 0 names an unknown smell id: 'nope'\n"
    )


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["lint", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_custom_lexicon_flag(tmp_path, capsys, fixtures_dir):
    # A lexicon with no pronouns: the "it" finding disappears.
    lex = tmp_path / "lex.txt"
    lex.write_text("insert\tverb\nthe\tstopword\n")
    run(["lint", str(fixtures_dir / "atm.ucd"), "--lexicon", str(lex),
         "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert not any(r["metric"] == "NOP" for r in records)


def _eval_argv(tmp_path, fixtures_dir):
    oracle = tmp_path / "oracle.json"
    oracle.write_text("[]")
    return ["eval", str(fixtures_dir / "atm.ucd"), "--oracle", str(oracle)]


def _bad_options(tmp_path):
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("no_such_key = 1\n")
    unknown_smell = tmp_path / "unknown.cfg"
    unknown_smell.write_text("enabled_smells = pronon, long-sentence\n")
    negative = tmp_path / "negative.cfg"
    negative.write_text("min_sentences_for_distribution = -3\n")
    missing = str(tmp_path / "missing.txt")
    return {
        "disable-unknown-smell": ["--disable", "pronon"],
        "config-unknown-smell": ["--config", str(unknown_smell)],
        "stddev-k": ["--stddev-k", "0"],
        "stddev-k-nan": ["--stddev-k", "nan"],
        "stddev-k-inf": ["--stddev-k", "inf"],
        "min-sentences-negative": ["--min-sentences-for-distribution", "-3"],
        "config-min-sentences-negative": ["--config", str(negative)],
        "missing-config": ["--config", missing],
        "missing-lexicon": ["--lexicon", missing],
        "rejected-config": ["--config", str(bad_config)],
    }


@pytest.mark.parametrize("subcommand", ["lint", "eval"])
@pytest.mark.parametrize(
    "case",
    [
        "stddev-k",
        "stddev-k-nan",
        "stddev-k-inf",
        "min-sentences-negative",
        "config-min-sentences-negative",
        "missing-config",
        "missing-lexicon",
        "rejected-config",
        "disable-unknown-smell",
        "config-unknown-smell",
    ],
)
def test_bad_option_exits_two_with_a_message(tmp_path, capsys, fixtures_dir,
                                             subcommand, case):
    if subcommand == "lint":
        argv = ["lint", str(fixtures_dir / "atm.ucd")]
    else:
        argv = _eval_argv(tmp_path, fixtures_dir)
    assert run(argv + _bad_options(tmp_path)[case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ucsmell: ")
    assert len(captured.err.splitlines()) == 1


def test_unknown_smell_ids_exit_two_naming_them(tmp_path, capsys, fixtures_dir):
    atm = str(fixtures_dir / "atm.ucd")
    code = run(["lint", atm, "--disable", "pronon", "--disable", "actor-actor",
                "--disable", "no-such-smell"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "ucsmell: unknown smell id in --disable: 'no-such-smell', 'pronon'\n"
    )
    assert run(["lint", atm, "--disable", "no-such-smell"]) == 2
    assert capsys.readouterr() == (
        "", "ucsmell: unknown smell id in --disable: 'no-such-smell'\n"
    )
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text("enabled_smells = pronon, long-sentence\n")
    assert run(["lint", atm, "--config", str(cfg), "--format", "json"]) == 2
    assert capsys.readouterr() == (
        "", "ucsmell: unknown smell id in enabled_smells: 'pronon'\n"
    )


@pytest.mark.parametrize("threshold", ["-1", "0"])
def test_fail_threshold_below_one_exits_two_with_a_message(capsys, fixtures_dir,
                                                          threshold):
    # Exit 0 means no findings, so no threshold may fail a run without any.
    code = run(["lint", str(fixtures_dir / "clean.ucd"), "--fail-threshold", threshold])
    assert code == 2
    assert capsys.readouterr() == ("", "ucsmell: fail_threshold must be >= 1\n")


def test_eval_rejects_json_input(tmp_path, capsys, fixtures_dir):
    doc, _ = parse_text((fixtures_dir / "atm.ucd").read_text("utf-8"))
    p = tmp_path / "atm.json"
    p.write_text(serialize(doc))
    argv = _eval_argv(tmp_path, fixtures_dir)
    argv[1] = str(p)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line numbers" in captured.err


def test_eval_on_json_input_with_a_bad_option_reports_the_option(
    tmp_path, capsys, fixtures_dir
):
    # The options are checked before the input, for lint and eval alike.
    argv = _eval_argv(tmp_path, fixtures_dir)
    argv[1] = str(tmp_path / "atm.json")
    assert run(argv + ["--disable", "pronon"]) == 2
    assert capsys.readouterr() == (
        "", "ucsmell: unknown smell id in --disable: 'pronon'\n"
    )


def _fresh(*args: str, cwd=None, text=True, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with args, importing the ucsmell under test,
    with env added to this process's environment."""
    src = str(Path(ucsmell.__file__).parent.parent)
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**os.environ, **env, "PYTHONPATH": src},
                          capture_output=True, text=text,
                          encoding="utf-8" if text else None)


# What each run is compared with, and the exit code it gives.
_HASH_RUNS = {
    **{name: (["lint", "--format", "json", f"fixtures/{name}.ucd"],
              f"{name}_findings.golden.json", code)
       for name, code in FIXTURE_CODES.items()},
    "thresholds": (["lint", "--format", "json", "--config", "fixtures/thresholds.cfg",
                    *FOUR_FIXTURES], "thresholds_findings.golden.json", 1),
    "pretty": (["lint", *FOUR_FIXTURES], "pretty.golden.txt", 1),
    "eval": (["eval", "fixtures/atm.ucd", "--oracle", "fixtures/atm_oracle.json"],
             "atm_eval.golden.txt", 0),
}


@pytest.mark.parametrize("what", _HASH_RUNS)
@pytest.mark.parametrize("seed", ["0", "4242"])
def test_output_does_not_depend_on_hashing(fixtures_dir, seed, what):
    # A SectionKind hashes by its address and a str by the hash seed:
    # output that followed hash order would differ between these seeds.
    argv, golden, code = _HASH_RUNS[what]
    proc = _fresh("-m", "ucsmell.cli", *argv, cwd=fixtures_dir.parent, text=False,
                  PYTHONHASHSEED=seed)
    assert (proc.returncode, proc.stdout) == (code, (fixtures_dir / golden).read_bytes())


@pytest.mark.parametrize("path", sorted(Path(ucsmell.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_stays_below_the_parsers_token_array_step(path):
    # CPython's parser doubles its token array at 4 096 tokens, which adds
    # about 0.3 MB to compiling a module on a cold start. 4 094 is the
    # largest count measured below the step.
    assert _parser_tokens(path) <= 4094


def test_report_module_stays_below_the_1024_token_step():
    # The array also doubles at 1 024 tokens. Compiling report.py past that
    # step peaked at 0.534 MB instead of 0.406 MB, and set the peak of a
    # cold `lint --format json` process 1.2 % higher (5.730 -> 5.797 MB).
    assert _parser_tokens(Path(ucsmell.__file__).parent / "report.py") <= 1022


def _parser_tokens(path) -> int:
    """Tokens as tokenize gives them, less comments, NL and the encoding
    token: what the parser's token array holds."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as fh:
        return sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in skip)


def _modules_loaded_by(code: str) -> set[str]:
    proc = _fresh("-c", f"{code}\nimport sys\nprint(*sys.modules)")
    proc.check_returncode()
    return set(proc.stdout.split())


def test_import_cli_loads_no_costly_modules():
    costly = {"dataclasses", "inspect", "statistics", "fractions", "decimal",
              "ucsmell.evaluation"}
    loaded = _modules_loaded_by("import ucsmell.cli") - _modules_loaded_by("pass")
    assert "ucsmell.cli" in loaded
    assert not costly & loaded


def _lint_code(*argv: str) -> str:
    return (
        "import contextlib, io\n"
        "from ucsmell import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.run({list(argv)!r})"
    )


def test_lint_run_loads_no_shutil(fixtures_dir):
    # argparse's help formatter imports shutil to measure the terminal.
    lint = _lint_code("lint", str(fixtures_dir / "atm.ucd"))
    loaded = _modules_loaded_by(lint) - _modules_loaded_by("pass")
    assert "ucsmell.cli" in loaded
    assert "shutil" not in loaded


@pytest.mark.parametrize("code", ["import ucsmell", "import ucsmell.cli", "lint"])
def test_cold_start_loads_no_catalogue_and_no_json(code, fixtures_dir):
    # A lint of .ucd text reads neither the catalogue nor the JSON
    # front-end, and writes its JSON without the json package.
    if code == "lint":
        code = _lint_code("lint", "--format", "json", str(fixtures_dir / "atm.ucd"))
    loaded = _modules_loaded_by(code) - _modules_loaded_by("pass")
    assert "ucsmell" in loaded
    assert not {"ucsmell.catalogue", "ucsmell.jsonform", "json"} & loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["lint", "--format", "json", "atm.json"],
        ["lint", "fixtures/atm.ucd", "fixtures/nonascii.ucd"],
        ["catalogue", "--cell", "C_5_2"],
        ["eval", "fixtures/atm.ucd", "--oracle", "fixtures/atm_oracle.json"],
    ],
    ids=["json-input", "pretty", "catalogue", "eval"],
)
def test_lazily_loaded_paths_work_in_a_fresh_process(argv, tmp_path, capsys,
                                                     fixtures_dir, monkeypatch):
    # Each of these loads the catalogue or the JSON front-end on first
    # use; a fresh process must give what this one, with both loaded, does.
    doc, _ = parse_text((fixtures_dir / "atm.ucd").read_text("utf-8"))
    argv = [str(tmp_path / a) if a == "atm.json" else a for a in argv]
    (tmp_path / "atm.json").write_text(serialize(doc), encoding="utf-8")
    monkeypatch.chdir(fixtures_dir.parent)
    code = run(argv)
    want = (code, capsys.readouterr().out)
    assert want[1]
    proc = _fresh("-m", "ucsmell.cli", *argv, cwd=fixtures_dir.parent)
    assert (proc.returncode, proc.stdout) == want


def test_smell_space_cell_loads_the_catalogue_on_first_use():
    code = (
        "import ucsmell\n"
        "from ucsmell.model import Characteristic, Scope\n"
        "print(len(ucsmell.smell_space_cell(Characteristic(5), Scope(2))))\n"
        "from ucsmell import catalogue\n"
        "print(catalogue.__name__, hasattr(ucsmell, 'no_such_name'))"
    )
    assert _fresh("-c", code).stdout == "7\nucsmell.catalogue False\n"


def _help_texts(capsys) -> list[str]:
    texts = []
    for argv in ([], ["lint"], ["catalogue"], ["eval"]):
        with pytest.raises(SystemExit):
            run([*argv, "--help"])
        texts.append(capsys.readouterr().out)
    return texts


@pytest.mark.parametrize("columns", ["40", "80", "132"])
def test_help_is_argparse_help(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    ours = _help_texts(capsys)
    assert ours[1].startswith("usage: ucsmell lint [-h]")
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    assert ours == _help_texts(capsys)


@pytest.mark.parametrize(
    "step",
    [
        "The clerk files the résumé and the réservation.",
        "The customer’s card goes to the clerk’s desk.",
    ],
)
def test_lint_reports_no_noun_fragments_of_non_ascii_words(tmp_path, capsys, step):
    """Before words matched non-ASCII letters and U+2019, these steps gave
    repeating-the-same-noun with NON("r") and NON("s")."""
    p = tmp_path / "doc.ucd"
    p.write_text(f"Name: File\nBasic Flow:\n1. {step}\n", encoding="utf-8")
    run(["lint", str(p), "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert [r for r in records if r["metric"].startswith("NON")] == []
