import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ucsmell
from ucsmell import cli, textanalysis
from ucsmell.cli import run


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


def test_lint_json_matches_golden(capsys, fixtures_dir):
    code = run(["lint", str(fixtures_dir / "atm.ucd"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    golden = (fixtures_dir / "atm_findings.golden.json").read_text("utf-8")
    assert out == golden


def test_lint_under_every_threshold_matches_golden(capsys, fixtures_dir, monkeypatch):
    # fixtures/thresholds.cfg moves every threshold and flag off its
    # default, so a rule that reads one from the wrong place, or ignores
    # it, changes these records.
    monkeypatch.chdir(fixtures_dir.parent)
    paths = [f"fixtures/{name}.ucd" for name in ("atm", "clean", "nonascii", "search")]
    code = run(["lint", "--format", "json", "--config", "fixtures/thresholds.cfg", *paths])
    out = capsys.readouterr().out
    assert code == 1
    golden = (fixtures_dir / "thresholds_findings.golden.json").read_bytes()
    assert out.encode("utf-8") == golden


def test_lint_pretty_matches_golden(capsys, fixtures_dir, monkeypatch):
    # pretty is the default format: each finding's line, smell and
    # excerpt of its evidence, then the grid of counts, file by file.
    monkeypatch.chdir(fixtures_dir.parent)
    paths = [f"fixtures/{name}.ucd" for name in ("atm", "clean", "nonascii", "search")]
    code = run(["lint", *paths])
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


def test_lint_multiple_files_json_keyed_by_path(capsys, fixtures_dir):
    atm = str(fixtures_dir / "atm.ucd")
    clean = str(fixtures_dir / "clean.ucd")
    run(["lint", atm, clean, "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == [atm, clean]
    assert obj[clean] == []
    assert len(obj[atm]) == 12


def test_lint_json_file_input(tmp_path, capsys, fixtures_dir):
    from ucsmell.parser import parse_text, serialize

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
    from ucsmell.parser import parse_text, serialize

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
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text("enabled_smells = pronon, long-sentence\n")
    assert run(["lint", atm, "--config", str(cfg), "--format", "json"]) == 2
    assert capsys.readouterr() == (
        "", "ucsmell: unknown smell id in enabled_smells: 'pronon'\n"
    )


def test_negative_fail_threshold_exits_two_with_a_message(capsys, fixtures_dir):
    code = run(["lint", str(fixtures_dir / "atm.ucd"), "--fail-threshold", "-1"])
    assert code == 2
    assert capsys.readouterr() == ("", "ucsmell: fail_threshold must be >= 0\n")


def test_eval_rejects_json_input(tmp_path, capsys, fixtures_dir):
    from ucsmell.parser import parse_text, serialize

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


def _modules_loaded_by(code: str) -> set[str]:
    src = str(Path(ucsmell.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_cli_loads_no_costly_modules():
    costly = {"dataclasses", "inspect", "statistics", "fractions", "decimal",
              "ucsmell.evaluation"}
    loaded = _modules_loaded_by("import ucsmell.cli") - _modules_loaded_by("pass")
    assert "ucsmell.cli" in loaded
    assert not costly & loaded


def test_lint_run_loads_no_shutil(fixtures_dir):
    # argparse's help formatter imports shutil to measure the terminal.
    lint = (
        "import contextlib, io\n"
        "from ucsmell import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.run(['lint', {str(fixtures_dir / 'atm.ucd')!r}])"
    )
    loaded = _modules_loaded_by(lint) - _modules_loaded_by("pass")
    assert "ucsmell.cli" in loaded
    assert "shutil" not in loaded


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
