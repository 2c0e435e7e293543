"""Command-line entry point: lint, catalogue browsing, and evaluation."""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from . import engine, report
from .catalogue import catalogue, smell_space_cell
from .model import Characteristic, Finding, Scope
from .parser import parse_json, parse_text
from .textanalysis import load_lexicon

_CELL_RE = re.compile(r"^C_?\{?(\d)[,_](\d)\}?$", re.IGNORECASE)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, set up only when it formats help.

    argparse builds a formatter for each argument it adds, just to check
    the argument's metavar. Setting one up measures the terminal, which on
    CPython 3.10, 3.12 and later imports shutil (with bz2, lzma and zlib)
    into every lint run. The check needs no setup, so it runs on first use.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._deferred = (args, kwargs)

    def __getattr__(self, name: str):
        # Only the state HelpFormatter.__init__ sets is ever missing.
        deferred = self.__dict__.pop("_deferred", None)
        if deferred is None:
            raise AttributeError(name)
        super().__init__(*deferred[0], **deferred[1])
        return getattr(self, name)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ucsmell",
        description="Detect bad smells in structured use case descriptions.",
        formatter_class=_HelpFormatter,
    )
    # Given prog, argparse need not format a usage line to derive it.
    sub = ap.add_subparsers(dest="subcommand", required=True, prog=ap.prog)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, formatter_class=_HelpFormatter, **kwargs)

    lint = add_parser("lint", help="detect smells in description files")
    lint.add_argument("inputs", nargs="+", metavar="FILE")
    _common_options(lint)
    lint.add_argument(
        "--format",
        choices=("json", "pretty"),
        default="pretty",
    )
    lint.add_argument("--fail-threshold", type=int, default=None)

    cat = add_parser("catalogue", help="browse the smell catalogue")
    cat.add_argument("--cell", help="smell-space cell, e.g. C_5_2 or C_{5,2}")
    cat.add_argument(
        "--detectable", action="store_true", help="only automatically detectable smells"
    )

    ev = add_parser("eval", help="compare findings against an oracle")
    ev.add_argument("inputs", nargs=1, metavar="FILE")
    ev.add_argument("--oracle", required=True)
    _common_options(ev)
    return ap


def _common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="detector config file (key=value lines)")
    sub.add_argument("--lexicon", help="lexicon file overriding the bundled one")
    sub.add_argument("--stddev-k", type=float, default=None)
    sub.add_argument("--min-sentences-for-distribution", type=int, default=None)
    sub.add_argument("--disable", action="append", default=[], metavar="SMELL_ID")


def _load_detector_config(args) -> engine.DetectorConfig:
    path = args.config or os.environ.get("UCSMELL_CONFIG")
    cfg = engine.load_config(path) if path else engine.DetectorConfig()
    overrides = {}
    if args.stddev_k is not None:
        overrides["stddev_k"] = args.stddev_k
    if args.min_sentences_for_distribution is not None:
        overrides["min_sentences_for_distribution"] = args.min_sentences_for_distribution
    if args.disable:
        engine._check_smell_ids(args.disable, "--disable")
        overrides["enabled_smells"] = cfg.enabled_ids() - set(args.disable)
    if overrides:
        cfg = cfg._replace(**overrides)
    return cfg


def _usage_error(reason) -> int:
    print(f"ucsmell: {reason}", file=sys.stderr)
    return report.EXIT_PARSE_ERROR


def _detect_file(path: str, cfg, lex) -> Optional[list[Finding]]:
    """The findings of one file, its parse diagnostics printed on stderr;
    None when it cannot be read or parsed."""
    try:
        # utf-8-sig drops a leading byte order mark, as editors may write one.
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None
    doc, diags = (parse_json if path.endswith(".json") else parse_text)(text)
    for d in diags:
        print(f"{path}:{d.line}: {d.severity.value}: {d.message}", file=sys.stderr)
    return None if doc is None else engine.detect(doc, cfg, lex)


def _cmd_lint(args, cfg, lex) -> int:
    if args.fail_threshold is not None and args.fail_threshold < 0:
        return _usage_error("fail_threshold must be >= 0")

    # A file that fails to parse is reported on stderr and skipped; the
    # others are still linted and reported, and the exit code becomes 2.
    per_file: list[tuple[str, list]] = []
    for path in args.inputs:
        findings = _detect_file(path, cfg, lex)
        if findings is not None:
            per_file.append((path, findings))

    if args.format == "json":
        if len(args.inputs) > 1:
            sys.stdout.write(report.emit_json_files(per_file) + "\n")
        elif per_file:
            sys.stdout.write(report.emit_json(per_file[0][1]) + "\n")
    else:
        for path, findings in per_file:
            sys.stdout.write(report.emit_pretty(findings, source_name=path))

    if len(per_file) < len(args.inputs):
        return report.EXIT_PARSE_ERROR
    total = sum(len(f) for _, f in per_file)
    return report.exit_code(total, args.fail_threshold)


def _cmd_catalogue(args) -> int:
    entries = catalogue()
    if args.cell:
        m = _CELL_RE.match(args.cell.strip())
        if not m:
            print(f"unrecognized cell: {args.cell}", file=sys.stderr)
            return 2
        try:
            characteristic = Characteristic(int(m.group(1)))
            scope = Scope(int(m.group(2)))
        except ValueError:
            print(f"cell out of range: {args.cell}", file=sys.stderr)
            return 2
        entries = smell_space_cell(characteristic, scope)
    if args.detectable:
        entries = [e for e in entries if e.detectable]
    blocks = []
    for e in entries:
        blocks.append(
            "\n".join(
                [
                    f"Name: {e.name}",
                    f"Characteristic: {e.characteristic.title}",
                    f"Scope: {e.scope.title}",
                    f"Symptom: {e.symptom}",
                    f"How to Detect: {e.how_to_detect}",
                ]
            )
        )
    sys.stdout.write("\n\n".join(blocks) + ("\n" if blocks else ""))
    return 0


def _cmd_eval(args, cfg, lex) -> int:
    from . import evaluation  # only eval needs it; lint starts faster without

    path = args.inputs[0]
    if path.endswith(".json"):
        # Findings on JSON input all sit on line 0, so matching them to
        # the oracle's lines would mean nothing.
        return _usage_error(
            f"{path}: eval needs line numbers, which JSON input does not "
            "carry; evaluate the .ucd text instead"
        )
    findings = _detect_file(path, cfg, lex)
    if findings is None:
        return report.EXIT_PARSE_ERROR
    try:
        with open(args.oracle, encoding="utf-8-sig") as fh:
            oracle = evaluation.load_oracle(fh.read())
    except (OSError, ValueError) as exc:
        print(f"{args.oracle}: {exc}", file=sys.stderr)
        return report.EXIT_PARSE_ERROR
    sys.stdout.write(evaluation.render_table(evaluation.match(findings, oracle)))
    return 0


def run(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.subcommand == "catalogue":
        return _cmd_catalogue(args)
    try:
        cfg = _load_detector_config(args)
        lex = load_lexicon(args.lexicon)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    command = _cmd_lint if args.subcommand == "lint" else _cmd_eval
    return command(args, cfg, lex)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
