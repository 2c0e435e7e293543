"""The three workloads: their inputs, one round of operations, and the
output checks that run on every operation.

An operation always parses its input anew; see README.md for why. The
linter is reached only through module attributes (``parser.parse_text``,
``engine.detect``, ...), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import largedoc

FIXTURES = ("fixtures/atm.ucd", "fixtures/clean.ucd", "fixtures/search.ucd")
CLEAN_FIXTURES = ("fixtures/clean.ucd",)
LARGE_SIZES = (1000, 2000, 3000, 5000, 10000)  # odd count: p50 and p90 fall inside a size
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    name: str
    docs: int
    steps: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # error message, or None when correct
    report_text: Callable[[object], str]  # the JSON report the operation produced


class Lib:
    """The ucsmell modules, the default config and the bundled lexicon."""

    def __init__(self) -> None:
        mod = importlib.import_module
        self.parser = mod("ucsmell.parser")
        self.engine = mod("ucsmell.engine")
        self.report = mod("ucsmell.report")
        self.evaluation = mod("ucsmell.evaluation")
        self.textanalysis = mod("ucsmell.textanalysis")
        self.cfg = self.engine.DetectorConfig()
        self.lex = self.textanalysis.load_lexicon()

    def lint(self, text: str):
        """Parse a .ucd text, detect and emit JSON, as ``ucsmell lint`` does."""
        doc, _ = self.parser.parse_text(text)
        findings = self.engine.detect(doc, self.cfg, self.lex)
        return doc, findings, self.report.emit_json(findings)


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the checkout's src/, no user config."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "UCSMELL_CONFIG")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def count_steps(doc) -> int:
    n = len(doc.basic_flow.steps) if doc.basic_flow is not None else 0
    return n + sum(len(f.steps) for f in doc.alternate_flows + doc.exception_flows)


def _records_match(out: str, findings) -> Optional[str]:
    records = json.loads(out)
    if len(records) != len(findings):
        return f"report has {len(records)} records for {len(findings)} findings"
    return None


# --- corpus -----------------------------------------------------------------


def _load_seeding(root: Path):
    spec = importlib.util.spec_from_file_location("seeding", root / "tests" / "seeding.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["seeding"] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def corpus_documents(root: Path) -> list[tuple[str, str, Optional[str]]]:
    """(name, .ucd text, planted smell id; "" for clean, None for unknown)."""
    seeding = _load_seeding(root)
    docs = [(path, (root / path).read_text(encoding="utf-8"),
             "" if path in CLEAN_FIXTURES else None) for path in FIXTURES]
    seeded = seeding.seeded_documents()
    planted = {m["doc"]: m["smell_id"] for m in seeding.manifest(seeded)}
    docs += [(d.name, d.text, planted[d.name]) for d in seeded]
    docs += [(d.name, d.text, "") for d in seeding.clean_documents()]
    return docs


def _planted_error(ids: Counter, planted: Optional[str]) -> Optional[str]:
    if planted == "" and ids:
        return f"clean document yields {sorted(ids)}"
    if planted and planted not in ids:
        return f"planted smell {planted} not found in {sorted(ids)}"
    return None


def corpus_round(lib: Lib, root: Path, seed: int) -> list[Op]:
    """Each document linted from its text and then from its canonical JSON."""
    docs = corpus_documents(root)
    random.Random(seed).shuffle(docs)
    text_ids: dict[str, Counter] = {}
    ops: list[Op] = []
    for name, text, planted in docs:
        model, _ = lib.parser.parse_text(text)  # the document the JSON pass serializes
        steps = count_steps(model)

        def run_text(text=text):
            return lib.lint(text)

        def check_text(out, name=name, planted=planted):
            doc, findings, report = out
            ids = Counter(f.smell_id for f in findings)
            text_ids[name] = ids
            return _planted_error(ids, planted) or _records_match(report, findings)

        def run_json(model=model):
            doc, _ = lib.parser.parse_json(lib.parser.serialize(model))
            findings = lib.engine.detect(doc, lib.cfg, lib.lex)
            return doc, findings, lib.report.emit_json(findings)

        def check_json(out, name=name, planted=planted, model=model):
            doc, findings, report = out
            if doc != model:
                return "parse_json(serialize(d)) != d"
            ids = Counter(f.smell_id for f in findings)
            if ids != text_ids.get(name):
                return f"front-ends disagree: text {text_ids.get(name)} json {ids}"
            return _planted_error(ids, planted) or _records_match(report, findings)

        ops.append(Op(f"text:{name}", 1, steps, run_text, check_text, lambda out: out[2]))
        ops.append(Op(f"json:{name}", 1, steps, run_json, check_json, lambda out: out[2]))
    return ops


# --- large-doc ----------------------------------------------------------------


def _found(findings) -> dict[str, Counter]:
    """Findings of the checked smells, keyed like LargeDoc.expected()."""
    out = {
        "pronoun": Counter((f.item_name, f.line, f.evidence.text)
                           for f in findings if f.smell_id == "pronoun"),
        "unordered-flow": Counter((f.item_name, f.line, f.metric)
                                  for f in findings if f.smell_id == "unordered-flow"),
    }
    for smell in ("long-sentence", "short-sentence"):
        out[smell] = Counter((f.item_name, f.line) for f in findings if f.smell_id == smell)
    return out


def large_round(lib: Lib, seed: int, sizes=LARGE_SIZES) -> list[Op]:
    """Generated documents through lint --format json and eval."""
    ops = []
    for steps in sizes:
        gen = largedoc.generate(seed, steps)
        oracle = lib.evaluation.load_oracle(json.dumps(gen.oracle()))
        expected = gen.expected()

        def run(gen=gen, oracle=oracle):
            doc, findings, report = lib.lint(gen.text)
            result = lib.evaluation.match(findings, oracle)
            return findings, report, result, lib.evaluation.render_table(result)

        def check(out, expected=expected, n_oracle=len(oracle)):
            findings, report, result, table = out
            found = _found(findings)
            for smell, want in expected.items():
                if found[smell] != want:
                    return (f"{smell}: {sum((found[smell] - want).values())} unexpected, "
                            f"{sum((want - found[smell]).values())} missing")
            if result.totals.fn or len(result.matched_pairs) != n_oracle:
                return f"recall below 1.0: {result.totals.fn} oracle entries unmatched"
            if "Total" not in table:
                return "eval table has no Total row"
            return _records_match(report, findings)

        ops.append(Op(f"large:{steps}", 1, gen.total_steps, run, check, lambda out: out[1]))
    return ops


# --- cli-cold -----------------------------------------------------------------


def _cli_files(seed: int) -> list[str]:
    files = list(FIXTURES)
    random.Random(seed).shuffle(files)
    return files


def cli_round(lib: Lib, root: Path, seed: int, replay: bool = False) -> list[Op]:
    """One cold ``python -m ucsmell.cli lint --format json`` over the fixtures.

    With ``replay`` the same work runs in-process, through ``cli.run``, so
    the traced run sees its layers.
    """
    files = _cli_files(seed)
    argv = ["lint", "--format", "json", *files]
    expected, steps = {}, 0
    for path in files:
        doc, _ = lib.parser.parse_text((root / path).read_text(encoding="utf-8"))
        steps += count_steps(doc)
        findings = lib.engine.detect(doc, lib.cfg, lib.lex)
        expected[path] = [lib.report.finding_record(f) for f in findings]

    if replay:
        cli = importlib.import_module("ucsmell.cli")

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            return code, buf.getvalue()
    else:
        command, env = [sys.executable, "-m", "ucsmell.cli", *argv], child_env(root)

        def run():
            proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout

    def check(out) -> Optional[str]:
        code, stdout = out
        if code != 1:
            return f"exit code {code}, expected 1"
        if json.loads(stdout) != expected:
            return "per-file records differ from in-process detect + finding_record"
        return None

    name = "cli:replay" if replay else "cli:lint"
    return [Op(name, len(files), steps, run, check, lambda out: out[1])]


# --- peak allocation ------------------------------------------------------------


def op_peak_bytes(ops: list[Op]) -> int:
    """Largest tracemalloc peak above the starting level over single operations.

    Each operation starts from a full collection, so the garbage collector
    runs at the same points whatever ran before it.
    """
    tracemalloc.start()
    try:
        peak = 0
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = op.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del out
    finally:
        tracemalloc.stop()
    return peak


_CLI_PEAK = """
import contextlib, io, sys, tracemalloc
from ucsmell import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.run(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
"""


def cli_peak_bytes(root: Path, seed: int) -> int:
    """tracemalloc peak of a whole cold lint process, imports included."""
    argv = [sys.executable, "-X", "tracemalloc", "-c", _CLI_PEAK,
            "lint", "--format", "json", *_cli_files(seed)]
    proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return int(proc.stdout.strip().splitlines()[-1])


def build(workload: str, lib: Lib, root: Path, seed: int, trace: bool,
          smoke: bool = False) -> list[Op]:
    """One round of operations; ``smoke`` keeps only the first document."""
    if workload == "corpus":
        ops = corpus_round(lib, root, seed)
        return ops[:2] if smoke else ops
    if workload == "large-doc":
        return large_round(lib, seed, LARGE_SIZES[:1] if smoke else LARGE_SIZES)
    if workload == "cli-cold":
        return cli_round(lib, root, seed, replay=trace)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("corpus", "large-doc", "cli-cold")
