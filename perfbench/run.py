"""Benchmark of the ucsmell linter: one workload per run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the linter is imported from its src/.
With ``--trace 0`` the run measures the end-to-end metrics, every time
at the reference speed that ``reference.py`` defines; with
``--trace 1`` it wraps each layer and reports per-layer self times and
counts instead. Every operation's output is checked in both modes. The
last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from bench_trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 11
REF_EVERY_S = 0.2  # most operation time between two reference loops
CHILD_REPS = 5
SETUP_CODE = "import ucsmell; ucsmell.load_lexicon(); ucsmell.DetectorConfig()"
WHERE_CODE = "import ucsmell; print(ucsmell.__file__)"
IMPORT_CODE = ("import time; t = time.perf_counter(); import ucsmell.cli; "
               "print(time.perf_counter() - t)")


def _import_program() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    package = ROOT / "src" / "ucsmell"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no ucsmell package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ucsmell

    if Path(ucsmell.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: ucsmell was imported from {ucsmell.__file__}, not {package}")


def _pin_to_one_cpu() -> None:
    """Run on one CPU, with every child, so the reference loop gauges the CPU the work runs on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:  # the figures are then less steady, not wrong
        print(f"perfbench: could not pin to one CPU: {exc}", file=sys.stderr)


def _child(code: str) -> tuple[float, str]:
    """Wall seconds and stdout of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(ROOT),
                          capture_output=True, text=True, check=True,
                          timeout=workloads.CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc.stdout


def _check_child_program() -> None:
    """A child interpreter must import the checkout's ucsmell (this also writes its bytecode)."""
    where = _child(WHERE_CODE)[1].strip()
    if Path(where).resolve().parent != (ROOT / "src" / "ucsmell").resolve():
        sys.exit(f"perfbench: child interpreter imported ucsmell from {where}")


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Tally:
    """Operations attempted, failed and timed, and output-check errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # output checks that failed
        self.failures: list[str] = []  # operations that raised
        self.durations: list[float] = []
        self.docs = 0
        self.steps = 0

    def run(self, op, tracer: Tracer | None = None):
        """Run one operation, time it, check its output; return the output or None.

        Each operation starts after a full collection, as in a fresh lint
        process, so collections inside it do not depend on what ran before.
        """
        gc.collect()
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append(f"{op.name}: raised {exc!r}")
            if tracer is not None:
                tracer.end_op()
            return None
        dt = time.perf_counter() - t0
        if tracer is not None:
            dt = tracer.end_op()
        self.durations.append(dt)
        self.docs += op.docs
        self.steps += op.steps
        err = op.check(out)
        if err:
            self.errors.append(f"{op.name}: {err}")
        return out


def run_timed(workload: str, ops, seed: int, seconds: int, smoke: bool) -> tuple[Tally, dict]:
    """Time whole rounds of ``ops`` for ``seconds``; every time is at reference speed.

    The reference loop runs before the first operation, after the last, and
    between operations whenever ``REF_EVERY_S`` of operation time has passed
    since it last ran. Set-up is timed the same way, one loop between two
    fresh interpreters.
    """
    _check_child_program()
    reference.seconds()  # warm-up
    refs, setups = [reference.seconds()], []
    for _ in range(1 if smoke else SETUP_REPS):
        setups.append((_child(SETUP_CODE)[0], len(refs) - 1))
        refs.append(reference.seconds())
    setup_s = statistics.median(reference.scaled(setups, refs))

    Tally().run(ops[0])  # warm-up, not counted
    tally = Tally()
    refs, timed = [reference.seconds()], []
    since = 0.0
    start = time.perf_counter()
    while True:
        for op in ops:
            if since >= REF_EVERY_S:
                refs.append(reference.seconds())
                since = 0.0
            n = len(tally.durations)
            tally.run(op)
            if len(tally.durations) > n:
                timed.append((tally.durations[-1], len(refs) - 1))
                since += tally.durations[-1]
        if time.perf_counter() - start >= seconds:
            break
    refs.append(reference.seconds())
    op_s = reference.scaled(timed, refs)
    if workload == "cli-cold":
        peak = workloads.cli_peak_bytes(ROOT, seed)
    elif workload == "large-doc":
        peak = workloads.op_peak_bytes(ops[:1])
    else:  # in a fixed order, so the shuffle by seed cannot move the peak
        peak = workloads.op_peak_bytes(sorted(ops, key=lambda op: op.name))
    busy = sum(op_s)
    print(f"perfbench: wall-clock docs_per_s {tally.docs / sum(tally.durations):.6g}, "
          f"op_ms_p50 {statistics.median(tally.durations) * 1e3:.6g}; reference loop "
          f"{statistics.median(refs) * 1e3:.4g} ms median, {min(refs) * 1e3:.4g} ms best "
          f"over {len(refs)}", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "docs_per_s": (tally.docs / busy, "docs/s"),
        "steps_per_s": (tally.steps / busy, "steps/s"),
        "op_ms_p50": (statistics.median(op_s) * 1e3, "ms"),
        "op_ms_p90": (_p90(op_s) * 1e3, "ms"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
    }
    return tally, metrics


def _sentences(doc) -> int:
    return sum(1 for _ in doc.iter_sentences()) if doc is not None else 0


def _tokens(doc) -> int:
    return sum(len(s.tokens) for _, s in doc.iter_sentences())


def run_traced(workload: str, ops, seed: int, seconds: int, lib) -> tuple[Tally, dict]:
    """Run each operation untraced and traced; report per-document layer figures."""
    _check_child_program()
    interpreter_s = statistics.median(_child("pass")[0] for _ in range(CHILD_REPS))
    import_s = statistics.median(float(_child(IMPORT_CODE)[1]) for _ in range(CHILD_REPS))
    reference.seconds()  # warm-up
    reference_s = statistics.median(reference.seconds() for _ in range(CHILD_REPS))
    lexicon_s = []
    for _ in range(CHILD_REPS):
        t0 = time.perf_counter()
        lib.textanalysis.load_lexicon()
        lexicon_s.append(time.perf_counter() - t0)

    Tally().run(ops[0])  # warm-up, not counted
    plain, tally, tracer = Tally(), Tally(), Tracer()
    counts = dict.fromkeys(("sentences", "tokens", "findings", "json_bytes", "matched_pairs"), 0)

    def traced(op) -> None:
        with tracer:
            out = tally.run(op, tracer)
        if out is None:
            return
        counts["json_bytes"] += len(op.report_text(out).encode("utf-8"))
        for name, call_args, result in tracer.recorded:
            if name in ("parser.parse_text", "parser.parse_json"):
                counts["sentences"] += _sentences(result[0])
            elif name == "textanalysis.analyze_document":
                counts["tokens"] += _tokens(call_args[0])
            elif name == "engine.detect":
                counts["findings"] += len(result)
            elif name == "evaluation.match":
                counts["matched_pairs"] += len(result.matched_pairs)
        tracer.recorded.clear()  # live documents would slow the garbage collector

    # Each operation runs untraced and traced back to back, in alternating
    # order, so a change in machine speed touches both sides alike.
    start, rnd = time.perf_counter(), 0
    while True:
        for i, op in enumerate(ops):
            if (i + rnd) % 2:
                plain.run(op)
                traced(op)
            else:
                traced(op)
                plain.run(op)
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    if tracer.max_gap_s > 1e-6:
        tally.errors.append(f"layer self times miss the traced duration by {tracer.max_gap_s:.3g} s")
    plain.errors.extend(tally.errors)
    plain.failures.extend(tally.failures)
    plain.attempted += tally.attempted
    plain.failed += tally.failed
    tracer.dump(SPAN_DIR / f"spans-{workload}-s{seed}.jsonl")

    docs = tally.docs
    traced_per_doc = sum(tally.durations) / docs
    plain_per_doc = sum(plain.durations) / plain.docs

    def ms(seconds_total: float) -> tuple[float, str]:
        return seconds_total / docs * 1e3, "ms"

    def per_doc(n: int) -> tuple[float, str]:
        return n / docs, "count"

    own = tracer.self_s
    metrics = {
        "parser.parse_text_ms": ms(own["parser.parse_text"]),
        "parser.parse_json_ms": ms(own["parser.parse_json"]),
        "parser.serialize_ms": ms(own["parser.serialize"]),
        "parser.sentences": per_doc(counts["sentences"]),
        "textanalysis.analyze_ms": ms(own["textanalysis.analyze_document"]),
        "textanalysis.tokens": per_doc(counts["tokens"]),
        "textanalysis.load_lexicon_ms": (statistics.median(lexicon_s) * 1e3, "ms"),
        "metrics.self_ms": ms(tracer.layer_self_s("metrics.")),
        "engine.detect_self_ms": ms(own["engine.detect"]),
        "engine.findings": per_doc(counts["findings"]),
        "catalogue.detectable_ids_calls": per_doc(tracer.calls["catalogue.detectable_ids"]),
        "catalogue.self_ms": ms(tracer.layer_self_s("catalogue.")),
        "report.emit_json_ms": ms(own["report.emit_json"]),
        "report.json_bytes": (counts["json_bytes"] / docs, "bytes"),
        "evaluation.match_ms": ms(own["evaluation.match"]),
        "evaluation.matched_pairs": per_doc(counts["matched_pairs"]),
        "evaluation.render_table_ms": ms(own["evaluation.render_table"]),
        "cli.run_self_ms": ms(own["cli.run"]),
        "cli.interpreter_ms": (interpreter_s * 1e3, "ms"),
        "cli.import_ms": (import_s * 1e3, "ms"),
        "bench.self_ms": ms(own["bench.op"]),
        "bench.reference_ms": (reference_s * 1e3, "ms"),
        "trace.op_ms": ms(tracer.op_s),
        "trace.overhead_pct": ((traced_per_doc / plain_per_doc - 1) * 100, "%"),
    }
    return plain, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one operation (one document for corpus), one set-up sample")
    args = ap.parse_args(argv)

    _import_program()
    _pin_to_one_cpu()
    os.chdir(ROOT)  # the CLI workload names its inputs relative to the checkout
    lib = workloads.Lib()
    ops = workloads.build(args.workload, lib, ROOT, args.seed, bool(args.trace), args.smoke)
    # Collections inside an operation would otherwise also traverse the
    # benchmark's own inputs, which a lint process does not hold.
    gc.collect()
    gc.freeze()
    if args.trace:
        tally, metrics = run_traced(args.workload, ops, args.seed, args.seconds, lib)
    else:
        tally, metrics = run_timed(args.workload, ops, args.seed, args.seconds, args.smoke)
    for err in tally.failures[:20]:
        print(f"perfbench: operation failed: {err}", file=sys.stderr)
    for err in tally.errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
