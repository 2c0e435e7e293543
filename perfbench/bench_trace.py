"""In-memory span tracer that wraps ucsmell's layer functions from outside.

Each wrapped function is replaced at the module attribute its callers
resolve (``ucsmell.engine.analyze_document``, ``ucsmell.metrics.NOV``, ...),
so nested calls become child spans and analysis run inside ``detect`` is
charged to ``textanalysis``. A span's self time is its duration minus the
durations of its children. Spans are kept in memory (up to ``KEEP_SPANS``)
and written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT_SPAN = "bench.op"
KEEP_SPANS = 50_000  # about 6 MB of JSON lines; self times still cover every span

# Functions whose arguments or results the benchmark reads after an
# operation to count work (sentences, tokens, findings, matched pairs).
RECORDED = {
    "parser.parse_text",
    "parser.parse_json",
    "textanalysis.analyze_document",
    "engine.detect",
    "evaluation.match",
}


def _targets() -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every wrapped function."""
    mod = importlib.import_module
    parser, engine, metrics = mod("ucsmell.parser"), mod("ucsmell.engine"), mod("ucsmell.metrics")
    textanalysis, catalogue = mod("ucsmell.textanalysis"), mod("ucsmell.catalogue")
    report, evaluation = mod("ucsmell.report"), mod("ucsmell.evaluation")
    targets = [
        (parser, "parse_text", "parser.parse_text"),
        (parser, "parse_json", "parser.parse_json"),
        (parser, "serialize", "parser.serialize"),
        (engine, "analyze_document", "textanalysis.analyze_document"),
        (textanalysis, "load_lexicon", "textanalysis.load_lexicon"),
        (engine, "detect", "engine.detect"),
        (engine, "detectable_ids", "catalogue.detectable_ids"),
        (catalogue, "detectable_ids", "catalogue.detectable_ids"),
        (report, "emit_json", "report.emit_json"),
        (evaluation, "match", "evaluation.match"),
        (evaluation, "render_table", "evaluation.render_table"),
    ]
    targets += [
        (metrics, name, f"metrics.{name}")
        for name, fn in vars(metrics).items()
        if inspect.isfunction(fn) and fn.__module__ == metrics.__name__ and not name.startswith("_")
    ]
    cli = sys.modules.get("ucsmell.cli")
    if cli is not None:
        targets += [
            (cli, "run", "cli.run"),
            (cli, "parse_text", "parser.parse_text"),
            (cli, "parse_json", "parser.parse_json"),
            (cli, "load_lexicon", "textanalysis.load_lexicon"),
        ]
    return targets


class Tracer:
    """Spans, self times and call counts of the wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []  # op, id, parent, name, start, end
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.recorded: list[tuple[str, tuple, object]] = []
        self.op = 0
        self.op_s = 0.0  # summed root-span durations
        self.max_gap_s = 0.0  # largest |sum of self times - root duration| over ops
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._op_self = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self.calls[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self_s = dur - child
        self.self_s[name] += self_s
        self._op_self += self_s
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((self.op, span_id, parent, name, start, end))
        return dur

    def begin_op(self) -> None:
        self.op += 1
        self.recorded.clear()
        self._op_self = 0.0
        self._enter(ROOT_SPAN)

    def end_op(self) -> float:
        if len(self._stack) != 1:
            raise RuntimeError("unbalanced spans at the end of an operation")
        dur = self._exit()
        self.op_s += dur
        self.max_gap_s = max(self.max_gap_s, abs(self._op_self - dur))
        return dur

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer, record = self, name in RECORDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if record:
                tracer.recorded.append((name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name in _targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def layer_self_s(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
