"""Fixed pure-Python loop that gauges how fast the machine runs right now.

The shared machine the benchmark runs on changes speed by up to two times,
in bursts of a fraction of a second and in phases of minutes. The loop
below does the same work on every call, and none of it in ucsmell: it
tokenizes a fixed text with a regular expression, builds small objects,
counts with dicts and sorts, as a linter does. ``run.py`` times it before
and after the operations it measures and gives every time at the speed
at which this loop takes ``NOMINAL_S``.

Changing this file changes the scale of every end-to-end time: keep it
as it is.
"""

from __future__ import annotations

import gc
import re
import time
from collections import Counter

# The loop's time on an idle 2-CPU machine with CPython 3.11 (about the
# fastest it ran there). Scaled times are in seconds at that speed.
NOMINAL_S = 0.020

_WORDS = ("select open check store print send close update record order invoice ticket "
          "report card form file batch receipt the a of to on in with from").split()
_TEXT = " ".join(_WORDS[(i * 7 + i // 3) % len(_WORDS)] for i in range(20000))
_WORD = re.compile(r"[a-z]+")


class _Token:
    __slots__ = ("text", "pos", "tag")

    def __init__(self, text: str, pos: int, tag: int) -> None:
        self.text, self.pos, self.tag = text, pos, tag


def work() -> tuple:
    tokens = [_Token(m.group(), m.start(), len(m.group()) % 5) for m in _WORD.finditer(_TEXT)]
    counts = Counter(t.text for t in tokens)
    pairs: dict[tuple[int, int], list[int]] = {}
    for a, b in zip(tokens, tokens[1:]):
        pairs.setdefault((a.tag, b.tag), []).append(a.pos)
    top = sorted(((k, len(v)) for k, v in pairs.items()), key=lambda kv: (-kv[1], kv[0]))
    return len(tokens), len(counts), top[:3], "-".join(t.text.upper() for t in tokens[:500:7])


def seconds() -> float:
    """Wall seconds of one call of ``work``, after a full collection."""
    gc.collect()
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def scaled(timed: list[tuple[float, int]], refs: list[float]) -> list[float]:
    """Each ``(seconds, i)`` at reference speed.

    ``refs[i]`` and ``refs[i + 1]`` are the loop's times just before and
    just after the timed work; their mean gauges the speed during it.
    """
    return [s * NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for s, i in timed]
