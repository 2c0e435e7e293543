"""Smoke path of the benchmark: every workload for one operation, with all
output checks, traced and untraced. No timing is asserted.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import largedoc  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", ["corpus", "large-doc", "cli-cold"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _declared("per_layer" if trace == "1" else "end_to_end")
    if trace == "0":  # end-to-end metrics are never 0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_is_seeded():
    a, b, c = (largedoc.generate(s, 200) for s in (5, 5, 6))
    assert a.text == b.text and a.oracle() == b.oracle()
    assert a.text != c.text


def test_generator_plants_what_it_reports():
    doc = largedoc.generate(9, 400)
    lines = doc.text.splitlines()
    basic = lines.index("Basic Flow:")
    for section, rel, word in doc.pronouns:
        if section == "Basic Flow":
            assert word in lines[basic + rel].split(" ", 1)[1].rstrip(".").split()
    assert Counter(e["smell_id"] for e in doc.oracle())["unordered-flow"] == len(doc.unordered)
    assert any(smell == "long-sentence" for smell, _, _ in doc.length_outliers)
    assert any(smell == "short-sentence" for smell, _, _ in doc.length_outliers)
