#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload large-doc \
        --pairs 10 --seconds 10 --seed0 1

Pair i runs ``perfbench/run.py --workload W --seed SEED0+i --seconds S
--trace 0`` once in each checkout, from that checkout's root; the parent
runs first in even pairs and the change first in odd ones, so a drift in
machine speed touches both sides alike. A run that exits non-zero,
reports ``correct: false`` or counts a failed operation stops the script
(exit 1): its figures would not measure working code.

For each end-to-end metric of the change's BENCHMARK.json it prints both
sides' median and quartiles, the pairs each side won (ties count for
neither), the change of the median against its bound, and whether a gain
may be claimed: at least ten pairs ran, the change won at least nine
tenths of them, and its median is better than the parent's by more than
the distance between the parent's quartiles. Only the standard library
is used; the linter is run, never imported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10  # fewer pairs back no claim of a gain


def run_once(root: Path, workload: str, seed: int, seconds: int, smoke: bool) -> dict:
    """The metric values of one benchmark run in the checkout at root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_pairs: {root}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_pairs: {root}: correct={result['correct']}, "
                 f"failed={result['failed']}; figures refused")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> str:
    """One line: both sides' quartiles and wins, the bound, the gain rule."""
    lower = metric["better"] == "lower"
    wins = dict.fromkeys(SIDES, 0)
    for p, c in zip(parent, change):
        if p != c:
            wins["change" if (c < p) == lower else "parent"] += 1
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = pm - cm if lower else cm - pm  # positive when the change is better
    rel = -gain / pm if pm else 0.0  # how much worse the change is, as a share
    if len(parent) < MIN_PAIRS:
        claim = f"needs {MIN_PAIRS} pairs"
    elif wins["change"] * 10 >= 9 * len(parent) and gain > p3 - p1:
        claim = "holds"
    else:
        claim = "does not hold"
    return (f"{metric['name']:<14} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"wins {wins['parent']}:{wins['change']}  "
            f"worse by {rel:+.1%} (bound {metric['bound']:.0%}: "
            f"{'within' if rel <= metric['bound'] else 'BEYOND'})  "
            f"gain claim: {claim}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int, help="run length of every run")
    ap.add_argument("--seed0", required=True, type=int, help="seed of the first pair")
    ap.add_argument("--smoke", action="store_true", help="pass --smoke to every run")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    metrics = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            got = run_once(getattr(args, side), args.workload, seed, args.seconds, args.smoke)
            for m in metrics:
                values[side][m["name"]].append(got[m["name"]])
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + "  ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.6g}/"
            f"{values['change'][m['name']][-1]:.6g}" for m in metrics), flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s; "
          "median [quartiles], wins parent:change")
    for m in metrics:
        print(compare(m, values["parent"][m["name"]], values["change"][m["name"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
