"""Seeded generator of large use case descriptions with planted outcomes.

Each document has a basic flow of the requested number of steps, mostly
short single-clause steps with a few long and a few very short ones, and
tens of alternate and exception flows. The generator records what it
planted, computed from its own text and never from the linter:

- every pronoun it placed (words of ``PRONOUNS`` are lexicon pronouns,
  which the tagger always tags as pronouns);
- the flows whose numbering it broke, and at which step;
- the long and short sentences, found by its own mean +/- 2 * stddev over
  the character lengths of every sentence it wrote.

These planted outcomes, with section-relative lines and no evidence hint,
form the oracle that ``ucsmell eval`` matches findings against.

Run as a script to write documents, oracles and expectations to disk:

    python3 perfbench/largedoc.py --seed 7 --steps 1000 --out /tmp/large
    PYTHONPATH=src python3 -m ucsmell.cli eval /tmp/large/large-1000-s7.ucd \
        --oracle /tmp/large/large-1000-s7.oracle.json
"""

from __future__ import annotations

import argparse
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

STDDEV_K = 2.0

# Words the generator places as pronouns; all of them are pronouns in the
# bundled lexicon.
PRONOUNS = ("it", "them", "this", "these", "him", "her")

_SUBJECTS = ("The operator", "The system", "The clerk", "The manager", "The terminal")
_VERBS = ("selects", "opens", "checks", "stores", "prints", "sends", "closes", "updates")
_OBJECTS = ("the record", "the order", "the invoice", "the ticket", "the report",
            "the card", "the form", "the file", "the batch", "the receipt")
_PLACES = ("on the screen", "in the archive", "at the desk", "for the audit",
           "with the scanner", "to the host", "from the queue", "into the ledger")
_PROBLEMS = ("is missing", "is invalid", "times out", "is locked", "is rejected",
             "is incomplete", "arrives late", "is duplicated")
_SHORT = ("Stop here.", "Wait.", "Go on.", "Pause now.", "Retry.")
_LONG_TAIL = ("together with the date", "the time of the request", "the name of the terminal",
              "the number of the ticket", "the code of the branch office",
              "the amount of the payment", "the state of the queue")

# Shares of basic-flow steps; branch-flow steps draw their kind with the
# same odds. Fixed shares keep the work per document nearly the same for
# every seed, so seeds change the text but not the cost.
PRONOUN_SHARE = 0.3
LONG_SHARE = 0.005
SHORT_SHARE = 0.005
ALTERNATE_FLOWS = 24
EXCEPTION_FLOWS = 16
UNORDERED_BRANCH_RATE = 1 / 6

SECTION_PRE = "Preconditions"
SECTION_POST = "Postconditions"
SECTION_BASIC = "Basic Flow"
SECTION_ALT = "Alternate Flows"
SECTION_EXC = "Exception Flows"


@dataclass
class LargeDoc:
    """A generated document and the outcomes the generator planted in it."""

    seed: int
    steps: int
    text: str
    branch_steps: int = 0
    # (section, section-relative line, surface word)
    pronouns: list[tuple[str, int, str]] = field(default_factory=list)
    # (section, section-relative line of the flow, metric, broken step label)
    unordered: list[tuple[str, int, str, str]] = field(default_factory=list)
    # (smell id, section, section-relative line)
    length_outliers: list[tuple[str, str, int]] = field(default_factory=list)
    mean: float = 0.0
    stddev: float = 0.0

    @property
    def total_steps(self) -> int:
        return self.steps + self.branch_steps

    def oracle(self) -> list[dict]:
        """Planted outcomes as oracle entries (no evidence hints)."""
        entries = [{"smell_id": "pronoun", "item_name": s, "line": ln}
                   for s, ln, _ in self.pronouns]
        entries += [{"smell_id": "unordered-flow", "item_name": s, "line": ln}
                    for s, ln, _, _ in self.unordered]
        entries += [{"smell_id": smell, "item_name": s, "line": ln}
                    for smell, s, ln in self.length_outliers]
        return entries

    def expected(self) -> dict[str, Counter]:
        """Expected findings per checked smell, as comparable multisets."""
        out = {
            "pronoun": Counter(self.pronouns),
            "unordered-flow": Counter((s, ln, m) for s, ln, m, _ in self.unordered),
        }
        for smell in ("long-sentence", "short-sentence"):
            out[smell] = Counter(
                (s, ln) for sm, s, ln in self.length_outliers if sm == smell
            )
        return out


class _Writer:
    """Accumulates lines and records every sentence with its position."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        # section, section-relative line, text, index into lines, label prefix
        self.sentences: list[tuple[str, int, str, int, str]] = []
        self.section = ""
        self.header_line = 0

    def header(self, section: str) -> None:
        self.lines.append(f"{section}:")
        self.section = section
        self.header_line = len(self.lines)

    def sentence(self, prefix: str, text: str) -> int:
        """Write one labelled sentence line; return its section-relative line."""
        self.lines.append(f"{prefix}{text}")
        rel = len(self.lines) - self.header_line
        self.sentences.append((self.section, rel, text, len(self.lines) - 1, prefix))
        return rel


def _plain_step(rng: random.Random) -> str:
    return f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {rng.choice(_OBJECTS)} {rng.choice(_PLACES)}."


def _long_step(rng: random.Random) -> str:
    tail = ", ".join(rng.sample(_LONG_TAIL, 5))
    return (f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {rng.choice(_OBJECTS)} "
            f"{tail} and the outcome {rng.choice(_PLACES)}.")


def _pronoun_step(rng: random.Random) -> tuple[str, str]:
    """A step carrying one pronoun, as subject or as object; returns (text, surface)."""
    pron = rng.choice(PRONOUNS)
    if rng.random() < 0.5:
        surface = pron.capitalize()
        return f"{surface} {rng.choice(_VERBS)} {rng.choice(_OBJECTS)} {rng.choice(_PLACES)}.", surface
    return f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {pron} {rng.choice(_PLACES)}.", pron


def _step_kinds(rng: random.Random, n: int) -> list[str]:
    """Exact shares of pronoun, long and short steps, at seeded positions."""
    n_long = max(1, round(n * LONG_SHARE))
    n_short = max(1, round(n * SHORT_SHARE))
    n_pronoun = round(n * PRONOUN_SHARE)
    kinds = (["long"] * n_long + ["short"] * n_short + ["pronoun"] * n_pronoun
             + ["plain"] * (n - n_long - n_short - n_pronoun))
    rng.shuffle(kinds)
    return kinds


def _step_text(rng: random.Random, kind: str) -> tuple[str, str | None]:
    """A step sentence of the given kind and the pronoun it carries, if any."""
    if kind == "pronoun":
        return _pronoun_step(rng)
    if kind == "long":
        return _long_step(rng), None
    if kind == "short":
        return rng.choice(_SHORT), None
    return _plain_step(rng), None


def _branches(w: _Writer, rng: random.Random, doc: LargeDoc, letter: str,
              count: int, steps: int) -> None:
    """Write ``count`` branch flows; record their pronouns and numbering breaks."""
    for i in range(1, count + 1):
        flow_id = f"{letter}{i}"
        origin = rng.randint(1, steps)
        cond = f"{'If' if letter == 'A' else 'When'} {rng.choice(_OBJECTS)} {rng.choice(_PROBLEMS)} at step {origin}"
        header_rel = w.sentence(f"{flow_id} ", cond)
        kinds = rng.choices(("pronoun", "long", "short", "plain"), k=rng.randint(1, 3), weights=(
            PRONOUN_SHARE, LONG_SHARE, SHORT_SHARE, 1 - PRONOUN_SHARE - LONG_SHARE - SHORT_SHARE))
        body = [_step_text(rng, kind) for kind in kinds]
        closing = (f"The use case returns to step {origin}." if letter == "A"
                   else "The use case ends.")
        body.append((closing, None))
        numbers = list(range(1, len(body) + 1))
        if rng.random() < UNORDERED_BRANCH_RATE:
            skip = rng.randint(2, len(body))
            numbers = [n if n < skip else n + 1 for n in numbers]
            doc.unordered.append((w.section, header_rel, f"{w.section.split()[0]}FlowsOrdered?",
                                  f"{flow_id}.{numbers[skip - 1]}"))
        for n, (text, pron) in zip(numbers, body):
            rel = w.sentence(f"{flow_id}.{n} ", text)
            if pron:
                doc.pronouns.append((w.section, rel, pron))
        doc.branch_steps += len(body)


def generate(seed: int, steps: int) -> LargeDoc:
    """Build one document of ``steps`` basic-flow steps from ``seed``."""
    if steps < 20:
        raise ValueError("a large document needs at least 20 basic-flow steps")
    rng = random.Random(f"{seed}:{steps}")
    doc = LargeDoc(seed=seed, steps=steps, text="")
    w = _Writer()
    w.lines += [f"Name: Process batch {seed}-{steps}",
                "Overview: An operator processes a batch of records at the back office.",
                "Actors:", "Operator - A clerk of the back office"]
    w.header(SECTION_PRE)
    w.sentence("", "The operator opened the batch console.")
    w.header(SECTION_POST)
    w.sentence("", "The system stored every record of the batch.")

    w.header(SECTION_BASIC)
    brk = rng.randint(10, steps - 1)
    for i, kind in enumerate(_step_kinds(rng, steps), 1):
        text, pron = _step_text(rng, kind)
        rel = w.sentence(f"{i if i < brk else i + 1}. ", text)
        if pron:
            doc.pronouns.append((SECTION_BASIC, rel, pron))
    doc.unordered.append((SECTION_BASIC, 1, "BasicFlowOrdered?", str(brk + 1)))

    w.header(SECTION_ALT)
    _branches(w, rng, doc, "A", ALTERNATE_FLOWS, steps)
    w.header(SECTION_EXC)
    _branches(w, rng, doc, "E", EXCEPTION_FLOWS, steps)

    _settle_distribution(w, doc)
    doc.text = "\n".join(w.lines) + "\n"
    return doc


def _settle_distribution(w: _Writer, doc: LargeDoc) -> None:
    """Find the long and short sentences by mean +/- k * sample stddev.

    A length within rounding distance of a threshold would make the outcome
    depend on how the mean is summed, so the postcondition grows by a word
    until no length sits that close.
    """
    while True:
        lengths = [len(s[2]) for s in w.sentences]
        n = len(lengths)
        mean = math.fsum(lengths) / n
        stddev = math.sqrt(math.fsum((x - mean) ** 2 for x in lengths) / (n - 1))
        hi, lo = mean + STDDEV_K * stddev, mean - STDDEV_K * stddev
        if all(abs(x - t) > 1e-6 for x in set(lengths) for t in (hi, lo)):
            break
        section, rel, text, index, prefix = w.sentences[1]  # the postcondition
        text = text[:-1] + " again."
        w.sentences[1] = (section, rel, text, index, prefix)
        w.lines[index] = prefix + text
    doc.mean, doc.stddev = mean, stddev
    for section, rel, text, _, _ in w.sentences:
        if len(text) > hi:
            doc.length_outliers.append(("long-sentence", section, rel))
        elif len(text) < lo:
            doc.length_outliers.append(("short-sentence", section, rel))


def write(doc: LargeDoc, out: Path) -> Path:
    """Write the document, its oracle and its expected findings; return the .ucd path."""
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"large-{doc.steps}-s{doc.seed}"
    ucd = stem.with_suffix(".ucd")
    ucd.write_text(doc.text, encoding="utf-8")
    stem.with_suffix(".oracle.json").write_text(json.dumps(doc.oracle(), indent=1) + "\n")
    expected = {
        "mean": doc.mean,
        "stddev": doc.stddev,
        "pronouns": doc.pronouns,
        "unordered": doc.unordered,
        "length_outliers": doc.length_outliers,
    }
    stem.with_suffix(".expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return ucd


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--steps", type=int, nargs="+", default=[1000])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    for steps in args.steps:
        print(write(generate(args.seed, steps), args.out))


if __name__ == "__main__":
    main()
