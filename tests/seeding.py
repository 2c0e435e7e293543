"""Generator for the seeded-smell regression suite.

Builds a family of use case description texts from three clean base
documents (web shop, ATM, library). Each seeded document applies one
mutation that plants a known detectable smell; the manifest records
which smell each document carries so recall can be measured exactly.
The unmutated bases double as the clean complement: they must produce
zero findings.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field


@dataclass
class SeededDoc:
    name: str
    text: str
    expected_smells: list[str] = field(default_factory=list)


# --- clean base documents -------------------------------------------------

_SHOP = {
    "name": "Search for product",
    "overview": "A registered customer searches the shop catalogue for a product.",
    "actors": ["Customer - A registered visitor of the shop"],
    "preconditions": ["The customer opened the search page of the shop."],
    "postconditions": ["The system displayed the products of the search."],
    "basic": [
        "The customer types a query in the search box.",
        "The customer presses the search button on the page.",
        "The system searches the catalogue for the products.",
        "The system displays the found products on a result page.",
    ],
    "alternates": [
        {
            "condition": "If the query contains under three characters at step 2",
            "body": [
                "The system displays a warning message on the search page.",
                "The use case returns to step 1 of the basic flow.",
            ],
        }
    ],
    "exceptions": [
        {
            "condition": "When the catalogue database rejects the connection at step 3",
            "body": [
                "The system displays an error page to the customer.",
                "The use case ends without a search result.",
            ],
        }
    ],
}

_ATM = {
    "name": "Withdraw cash with the ATM",
    "overview": "A customer withdraws cash from a bank account at the machine.",
    "actors": ["Customer - A holder of a cash card"],
    "preconditions": ["The customer holds a cash card of the bank."],
    "postconditions": ["The bank account shows the balance after the withdrawal."],
    "basic": [
        "The customer inserts the cash card into the reader.",
        "The system prompts for the secret code of the card.",
        "The customer enters the secret code on the keypad.",
        "The system verifies the code with the bank host.",
        "The customer enters the amount on the keypad.",
        "The system ejects the cash card from the reader.",
        "The customer takes the cash from the tray.",
    ],
    "alternates": [
        {
            "condition": "If the account lacks the funds for the payment at step 5",
            "body": [
                "The system cancels the transaction of the withdrawal.",
                "The use case returns to step 1 of the basic flow.",
            ],
        }
    ],
    "exceptions": [
        {
            "condition": "When the bank host rejects the secret code at step 4",
            "body": [
                "The system keeps the cash card in the reader.",
                "The use case ends without a withdrawal.",
            ],
        }
    ],
}

_LIBRARY = {
    "name": "Borrow a book from the library",
    "overview": "A member borrows a book at the lending desk of the library.",
    "actors": ["Member - A registered reader of the library"],
    "preconditions": ["The member carries a membership card of the library."],
    "postconditions": ["The lending record keeps the date of the return."],
    "basic": [
        "The member places the book on the lending desk.",
        "The clerk scans the barcode of the membership card.",
        "The clerk scans the barcode of the book.",
        "The system stores the loan in the lending record.",
        "The clerk hands the book to the member.",
    ],
    "alternates": [
        {
            "condition": "If the loan total of the member reaches the limit at step 4",
            "body": [
                "The system shows a message on the desk screen.",
                "The use case returns to step 1 of the basic flow.",
            ],
        }
    ],
    "exceptions": [
        {
            "condition": "When the scanner misreads the barcode of the book at step 2",
            "body": [
                "The clerk enters the number by hand on the keypad.",
                "The use case ends without a loan of the book.",
            ],
        }
    ],
}

BASES = [("shop", _SHOP), ("atm", _ATM), ("library", _LIBRARY)]


# --- rendering ------------------------------------------------------------


def render(doc: dict, numbering: str = "normal") -> str:
    """Render a base dict in the plain-text fixture format."""
    lines: list[str] = []
    if "name" in doc:
        lines.append(f"Name: {doc['name']}")
    if "overview" in doc:
        lines.append(f"Overview: {doc['overview']}")
    if "actors" in doc:
        lines.append("Actors:")
        lines.extend(doc["actors"])
    if "preconditions" in doc:
        lines.append("Preconditions:")
        lines.extend(doc["preconditions"])
    if "postconditions" in doc:
        lines.append("Postconditions:")
        lines.extend(doc["postconditions"])
    if "basic" in doc:
        lines.append("Basic Flow:")
        lines.extend(_numbered(doc["basic"], numbering))
    for key, letter, title in (
        ("alternates", "A", "Alternate Flows"),
        ("exceptions", "E", "Exception Flows"),
    ):
        if key in doc:
            lines.append(f"{title}:")
            for i, flow in enumerate(doc[key], 1):
                header = f"{letter}{i}"
                if flow.get("condition"):
                    header += f" {flow['condition']}"
                lines.append(header)
                for j, sentence in enumerate(flow["body"], 1):
                    lines.append(f"{letter}{i}.{j} {sentence}")
    return "\n".join(lines) + "\n"


def _numbered(steps: list[str], mode: str) -> list[str]:
    if mode == "unnumbered":
        # Second step loses its number entirely.
        return [
            text if i == 2 else f"{i}. {text}" for i, text in enumerate(steps, 1)
        ]
    if mode == "skip":
        # Numbers jump over one value after the second step.
        return [
            f"{i if i <= 2 else i + 1}. {text}" for i, text in enumerate(steps, 1)
        ]
    if mode == "start2":
        return [f"{i}. {text}" for i, text in enumerate(steps, 2)]
    return [f"{i}. {text}" for i, text in enumerate(steps, 1)]


# --- mutations ------------------------------------------------------------

_ORIGIN_PHRASE_RE = re.compile(r"\s+at step \d+")

# Extra steps appended by word/sentence-scope seeds. Each is a single
# clause with one verb unless the seed itself needs more.
_ACTOR_STEP = "Actor checks the message on the screen."
_PRONOUN_STEP = "The system shows it to the customer on the screen."
_MULTI_ACTION_STEP = "The system checks the input and stores the value."
_REPEATED_NOUN_STEP = "The system sends the code of the code reader to the host."
_SHORT_STEP = "Stop here."
_LONG_STEP = (
    "The system writes the outcome of the request together with the date, "
    "the time, the terminal name, and the account number of the customer "
    "into the journal of the day."
)
_OVERQUALIFIED_STEP = "The system shows a large banner on the small screen."


def _append_step(doc: dict, text: str) -> None:
    doc["basic"].append(text)


def _add_modifier(sentence: str) -> str:
    for pattern, repl in ((" the ", " the new "), (" a ", " a new ")):
        if pattern in sentence:
            return sentence.replace(pattern, repl, 1)
    raise ValueError(f"no insertion point in: {sentence}")


def _seed_underqualified(doc: dict) -> None:
    """Give every sentence one modifier except the first postcondition."""
    doc["preconditions"] = [_add_modifier(s) for s in doc["preconditions"]]
    doc["basic"] = [_add_modifier(s) for s in doc["basic"]]
    for key in ("alternates", "exceptions"):
        for flow in doc[key]:
            flow["condition"] = _add_modifier(flow["condition"])
            flow["body"] = [_add_modifier(s) for s in flow["body"]]


def _duplicate_flow(doc: dict, key: str) -> None:
    doc[key].append(copy.deepcopy(doc[key][0]))


def _drop_return(flow: dict) -> None:
    flow["body"] = [
        s
        for s in flow["body"]
        if "returns to" not in s and "use case ends" not in s
    ]


# Each entry: smell id -> function(doc_dict) -> numbering mode (or None).
def _mutations():
    def unordered(doc, base_index):
        return ("unnumbered", "skip", "start2")[base_index]

    table = {
        "unordered-flow": unordered,
        "origin-free-alternate-flow": lambda d, i: d["alternates"][0].update(
            condition=_ORIGIN_PHRASE_RE.sub("", d["alternates"][0]["condition"])
        ),
        "origin-free-exception-flow": lambda d, i: d["exceptions"][0].update(
            condition=_ORIGIN_PHRASE_RE.sub("", d["exceptions"][0]["condition"])
        ),
        "actor-actor": lambda d, i: _append_step(d, _ACTOR_STEP),
        "pronoun": lambda d, i: _append_step(d, _PRONOUN_STEP),
        "multiple-alternate-flows-at-an-alternate-branch-condition": (
            lambda d, i: _duplicate_flow(d, "alternates")
        ),
        "multiple-exception-flows-at-an-exception-branch-condition": (
            lambda d, i: _duplicate_flow(d, "exceptions")
        ),
        "long-sentence": lambda d, i: _append_step(d, _LONG_STEP),
        "short-sentence": lambda d, i: _append_step(d, _SHORT_STEP),
        "sentence-with-multiple-actions": (
            lambda d, i: _append_step(d, _MULTI_ACTION_STEP)
        ),
        "relatively-over-qualified-sentence": (
            lambda d, i: _append_step(d, _OVERQUALIFIED_STEP)
        ),
        "relatively-under-qualified-sentence": (
            lambda d, i: _seed_underqualified(d)
        ),
        "repeating-the-same-noun": lambda d, i: _append_step(
            d, _REPEATED_NOUN_STEP
        ),
        "missing-name-section": lambda d, i: d.pop("name"),
        "missing-description-section": lambda d, i: d.pop("overview"),
        "missing-actor-section": lambda d, i: d.pop("actors"),
        "missing-preconditions-section": lambda d, i: d.pop("preconditions"),
        "missing-postconditions-section": lambda d, i: d.pop("postconditions"),
        "missing-alternate-flows-section": lambda d, i: d.pop("alternates"),
        "missing-exception-flows-section": lambda d, i: d.pop("exceptions"),
        "alternate-flow-without-return": lambda d, i: _drop_return(
            d["alternates"][0]
        ),
        "exception-flow-without-return": lambda d, i: _drop_return(
            d["exceptions"][0]
        ),
        "unexplained-alternate-flow": lambda d, i: d["alternates"][0].update(
            condition=None
        ),
        "unexplained-exception-flow": lambda d, i: d["exceptions"][0].update(
            condition=None
        ),
    }
    return table


def clean_documents() -> list[SeededDoc]:
    return [
        SeededDoc(name=f"clean-{base_name}", text=render(base))
        for base_name, base in BASES
    ]


def seeded_documents() -> list[SeededDoc]:
    """One document per (smell, base) pair: 24 smells x 3 bases."""
    docs: list[SeededDoc] = []
    for smell_id, mutate in _mutations().items():
        for base_index, (base_name, base) in enumerate(BASES):
            doc = copy.deepcopy(base)
            numbering = mutate(doc, base_index) or "normal"
            docs.append(
                SeededDoc(
                    name=f"seed-{smell_id}-{base_name}",
                    text=render(doc, numbering),
                    expected_smells=[smell_id],
                )
            )
    return docs


def manifest(docs: list[SeededDoc]) -> list[dict]:
    return [
        {"doc": d.name, "smell_id": smell}
        for d in docs
        for smell in d.expected_smells
    ]
