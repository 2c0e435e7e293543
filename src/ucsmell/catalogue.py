"""The bad-smell catalogue: 60 smell types over a Characteristic x Scope grid.

24 entries carry detection rules (the "diamond" flag) and are implemented
by the engine; the rest are checklist metadata for manual review. Six
entries (the "star" flag) are later additions to the original catalogue.
Symptom / how-to-detect texts are metadata only and never drive detection.
"""

from __future__ import annotations

import re

from .model import Characteristic, Scope, SmellType

_A = Characteristic.AMBIGUITY
_I = Characteristic.INCORRECTNESS
_G = Characteristic.GRANULARITY
_R = Characteristic.REDUNDANCY
_L = Characteristic.LACK
_M = Characteristic.MISPLACEMENT
_C = Characteristic.INCONSISTENCY

_UC = Scope.USECASE
_SEC = Scope.SECTION
_FLOW = Scope.FLOW
_SEN = Scope.SENTENCE
_WORD = Scope.WORD

DIAMOND = "diamond"
STAR = "star"

_MANUAL = "Needs semantic or domain knowledge; review manually."


def _smell_id(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def _entry(name, characteristic, scope, symptom, how, *flags) -> SmellType:
    return SmellType(
        id=_smell_id(name),
        name=name,
        characteristic=characteristic,
        scope=scope,
        symptom=symptom,
        how_to_detect=how,
        detectable=DIAMOND in flags,
        origin_flags=frozenset(flags),
    )


_ENTRIES = [
    # --- Ambiguity / Section ---
    _entry(
        "Unordered Flow", _A, _SEC,
        "Steps of a flow are unnumbered, skip numbers, or do not start at 1, "
        "so the execution order is unclear.",
        "Check that every step carries a number, the numbers increase one by "
        "one, and the first step is numbered 1.",
        DIAMOND,
    ),
    _entry(
        "Origin-Free Exception Flow", _A, _SEC,
        "An exception flow does not say at which basic-flow step it branches "
        "off, so the reader cannot place it in the scenario.",
        "Check that each exception flow has an origin reference or a branch "
        "condition that names a basic-flow step.",
        DIAMOND,
    ),
    _entry(
        "Origin-Free Alternate Flow", _A, _SEC,
        "An alternate flow does not say at which basic-flow step it branches "
        "off, so the reader cannot place it in the scenario.",
        "Check that each alternate flow has an origin reference or a branch "
        "condition that names a basic-flow step.",
        DIAMOND,
    ),
    # --- Ambiguity / Sentence ---
    _entry(
        "Unclear Feasibility", _A, _SEN,
        "A sentence demands behavior whose feasibility cannot be judged "
        "from the description alone.",
        _MANUAL,
    ),
    _entry(
        "Origin-Free Operation Result", _A, _SEN,
        "A sentence states a result without saying which operation "
        "produced it.",
        _MANUAL,
    ),
    _entry(
        "Sentence Interpretable as Multiple Meanings", _A, _SEN,
        "A sentence admits more than one reading, so different readers may "
        "understand different behavior.",
        _MANUAL,
    ),
    # --- Ambiguity / Word ---
    _entry(
        "Pronoun", _A, _WORD,
        "A pronoun makes the referent unclear; the reader must guess which "
        "earlier word it stands for.",
        "Count pronoun tokens in each sentence; any occurrence is reported.",
        DIAMOND,
    ),
    _entry(
        "Omitted Word", _A, _WORD,
        "A word required by the sentence structure is left out, forcing the "
        "reader to reconstruct it.",
        _MANUAL,
    ),
    _entry(
        '"Actor" Actor', _A, _WORD,
        "The literal word \"actor\" is used as a subject, so when several "
        "actors exist the reader cannot tell which one is meant.",
        "Count noun occurrences of the word \"actor\" in each sentence; any "
        "occurrence is reported.",
        DIAMOND,
    ),
    _entry(
        "Unexplained Main Actor", _A, _WORD,
        "The main actor is referenced but never introduced or explained.",
        _MANUAL,
    ),
    _entry(
        "Different Concepts by Same Word", _A, _WORD,
        "One word is used for different concepts in different places.",
        _MANUAL,
    ),
    _entry(
        "Omitted Attribute", _A, _WORD,
        "A noun is missing a qualifier that is needed to identify the "
        "intended object.",
        _MANUAL,
    ),
    # --- Incorrectness / Section ---
    _entry(
        "Flow Does Not Meet Precondition", _I, _SEC,
        "A flow can run even though its stated precondition does not hold.",
        _MANUAL,
    ),
    _entry(
        "Postcondition Not Satisfied", _I, _SEC,
        "Completing the flow does not establish the stated postcondition.",
        _MANUAL,
    ),
    _entry(
        "Name Does Not Explain Content", _I, _SEC,
        "The use case name does not describe what the flows actually do.",
        _MANUAL,
    ),
    _entry(
        "Under or Over Condition", _I, _SEC,
        "Pre- or postconditions are too weak or too strong for the "
        "described behavior.",
        _MANUAL,
    ),
    _entry(
        "Much or Less Actors", _I, _SEC,
        "The Actors section lists actors that never appear in the flows, "
        "or omits ones that do.",
        _MANUAL,
    ),
    # --- Incorrectness / Sentence ---
    _entry(
        "Contradicted Sentences", _I, _SEN,
        "Two sentences state behavior that cannot both hold.",
        _MANUAL,
    ),
    _entry(
        "Behavior Ignores Condition", _I, _SEN,
        "A sentence describes behavior that disregards a stated condition.",
        _MANUAL,
    ),
    # --- Granularity / Usecase ---
    _entry(
        "Multiple Situations", _G, _UC,
        "One description bundles several distinct situations that should be "
        "separate use cases.",
        _MANUAL,
    ),
    # --- Granularity / Section ---
    _entry(
        "Multiple Exception Flows at an Exception Branch Condition", _G, _SEC,
        "Several exception flows share one branch condition; they should be "
        "merged under a single flow for readability.",
        "Group exception flows by normalized branch condition and report "
        "groups with two or more flows.",
        DIAMOND, STAR,
    ),
    _entry(
        "Multiple Alternate Flows at an Alternate Branch Condition", _G, _SEC,
        "Several alternate flows share one branch condition; they should be "
        "merged under a single flow for readability.",
        "Group alternate flows by normalized branch condition and report "
        "groups with two or more flows.",
        DIAMOND, STAR,
    ),
    _entry(
        "Multiple Roles of an Actor", _G, _SEC,
        "A single actor plays several distinct roles in the use case.",
        _MANUAL,
    ),
    _entry(
        "Multiple Actors of a Role", _G, _SEC,
        "Several named actors actually play the same role.",
        _MANUAL,
    ),
    # --- Granularity / Sentence ---
    _entry(
        "Long Sentence", _G, _SEN,
        "A sentence is relatively long compared to the others, likely "
        "packing in too much or unnecessary information; it should be "
        "split to stay understandable.",
        "Check whether the character length of the sentence exceeds a "
        "threshold computed from the distribution of sentence lengths in "
        "the description.",
        DIAMOND,
    ),
    _entry(
        "Short Sentence", _G, _SEN,
        "A sentence is relatively short compared to the others and probably "
        "omits information the reader needs.",
        "Check whether the character length of the sentence falls below a "
        "threshold computed from the distribution of sentence lengths in "
        "the description.",
        DIAMOND,
    ),
    _entry(
        "Sentence with Multiple Actions", _G, _SEN,
        "A compound sentence describes several actions at once; each step "
        "should describe one action.",
        "Count the verbs in the sentence and report it when the count "
        "reaches the configured threshold.",
        DIAMOND,
    ),
    _entry(
        "Relatively Over Qualified Sentence", _G, _SEN,
        "A sentence carries many more modifiers than its neighbors, "
        "suggesting an inconsistent level of detail.",
        "Check whether the modifier count of the sentence exceeds a "
        "threshold computed from the distribution of modifier counts in "
        "the description.",
        DIAMOND,
    ),
    _entry(
        "Relatively Under Qualified Sentence", _G, _SEN,
        "A sentence carries far fewer modifiers than its neighbors, "
        "suggesting missing detail.",
        "Check whether the modifier count of the sentence falls below a "
        "threshold computed from the distribution of modifier counts in "
        "the description.",
        DIAMOND,
    ),
    # --- Granularity / Word ---
    _entry(
        "Omitting Pre-Appeared Word", _G, _WORD,
        "A later mention shortens a term introduced earlier, blurring "
        "whether the same thing is meant.",
        _MANUAL,
    ),
    _entry(
        "Qualified Pre-Appeared Word", _G, _WORD,
        "A later mention adds qualifiers to a term introduced earlier, "
        "blurring whether the same thing is meant.",
        _MANUAL,
    ),
    # --- Redundancy / Flow ---
    _entry(
        "Multiple Flows with the Same Role", _R, _FLOW,
        "Two flows accomplish the same purpose; one of them is redundant.",
        _MANUAL, STAR,
    ),
    _entry(
        "Flow Unrelated to Postcondition", _R, _FLOW,
        "A flow does not contribute to establishing any postcondition.",
        _MANUAL, STAR,
    ),
    _entry(
        "Conditional Flow", _R, _FLOW,
        "Conditional behavior is embedded inside a flow instead of being "
        "factored into an alternate or exception flow.",
        _MANUAL, STAR,
    ),
    # --- Redundancy / Sentence ---
    _entry(
        "Repeating the Same Noun", _R, _SEN,
        "The same noun occurs several times within one sentence, making it "
        "needlessly wordy.",
        "Count occurrences of each noun per sentence and report nouns that "
        "reach the configured repetition threshold.",
        DIAMOND,
    ),
    # --- Redundancy / Word ---
    _entry(
        "Over-Qualified Word", _R, _WORD,
        "A word carries qualifiers that add no information.",
        _MANUAL,
    ),
    # --- Lack / Usecase ---
    _entry(
        "Non-Standalone Use Case", _L, _UC,
        "The description cannot be understood without reading another "
        "use case.",
        _MANUAL,
    ),
    # --- Lack / Section ---
    _entry(
        "Missing Actor Section", _L, _SEC,
        "The description has no section declaring its actors.",
        "Check whether the Actors section exists.",
        DIAMOND,
    ),
    _entry(
        "Missing Exception Flows Section", _L, _SEC,
        "The description has no section for exception flows.",
        "Check whether the Exception Flows section exists.",
        DIAMOND,
    ),
    _entry(
        "Missing Alternate Flows Section", _L, _SEC,
        "The description has no section for alternate flows.",
        "Check whether the Alternate Flows section exists.",
        DIAMOND,
    ),
    _entry(
        "Missing Preconditions Section", _L, _SEC,
        "The description has no preconditions section.",
        "Check whether the Preconditions section exists.",
        DIAMOND,
    ),
    _entry(
        "Missing Postconditions Section", _L, _SEC,
        "The description has no postconditions section.",
        "Check whether the Postconditions section exists.",
        DIAMOND,
    ),
    _entry(
        "Missing Description Section", _L, _SEC,
        "The description has no overview/description section.",
        "Check whether the Overview section exists.",
        DIAMOND,
    ),
    _entry(
        "Missing Name Section", _L, _SEC,
        "The use case has no name.",
        "Check whether the Name section exists.",
        DIAMOND,
    ),
    # --- Lack / Flow ---
    _entry(
        "Premature Exceptional Cases", _L, _FLOW,
        "Exceptional cases that the flow should handle are not described.",
        _MANUAL,
    ),
    _entry(
        "Premature Branch Condition", _L, _FLOW,
        "A branch condition does not cover all the cases that can occur.",
        _MANUAL,
    ),
    # --- Lack / Sentence ---
    _entry(
        "Exception Flow without Return", _L, _SEN,
        "An exception flow never says where control goes afterwards.",
        "Check that each exception flow has a return destination or a step "
        "matching a return phrase.",
        DIAMOND,
    ),
    _entry(
        "Unexplained Exception Flow", _L, _SEN,
        "An exception flow has no condition saying when it is executed.",
        "Check that each exception flow carries a branch condition.",
        DIAMOND,
    ),
    _entry(
        "Alternate Flow without Return", _L, _SEN,
        "An alternate flow never says where control goes afterwards.",
        "Check that each alternate flow has a return destination or a step "
        "matching a return phrase.",
        DIAMOND,
    ),
    _entry(
        "Unexplained Alternate Flow", _L, _SEN,
        "An alternate flow has no condition saying when it is executed.",
        "Check that each alternate flow carries a branch condition.",
        DIAMOND,
    ),
    _entry(
        "Incomplete System Behavior", _L, _SEN,
        "A sentence leaves out part of the behavior the system must show.",
        _MANUAL,
    ),
    _entry(
        "Incomplete System Information", _L, _SEN,
        "A sentence leaves out information the system needs or produces.",
        _MANUAL,
    ),
    # --- Lack / Word ---
    _entry(
        "Missing Action Target", _L, _WORD,
        "An action sentence omits the object the action applies to.",
        _MANUAL,
    ),
    _entry(
        "Missing Operation Procedure", _L, _WORD,
        "An operation is named without the procedure to carry it out.",
        _MANUAL,
    ),
    _entry(
        "Unknown Origin", _L, _WORD,
        "A word refers to data or an object whose origin is never stated.",
        _MANUAL,
    ),
    # --- Misplacement / Section ---
    _entry(
        "Precondition in Basic Flow", _M, _SEC,
        "A precondition is written as a step of the basic flow.",
        _MANUAL,
    ),
    _entry(
        "Postcondition in Basic Flow", _M, _SEC,
        "A postcondition is written as a step of the basic flow.",
        _MANUAL,
    ),
    _entry(
        "Exception Flow in Basic Flow", _M, _SEC,
        "Exception handling is written inline in the basic flow.",
        _MANUAL,
    ),
    _entry(
        "Alternate Flow in Basic Flow", _M, _SEC,
        "Alternative behavior is written inline in the basic flow.",
        _MANUAL,
    ),
    # --- Inconsistency / Word ---
    _entry(
        "Synonym", _C, _WORD,
        "Different words are used for the same concept in different places.",
        _MANUAL, STAR,
    ),
]

_BY_ID = {e.id: e for e in _ENTRIES}
assert len(_BY_ID) == len(_ENTRIES), "duplicate smell ids"

_SORTED = sorted(
    _ENTRIES, key=lambda e: (e.characteristic.value, e.scope.value, e.name)
)
# Frozen, so every caller may share the one set.
_DETECTABLE = frozenset(e.id for e in _ENTRIES if e.detectable)


def catalogue() -> list[SmellType]:
    """All smell types, ordered by characteristic, scope, then name."""
    return list(_SORTED)


def smell_space_cell(
    characteristic: Characteristic, scope: Scope
) -> list[SmellType]:
    """Catalogue entries in one smell-space cell; empty for unoccupied cells."""
    return [e for e in _SORTED if e.cell == (characteristic, scope)]


def by_id(smell_id: str) -> SmellType:
    try:
        return _BY_ID[smell_id]
    except KeyError:
        raise KeyError(f"unknown smell id: {smell_id!r}") from None


def detectable_ids() -> frozenset[str]:
    return _DETECTABLE
