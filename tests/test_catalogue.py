from collections import Counter

import pytest

from ucsmell.catalogue import by_id, catalogue, detectable_ids, smell_space_cell
from ucsmell.model import Characteristic, Scope


def test_total_count():
    assert len(catalogue()) == 60


def test_detectable_count():
    assert sum(1 for e in catalogue() if e.detectable) == 24
    assert len(detectable_ids()) == 24


def test_star_count():
    assert sum(1 for e in catalogue() if "star" in e.origin_flags) == 6


def test_ids_unique():
    ids = [e.id for e in catalogue()]
    assert len(ids) == len(set(ids))


def test_each_entry_in_exactly_one_cell():
    for e in catalogue():
        assert e.cell == (e.characteristic, e.scope)
        assert e in smell_space_cell(*e.cell)
        # ... and in no other cell
        for c in Characteristic:
            for s in Scope:
                if (c, s) != e.cell:
                    assert e not in smell_space_cell(c, s)


@pytest.mark.parametrize(
    "characteristic,scope,expected",
    [
        (Characteristic.AMBIGUITY, Scope.SECTION, 3),
        (Characteristic.GRANULARITY, Scope.SENTENCE, 5),
        (Characteristic.LACK, Scope.SECTION, 7),
        (Characteristic.LACK, Scope.SENTENCE, 6),
    ],
)
def test_cell_sizes(characteristic, scope, expected):
    assert len(smell_space_cell(characteristic, scope)) == expected


def test_cells_partition_catalogue():
    sizes = Counter(e.cell for e in catalogue())
    assert sum(sizes.values()) == 60


def test_by_id_lookup():
    entry = by_id("pronoun")
    assert entry.name == "Pronoun"
    assert entry.characteristic is Characteristic.AMBIGUITY
    assert entry.scope is Scope.WORD
    assert entry.detectable


def test_by_id_unknown_raises():
    with pytest.raises(KeyError):
        by_id("no-such-smell")


def test_detectable_entries_have_rules_text():
    for e in catalogue():
        assert e.symptom
        assert e.how_to_detect


def test_catalogue_sorted_by_cell():
    entries = catalogue()
    keys = [(e.characteristic.value, e.scope.value, e.name) for e in entries]
    assert keys == sorted(keys)


def test_catalogue_submodule_is_not_shadowed():
    import ucsmell.catalogue as c

    assert c.by_id("pronoun").id == "pronoun"
    from ucsmell import catalogue as module

    assert module is c
