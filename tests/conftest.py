import pathlib
import sys

import pytest

# The test helpers (seeding) and the benchmark's document generator
# (largedoc) are imported by name.
sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))

from ucsmell import DetectorConfig, load_lexicon, parse_text

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def default_config():
    return DetectorConfig()


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def parse_fixture(name: str):
    doc, diags = parse_text((FIXTURES / name).read_text("utf-8"))
    assert doc is not None, diags
    return doc, diags


@pytest.fixture()
def atm_doc():
    return parse_fixture("atm.ucd")[0]


@pytest.fixture()
def clean_doc():
    return parse_fixture("clean.ucd")[0]


@pytest.fixture()
def search_doc():
    return parse_fixture("search.ucd")[0]
