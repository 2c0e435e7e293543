import pytest

from ucsmell.model import Finding, PosTag, SourceSpan, Token, WordEvidence


def test_span_rejects_start_after_end():
    with pytest.raises(ValueError):
        SourceSpan(5, 3)
    with pytest.raises(ValueError):
        SourceSpan(1, 2)._replace(start=5)


def test_span_line_defaults_to_zero():
    assert SourceSpan(1, 2).line == 0


@pytest.mark.parametrize(
    "record, name",
    [
        (SourceSpan(1, 2, 3), "start"),
        (SourceSpan(1, 2, 3), "line"),
        (Token("it", PosTag.PRONOUN, SourceSpan(1, 3, 1)), "pos"),
        (Token("it", PosTag.PRONOUN, SourceSpan(1, 3, 1)), "surface"),
    ],
)
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)


def test_records_are_hashable():
    span = SourceSpan(1, 2, 3)
    token = Token("it", PosTag.PRONOUN, span)
    assert len({span, SourceSpan(1, 2, 3)}) == 1
    assert len({token, Token("it", PosTag.PRONOUN, SourceSpan(1, 2, 3))}) == 1


def test_record_reprs():
    assert repr(SourceSpan(1, 2, 3)) == "SourceSpan(start=1, end=2, line=3)"
    assert repr(Token("it", PosTag.PRONOUN, SourceSpan(1, 2, 3))) == (
        "Token(surface='it', pos=<PosTag.PRONOUN: 'pronoun'>, "
        "span=SourceSpan(start=1, end=2, line=3))"
    )


def test_records_compare_equal_to_plain_tuples():
    assert SourceSpan(1, 2, 3) == (1, 2, 3)
    start, end, line = SourceSpan(1, 2, 3)
    assert (start, end, line) == (1, 2, 3)


def test_equal_findings_compare_equal():
    def finding():
        return Finding(
            smell_id="pronoun",
            item_name="Basic Flow",
            metric="NOP",
            line=9,
            evidence=WordEvidence("it"),
            span=SourceSpan(10, 12, 17),
        )

    assert finding() == finding()
    assert hash(finding()) == hash(finding())
