"""Hypothesis property tests for CIGAR round trips and score algebra."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cigar import Cigar, concat_all
from repro.core.scoring import ScoringScheme

ops_text = st.text(alphabet="MSID", min_size=0, max_size=60)
schemes = st.builds(
    ScoringScheme,
    match=st.integers(min_value=0, max_value=5),
    substitution=st.integers(min_value=-8, max_value=0),
    gap_open=st.integers(min_value=-10, max_value=0),
    gap_extend=st.integers(min_value=-4, max_value=0),
)


#: The reference: valid ops are a full match of this.
_REGEX_OPS = re.compile(r"[MSID]*")


@settings(max_examples=300, deadline=None)
@given(ops=st.text(alphabet="MSIDX=\u00e9\n", max_size=40))
def test_ops_check_accepts_exactly_what_the_regex_accepts(ops):
    if _REGEX_OPS.fullmatch(ops) is not None:
        assert Cigar(ops).ops == ops
        return
    with pytest.raises(ValueError) as raised:
        Cigar(ops)
    invalid = sorted(set(ops) - set("MSID"))
    assert str(raised.value) == f"invalid CIGAR ops: {invalid}"


@settings(max_examples=150, deadline=None)
@given(ops=ops_text)
def test_string_round_trip(ops):
    cigar = Cigar(ops)
    assert Cigar.from_string(str(cigar)).ops == ops


@settings(max_examples=150, deadline=None)
@given(ops=ops_text)
def test_sam_round_trip(ops):
    cigar = Cigar(ops)
    assert Cigar.from_string(cigar.to_sam()).ops == ops


@settings(max_examples=100, deadline=None)
@given(ops=ops_text)
def test_length_identities(ops):
    cigar = Cigar(ops)
    assert cigar.reference_length + cigar.ops.count("I") == len(ops)
    assert cigar.query_length + cigar.ops.count("D") == len(ops)
    assert cigar.edit_distance + cigar.matches == len(ops)


@settings(max_examples=100, deadline=None)
@given(a=ops_text, b=ops_text, scheme=schemes)
def test_concat_score_superadditive_across_gap_joins(a, b, scheme):
    """Concatenation can merge a gap at the seam (one fewer gap-open), so
    the joint score is >= the sum of the parts, equal when no gap spans the
    boundary."""
    joint = concat_all([Cigar(a), Cigar(b)]).score(scheme)
    parts = Cigar(a).score(scheme) + Cigar(b).score(scheme)
    assert joint >= parts
    boundary_gap = a and b and a[-1] in "ID" and a[-1] == b[0]
    if not boundary_gap:
        assert joint == parts


@settings(max_examples=100, deadline=None)
@given(ops=ops_text)
def test_unit_scheme_score_is_negative_edit_distance(ops):
    cigar = Cigar(ops)
    assert cigar.score(ScoringScheme.unit()) == -cigar.edit_distance


def _runs_per_character(ops):
    """``Cigar.runs()`` as it was first written: one step per character."""
    runs = []
    for op in ops:
        if runs and runs[-1][0] == op:
            runs[-1] = (op, runs[-1][1] + 1)
        else:
            runs.append((op, 1))
    return runs


@settings(max_examples=200, deadline=None)
@given(ops=ops_text)
def test_c_speed_measures_equal_the_per_character_definitions(ops):
    """``runs`` (regex pass) and the ``str.count`` measures against the
    per-character loops they replaced, ``""`` included."""
    cigar = Cigar(ops)
    assert list(cigar.runs()) == _runs_per_character(ops)
    assert cigar.edit_distance == sum(1 for op in ops if op != "M")
    assert cigar.reference_length == sum(1 for op in ops if op in "MSD")
    assert cigar.query_length == sum(1 for op in ops if op in "MSI")


@settings(max_examples=100, deadline=None)
@given(ops=st.text(alphabet="MSIDX=m \n", max_size=30))
def test_validation_rejects_exactly_the_foreign_ops(ops):
    foreign = sorted(set(ops) - set("MSID"))
    if not foreign:
        assert Cigar(ops).ops == ops
        return
    with pytest.raises(ValueError) as caught:
        Cigar(ops)
    assert str(caught.value) == f"invalid CIGAR ops: {foreign}"
