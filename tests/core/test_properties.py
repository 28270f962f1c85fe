"""Hypothesis property tests on the core invariants.

These pin down the semantic relationships between the paper's algorithm and
the classical ground truths:

* Bitap (Algorithm 1) is sandwiched between infix DP and infix DP + 1
  (the all-ones initialization forbids pattern-end overhang, DESIGN.md §5),
  for patterns within one 64-bit word and wider;
* the windowed aligner always emits a transcript that is *valid* and whose
  edit count upper-bounds the global optimum;
* Myers' algorithm equals DP everywhere.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.myers import myers_global, myers_semiglobal
from repro.baselines.needleman_wunsch import (
    edit_distance_dp,
    semiglobal_distance_dp,
)
from repro.core.aligner import genasm_align
from repro.core.bitap import bitap_edit_distance
from repro.core.edit_distance import genasm_edit_distance

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)
short_dna = st.text(alphabet="ACGT", min_size=1, max_size=16)


@settings(max_examples=120, deadline=None)
@given(text=dna, pattern=short_dna)
def test_bitap_sandwiched_by_infix_dp(text, pattern):
    infix = semiglobal_distance_dp(text, pattern)
    bitap = bitap_edit_distance(text, pattern, len(pattern))
    assert bitap is not None
    assert infix <= bitap <= infix + 1


@settings(max_examples=25, deadline=None)
@given(
    text=st.text(alphabet="ACGT", min_size=1, max_size=160),
    pattern=st.text(alphabet="ACGT", min_size=63, max_size=140),
)
def test_multiword_bitap_sandwiched_by_infix_dp(text, pattern):
    """The same sandwich for patterns wider than one 64-bit word."""
    infix = semiglobal_distance_dp(text, pattern)
    bitap = bitap_edit_distance(text, pattern, len(pattern))
    assert bitap is not None
    assert infix <= bitap <= infix + 1


@settings(max_examples=100, deadline=None)
@given(a=dna, b=dna)
def test_myers_global_equals_dp(a, b):
    assert myers_global(a, b) == edit_distance_dp(a, b)


@settings(max_examples=100, deadline=None)
@given(text=dna, pattern=short_dna)
def test_myers_semiglobal_equals_infix_dp(text, pattern):
    assert myers_semiglobal(text, pattern) == semiglobal_distance_dp(text, pattern)


@settings(max_examples=80, deadline=None)
@given(text=dna, pattern=short_dna)
def test_genasm_alignment_transcript_valid(text, pattern):
    alignment = genasm_align(text, pattern)
    assert alignment.cigar.is_valid_for(text, pattern)
    assert alignment.cigar.query_length == len(pattern)
    assert alignment.text_consumed <= len(text)


@settings(max_examples=80, deadline=None)
@given(a=dna, b=dna)
def test_genasm_edit_distance_upper_bounds_dp(a, b):
    result = genasm_edit_distance(a, b)
    assert result.distance >= edit_distance_dp(a, b)
    assert result.distance <= len(a) + len(b)


@settings(max_examples=80, deadline=None)
@given(a=dna)
def test_genasm_edit_distance_identity(a):
    assert genasm_edit_distance(a, a).distance == 0


@settings(max_examples=60, deadline=None)
@given(a=dna, b=dna)
def test_genasm_edit_distance_symmetry_bound(a, b):
    """Windowed distance is not exactly symmetric (greedy direction), but
    both directions bound the same true distance from above."""
    truth = edit_distance_dp(a, b)
    assert genasm_edit_distance(a, b).distance >= truth
    assert genasm_edit_distance(b, a).distance >= truth
