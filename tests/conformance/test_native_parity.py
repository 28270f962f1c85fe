"""Hypothesis parity: the compiled kernels vs the pure reference, bitwise.

The conformance matrix (``test_conformance.py``) already runs the fixed
corpus through the ``"native"`` backend via the registry; this suite
additionally drives the compiled scan / DC / align kernels (and the
traceback walk over the DC kernel's windows) with *randomized* (text,
pattern, k) — including wildcards, out-of-alphabet text characters,
multiword patterns for the scan, and non-default window geometry —
asserting every observable result is bit-identical to the pure
kernels. Skipped entirely when the extension is not built (the pure path
is then the only implementation, and other suites cover it).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.aligner import GenAsmAligner
from repro.core.bitap import bitap_scan
from repro.core.genasm_dc import run_dc_window
from repro.core.genasm_tb import traceback_window
from repro.core.kernels import (
    native_dc_window,
    native_scan,
)
from repro.core.scoring import TracebackConfig

pytestmark = pytest.mark.skipif(
    not kernels.native_available(),
    reason="repro.core._native is not built",
)

# Texts may contain the wildcard and characters outside the alphabet
# entirely (legal: they match nothing); patterns may contain the wildcard.
text_st = st.text(alphabet="ACGTNx", max_size=120)
pattern_st = st.text(alphabet="ACGTN", min_size=1, max_size=90)
window_text_st = st.text(alphabet="ACGTN", min_size=1, max_size=63)
window_pattern_st = st.text(alphabet="ACGTN", min_size=1, max_size=63)

CONFIGS = [TracebackConfig(), TracebackConfig(affine=False)]


@settings(max_examples=120, deadline=None)
@given(
    text=text_st,
    pattern=pattern_st,
    k=st.integers(min_value=0, max_value=8),
    first=st.booleans(),
)
def test_scan_bit_identical_to_pure(text, pattern, k, first):
    pure = bitap_scan(text, pattern, k, first_match_only=first)
    native = native_scan(text, pattern, k, first_match_only=first)
    assert native is not None  # DNA + latin-1 text always runs natively
    assert native == pure


def assert_dc_window_matches_pure(text, pattern):
    pure = run_dc_window(text, pattern)
    native = native_dc_window(text, pattern)
    assert native is not None
    # Early termination: k is the edit distance, on both sides.
    assert native.k == pure.k == pure.edit_distance == native.edit_distance
    assert len(native.history) == 8 * (len(text) + 1) * (native.k + 1)
    # The packed history must decode to the reference R rows exactly.
    assert native.r_rows() == pure.r
    # Row k is the *first* hit: row k - 1 still has its MSB set at column 0.
    msb = 1 << (len(pattern) - 1)
    assert not native.r_rows()[0][native.k] & msb
    if native.k:
        assert native.r_rows()[0][native.k - 1] & msb
    return native, pure


@settings(max_examples=120, deadline=None)
@given(text=window_text_st, pattern=window_pattern_st)
def test_dc_window_history_bit_identical_to_pure(text, pattern):
    native, pure = assert_dc_window_matches_pure(text, pattern)

    # Derived traceback edges agree cell by cell on a sample of the grid.
    for text_index in range(0, native.text_length, 7):
        for distance in range(0, native.k + 1, 3):
            assert native.edge_vectors(text_index, distance) == (
                pure.edge_vectors(text_index, distance)
            )


@pytest.mark.parametrize(
    "text, pattern, distance",
    [
        ("A", "A", 0),  # n == 1
        ("A", "ACGTACGT", 8),  # n == 1 < m: no free insertions at the end
        ("ACGTACGT", "A", 0),  # m == 1
        ("ACGTACGT", "T", 1),  # m == 1, and d == m
        ("ACGT" * 16, "ACGT" * 16, 0),  # m == 64: the whole word
        ("A" * 64, "T" * 64, 64),  # m == 64 and d == m: the row pair (64, 65)
        ("ACGT" * 16, "N" * 64, 64),  # all-wildcard pattern
        ("N" * 10, "ACGTACG", 7),  # all-wildcard text, odd m
        ("AAAA", "TTTT", 4),  # d == m
    ],
)
def test_dc_window_edges(text, pattern, distance):
    native, _ = assert_dc_window_matches_pure(text, pattern)
    assert native.k == distance


def test_unalignable_message_matches_pure(monkeypatch):
    """Neither side can reach it; both must say the same thing if they do."""
    monkeypatch.setattr(kernels._native, "dc_window", lambda *args: None)
    with pytest.raises(kernels.WindowUnalignableError) as native:
        native_dc_window("ACGT", "ACG")
    assert str(native.value) == (
        "window unalignable within 3 errors (text 4 chars, pattern 3 chars)"
    )


@settings(max_examples=120, deadline=None)
@given(
    text=window_text_st,
    pattern=window_pattern_st,
    consume_limit=st.integers(min_value=1, max_value=64),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_traceback_bit_identical_to_pure(
    text, pattern, consume_limit, config_index
):
    config = CONFIGS[config_index]
    pure = traceback_window(
        run_dc_window(text, pattern),
        consume_limit=consume_limit,
        config=config,
    )
    native = traceback_window(
        native_dc_window(text, pattern),
        consume_limit=consume_limit,
        config=config,
    )
    assert native == pure


@settings(max_examples=80, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", max_size=200),
    pattern=st.text(alphabet="ACGTN", max_size=180),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_align_bit_identical_to_pure(text, pattern, config_index):
    config = CONFIGS[config_index]
    pure = GenAsmAligner(engine="pure", config=config).align(text, pattern)
    native = GenAsmAligner(engine="native", config=config).align(
        text, pattern
    )
    assert str(native.cigar) == str(pure.cigar)
    assert native.edit_distance == pure.edit_distance
    assert native.text_consumed == pure.text_consumed


@settings(max_examples=60, deadline=None)
@given(
    text=st.text(alphabet="ACGT", max_size=150),
    pattern=st.text(alphabet="ACGT", max_size=150),
    window_size=st.integers(min_value=2, max_value=80),
    overlap_frac=st.floats(min_value=0.0, max_value=0.9),
)
def test_align_parity_across_window_geometry(
    text, pattern, window_size, overlap_frac
):
    """Non-default (W, O) — including W > 64, the C kernel's fallback."""
    overlap = int(window_size * overlap_frac)
    pure = GenAsmAligner(
        engine="pure", window_size=window_size, overlap=overlap
    ).align(text, pattern)
    native = GenAsmAligner(
        engine="native", window_size=window_size, overlap=overlap
    ).align(text, pattern)
    assert str(native.cigar) == str(pure.cigar)
    assert native.text_consumed == pure.text_consumed
