"""The batch entry points: Hypothesis parity and ABI fuzz.

``NativeEngine.scan_batch`` / ``align_batch`` pack a whole batch into one
code buffer per side plus int64 offsets and cross into C once
(``_native.scan_many`` / ``align_many``). Two things are pinned here:

* **parity** — random *mixed* batches (codable pairs next to ones the C
  path cannot take) come back bit-identical to the pure backend, in input
  order, across the multiword and window-geometry boundaries;
* **the ABI** — the C side owns caller-supplied buffers, so every malformed
  direct call must raise ``ValueError`` instead of reading out of bounds.
  CI's ``native-sanitizers`` job runs this file under ASan + UBSan.

Skipped when the extension is not built.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.scoring import TracebackConfig
from repro.engine import NativeEngine, PurePythonEngine

pytestmark = pytest.mark.skipif(
    not kernels.native_available(),
    reason="repro.core._native is not built",
)

NATIVE = NativeEngine()
PURE = PurePythonEngine()
CONFIGS = [TracebackConfig(), TracebackConfig(affine=False)]

# Texts: plain, with the wildcard / an out-of-alphabet character / a
# latin-1 high byte (all legal: they match nothing), and with a non-latin-1
# character, which the byte codec cannot carry at all.
text_st = st.one_of(
    st.text(alphabet="ACGT", max_size=100),
    st.text(alphabet="ACGTNx\xe9", max_size=100),
    st.text(alphabet="ACGTΔ", max_size=100),
)
# Patterns: anything up to two words and a bit, plus the exact lengths
# where the word count changes.
pattern_st = st.one_of(
    st.text(alphabet="ACGTN", min_size=1, max_size=130),
    st.sampled_from([63, 64, 65, 128, 129]).flatmap(
        lambda length: st.text(
            alphabet="ACGT", min_size=length, max_size=length
        )
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(st.tuples(text_st, pattern_st), max_size=40),
    k=st.one_of(st.integers(0, 8), st.integers(0, 133)),
    first=st.booleans(),
)
def test_scan_batch_bit_identical_to_pure(pairs, k, first):
    assert NATIVE.scan_batch(pairs, k, first_match_only=first) == (
        PURE.scan_batch(pairs, k, first_match_only=first)
    )


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            text_st,  # texts run out (and may be empty) under long reads
            st.text(alphabet="ACGTN", max_size=150),  # ends mid-window
        ),
        max_size=12,
    ),
    window_size=st.sampled_from([8, 63, 64]),
    overlap_frac=st.floats(min_value=0.0, max_value=0.99),
    config=st.sampled_from(CONFIGS),
)
def test_align_batch_bit_identical_to_pure(
    pairs, window_size, overlap_frac, config
):
    geometry = {
        "window_size": window_size,
        "overlap": int(window_size * overlap_frac),
        "config": config,
    }
    assert NATIVE.align_batch(pairs, **geometry) == (
        PURE.align_batch(pairs, **geometry)
    )


# ----------------------------------------------------------------------
# Direct calls with malformed arguments
# ----------------------------------------------------------------------

def q(*values):
    return array("q", values)


# Two pairs in DNA codes, packed the way kernels.py packs them.
PAIRS = [("ACGT", "AC"), ("GG", "T")]
TEXT, TEXT_OFFSETS = bytes([0, 1, 2, 3, 2, 2]), q(0, 4, 6)
PATTERN, PATTERN_OFFSETS = bytes([0, 1, 3]), q(0, 2, 3)
PROGRAM = bytes([0, 1, 2, 3])
GEOMETRY = {"window_size": 64, "overlap": 24, "config": TracebackConfig()}


def pure_scans(first_match_only):
    return [
        [(match.start, match.distance) for match in matches]
        for matches in PURE.scan_batch(
            PAIRS, 1, first_match_only=first_match_only
        )
    ]


def pure_alignments():
    return [
        (alignment.cigar.ops, alignment.text_consumed)
        for alignment in PURE.align_batch(PAIRS, **GEOMETRY)
    ]


MALFORMED_BATCHES = {
    "offsets_do_not_start_at_0": dict(text_offsets=q(1, 4, 6)),
    "offsets_decrease": dict(
        text_offsets=q(0, 5, 4, 6), pattern_offsets=q(0, 1, 2, 3)
    ),
    "offsets_stop_short_of_the_buffer": dict(text_offsets=q(0, 4, 5)),
    "offsets_pass_the_buffer": dict(text_offsets=q(0, 4, 7)),
    "offset_far_past_the_buffer": dict(text_offsets=q(0, 2**62, 6)),
    "negative_offset": dict(pattern_offsets=q(0, -1, 3)),
    "offset_arrays_of_different_length": dict(pattern_offsets=q(0, 3)),
    "offsets_not_a_multiple_of_8_bytes": dict(text_offsets=bytes(17)),
    "offsets_empty": dict(text_offsets=b""),
    "text_code_above_n_symbols": dict(text=bytes([0, 1, 2, 5, 2, 2])),
    "empty_pattern": dict(pattern_offsets=q(0, 3, 3)),
    "n_symbols_zero": dict(n_symbols=0),
    "n_symbols_255": dict(n_symbols=255),
}


def batch_arguments(**overrides):
    arguments = dict(
        text=TEXT,
        text_offsets=TEXT_OFFSETS,
        pattern=PATTERN,
        pattern_offsets=PATTERN_OFFSETS,
        n_symbols=4,
    )
    arguments.update(overrides)
    return tuple(arguments.values())


def test_well_formed_direct_calls_answer():
    """The fixture the malformed cases each break in one place."""
    native = kernels._native
    assert native.scan_many(*batch_arguments(), 1, False) == pure_scans(False)
    assert native.align_many(*batch_arguments(), 64, 24, 8, PROGRAM) == (
        pure_alignments()
    )
    assert native.scan_many(b"", q(0), b"", q(0), 4, 1, False) == []
    assert native.align_many(b"", q(0), b"", q(0), 4, 64, 24, 8, PROGRAM) == []


@pytest.mark.parametrize("case", MALFORMED_BATCHES)
def test_malformed_batches_raise_value_error(case):
    arguments = batch_arguments(**MALFORMED_BATCHES[case])
    with pytest.raises(ValueError):
        kernels._native.scan_many(*arguments, 1, False)
    with pytest.raises(ValueError):
        kernels._native.align_many(*arguments, 64, 24, 8, PROGRAM)


def test_scan_many_rejects_negative_k():
    with pytest.raises(ValueError, match="non-negative"):
        kernels._native.scan_many(*batch_arguments(), -1, False)


@pytest.mark.parametrize(
    "window_size, overlap",
    [(0, 0), (65, 24), (-1, 0), (8, 8), (8, 9), (8, -1)],
)
def test_align_many_rejects_bad_window_geometry(window_size, overlap):
    with pytest.raises(ValueError, match="window_size|overlap"):
        kernels._native.align_many(
            *batch_arguments(), window_size, overlap, 8, PROGRAM
        )


def test_foreign_pattern_code_is_reported_not_run():
    """A pattern code above the wildcard's marks a pair for the pure path."""
    arguments = batch_arguments(pattern=bytes([0, 5, 3]))
    assert kernels._native.scan_many(*arguments, 1, False) == [
        None,
        pure_scans(False)[1],
    ]
    assert kernels._native.align_many(*arguments, 64, 24, 8, PROGRAM) == [
        None,
        pure_alignments()[1],
    ]


def test_unaligned_offset_buffers_are_read_safely():
    """Offsets are int64 *values*; the buffer holding them may sit anywhere."""
    shifted = memoryview(b"\x00" + TEXT_OFFSETS.tobytes())[1:]
    arguments = batch_arguments(text_offsets=shifted)
    assert kernels._native.scan_many(*arguments, 1, True) == pure_scans(True)


def test_every_entry_point_rejects_a_text_code_above_n_symbols():
    """Such a code indexes a mask row ``build_masks`` never wrote."""
    native = kernels._native
    with pytest.raises(ValueError, match="text code at position 0"):
        native.scan_many(b"\xff\x00", q(0, 2), b"\x00\x01", q(0, 2), 4, 1, False)
    with pytest.raises(ValueError, match="text code at position 0"):
        native.align_many(
            b"\xff\x00\x01", q(0, 3), b"\x00\x01", q(0, 2), 4, 64, 24, 8, PROGRAM
        )
    with pytest.raises(ValueError, match="text code at position 0"):
        native.dc_window(b"\xff\x00", b"\x00\x01", 4, 8)
    edit_distance, k, history = native.dc_window(b"\x00\x01", b"\x00\x01", 4, 8)
    with pytest.raises(ValueError, match="text code at position 1"):
        native.traceback(
            history, b"\x00\x05", b"\x00\x01", 4, k, edit_distance, 8, PROGRAM
        )


def test_traceback_checks_the_history_size_without_overflow():
    native = kernels._native
    edit_distance, k, history = native.dc_window(b"\x00\x01", b"\x00\x01", 4, 8)
    assert native.traceback(
        history, b"\x00\x01", b"\x00\x01", 4, k, edit_distance, 2**62, PROGRAM
    ) == ("MM", 2, 2, 0)
    for bad_k in (k + 1, 2**62, 2**63 - 1):
        with pytest.raises(ValueError, match="history size"):
            native.traceback(
                history, b"\x00\x01", b"\x00\x01", 4, bad_k, 0, 8, PROGRAM
            )
