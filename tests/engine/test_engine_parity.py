"""Property tests: the batched backend is bit-identical to the pure one.

These tests are the contract every backend must honor — distances, match
lists, stored DC bitvectors, CIGARs, and filter decisions must all match
the pure-Python reference exactly, across wildcard symbols, ``k = 0``,
ragged batch shapes, and multi-word (> 64 bp) patterns.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.core.aligner import GenAsmAligner
from repro.core.bitap import bitap_scan
from repro.core.genasm_dc import run_dc_window
from repro.core.prefilter import GenAsmFilter
from repro.engine import BatchedEngine, PurePythonEngine

# min_batch=1 forces the NumPy path even for singleton batches, so the
# vectorized kernel itself is what gets exercised.
PURE = PurePythonEngine()
BATCHED = BatchedEngine(min_batch=1)

dna_text = st.text(alphabet="ACGTN", min_size=0, max_size=48)
dna_pattern = st.text(alphabet="ACGTN", min_size=1, max_size=72)
batches = st.lists(
    st.tuples(dna_text, dna_pattern), min_size=1, max_size=10
)


def assert_windows_equal(expected, actual):
    """Semantic window parity, representation-agnostic.

    The pure backend returns SENE windows holding big-int ``R`` rows; the
    batched backend returns packed uint64 windows. Both must expose the
    same ``R`` history and derive identical traceback edge vectors at
    every (iteration, distance) cell.
    """
    assert expected.text == actual.text
    assert expected.pattern == actual.pattern
    assert expected.k == actual.k
    assert expected.edit_distance == actual.edit_distance
    assert expected.r_rows() == actual.r_rows()
    for i in range(expected.text_length):
        for d in range(expected.k + 1):
            assert expected.edge_vectors(i, d) == actual.edge_vectors(i, d)


class TestScanParity:
    @settings(max_examples=120, deadline=None)
    @given(pairs=batches, k=st.integers(min_value=0, max_value=6))
    def test_full_scan_matches_pure(self, pairs, k):
        assert BATCHED.scan_batch(pairs, k) == PURE.scan_batch(pairs, k)

    @settings(max_examples=80, deadline=None)
    @given(pairs=batches, k=st.integers(min_value=0, max_value=6))
    def test_first_match_only_matches_pure(self, pairs, k):
        batched = BATCHED.scan_batch(pairs, k, first_match_only=True)
        pure = PURE.scan_batch(pairs, k, first_match_only=True)
        assert batched == pure

    @settings(max_examples=80, deadline=None)
    @given(pairs=batches, k=st.integers(min_value=0, max_value=8))
    def test_edit_distance_matches_pure(self, pairs, k):
        batched = BATCHED.edit_distance_batch(pairs, k)
        pure = PURE.edit_distance_batch(pairs, k)
        assert batched == pure

    def test_scan_matches_scalar_kernel_directly(self):
        rng = random.Random(0xBEEF)
        pairs = [
            (
                "".join(rng.choice("ACGTN") for _ in range(rng.randint(0, 60))),
                "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 80))),
            )
            for _ in range(32)
        ]
        k = 4
        batched = BATCHED.scan_batch(pairs, k)
        for (text, pattern), matches in zip(pairs, batched):
            assert matches == bitap_scan(text, pattern, k)

    def test_k_zero_exact_matches(self):
        pairs = [("AAACGTAAA", "ACGT"), ("TTTT", "ACGT"), ("ACGTACGT", "ACGT")]
        assert BATCHED.scan_batch(pairs, 0) == PURE.scan_batch(pairs, 0)

    def test_multiword_patterns(self):
        """Patterns past 64 bp exercise the cross-word carry chain."""
        rng = random.Random(0xFACADE)
        pairs = [
            (
                "".join(rng.choice("ACGT") for _ in range(rng.randint(80, 220))),
                "".join(rng.choice("ACGT") for _ in range(rng.randint(65, 200))),
            )
            for _ in range(12)
        ]
        for k in (0, 3, 17):
            assert BATCHED.scan_batch(pairs, k) == PURE.scan_batch(pairs, k)

    @pytest.mark.parametrize("first_match_only", [False, True])
    @pytest.mark.parametrize(
        "length", [63, 64, 65, 127, 128, 129, 191, 192, 193]
    )
    def test_pattern_lengths_at_word_boundaries(self, length, first_match_only):
        """One bit more or less changes the word count, and so the carry
        chain between words; at each boundary the packed scan must equal
        the one-integer pure Bitap, on a text holding an edited copy."""
        rng = random.Random(length)
        pattern = "".join(rng.choice("ACGT") for _ in range(length))
        edited = list(pattern)
        for position in (length // 3, 2 * length // 3):
            edited[position] = "A" if edited[position] != "A" else "C"
        flank = "".join(rng.choice("ACGT") for _ in range(40))
        background = "".join(rng.choice("ACGT") for _ in range(length + 80))
        pairs = [(flank + "".join(edited) + flank, pattern), (background, pattern)]
        for k in (0, 2, 5):
            batched = BATCHED.scan_batch(
                pairs, k, first_match_only=first_match_only
            )
            assert batched == PURE.scan_batch(
                pairs, k, first_match_only=first_match_only
            )
            # Both substitutions are within k: the edited copy is found.
            assert bool(batched[0]) == (k >= 2)

    def test_large_k_crosses_strategy_cutoff(self):
        """Batches big enough to switch the kernel to the sequential chain."""
        rng = random.Random(0xD00D)
        pairs = [
            (
                "".join(rng.choice("ACGT") for _ in range(280)),
                "".join(rng.choice("ACGT") for _ in range(250)),
            )
            for _ in range(48)
        ]
        k = 37
        assert BATCHED.scan_batch(pairs, k) == PURE.scan_batch(pairs, k)

    def test_wildcard_heavy_pairs(self):
        pairs = [("NNNN", "NN"), ("ANGT", "ANGT"), ("NNNNNNN", "ACGT")]
        for k in (0, 1, 2):
            assert BATCHED.scan_batch(pairs, k) == PURE.scan_batch(pairs, k)

    def test_empty_batch(self):
        assert BATCHED.scan_batch([], 3) == []

    def test_empty_texts(self):
        pairs = [("", "ACGT"), ("ACGT", "ACGT"), ("", "GG")]
        assert BATCHED.scan_batch(pairs, 2) == PURE.scan_batch(pairs, 2)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            BATCHED.scan_batch([("ACGT", ""), ("ACGT", "A")], 1)


class TestDcWindowParity:
    @settings(max_examples=80, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.text(alphabet="ACGTN", min_size=1, max_size=64),
                st.text(alphabet="ACGTN", min_size=1, max_size=64),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_windows_match_pure(self, jobs):
        for expected, actual in zip(
            PURE.run_dc_windows(jobs), BATCHED.run_dc_windows(jobs)
        ):
            assert_windows_equal(expected, actual)

    def test_windows_retire_at_their_own_distance(self):
        """One batch, distances from 0 to m: each k is that window's own."""
        jobs = [
            ("A" * 40, "T" * 40),  # every row up to m
            ("ACGT" * 10, "ACGT" * 10),  # retires at row 0
            ("AC", "TG"),  # short pattern, short text
            ("ACGTTGCA" * 8, "ACGTGCA" * 8),  # a full word, a few edits
        ]
        windows = BATCHED.run_dc_windows(jobs)
        assert [window.k for window in windows][:3] == [40, 0, 2]
        for (text, _), expected, actual in zip(
            jobs, PURE.run_dc_windows(jobs), windows
        ):
            assert_windows_equal(expected, actual)
            assert actual.k == actual.edit_distance
            assert actual.r_words.shape[:2] == (len(text) + 1, actual.k + 1)

    def test_matches_scalar_kernel_directly(self):
        jobs = [("ACGTTGCA", "ACGTGCA"), ("GGGG", "GGG"), ("TTTTT", "TATAT")]
        for (text, pattern), window in zip(jobs, BATCHED.run_dc_windows(jobs)):
            assert_windows_equal(run_dc_window(text, pattern), window)

    def test_empty_text_raises_like_pure(self):
        from repro.core.genasm_dc import WindowUnalignableError

        with pytest.raises(WindowUnalignableError):
            BATCHED.run_dc_windows([("ACGT", "ACGT"), ("", "ACGT")])

    def test_packed_windows_are_zero_copy_views(self):
        """Batched SENE windows wrap views of the batch history store."""
        np = pytest.importorskip("numpy")
        jobs = [("ACGTTGCA", "ACGTGCA")] * 9
        windows = BATCHED.run_dc_windows(jobs)
        for window in windows:
            assert isinstance(window.r_words, np.ndarray)
            assert window.r_words.base is not None  # a view, not a copy


class TestAlignerParity:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.text(alphabet="ACGT", min_size=0, max_size=90),
                st.text(alphabet="ACGT", min_size=1, max_size=80),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_align_batch_cigars_match_pure(self, pairs):
        pure_aligner = GenAsmAligner(engine=PURE)
        batched_aligner = GenAsmAligner(engine=BATCHED)
        expected = [pure_aligner.align(t, p) for t, p in pairs]
        actual = batched_aligner.align_batch(pairs)
        for exp, act in zip(expected, actual):
            assert str(exp.cigar) == str(act.cigar)
            assert exp.edit_distance == act.edit_distance
            assert exp.text_consumed == act.text_consumed


class TestFilterParity:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(dna_text, st.text(alphabet="ACGTN", max_size=40)),
            min_size=1,
            max_size=12,
        ),
        threshold=st.integers(min_value=0, max_value=8),
    )
    def test_decisions_match_pure(self, pairs, threshold):
        pure_filter = GenAsmFilter(threshold, engine=PURE)
        batched_filter = GenAsmFilter(threshold, engine=BATCHED)
        assert batched_filter.decide_batch(pairs) == pure_filter.decide_batch(
            pairs
        )

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(dna_text, st.text(alphabet="ACGTN", max_size=40)),
            min_size=1,
            max_size=12,
        ),
        threshold=st.integers(min_value=0, max_value=8),
    )
    def test_accepts_batch_agrees_with_decide_batch(self, pairs, threshold):
        batched_filter = GenAsmFilter(threshold, engine=BATCHED)
        decisions = batched_filter.decide_batch(pairs)
        verdicts = batched_filter.accepts_batch(pairs)
        assert verdicts == [decision.accepted for decision in decisions]
