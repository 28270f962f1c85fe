"""Unit tests for seeding and candidate-location voting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.mapping.index import KmerIndex
from repro.mapping.seeding import (
    CandidateLocation,
    candidate_locations,
    candidate_locations_batch,
    extract_seeds,
)
from repro.sequences.genome import Genome, synthesize_genome
from repro.sequences.mutate import MutationProfile, mutate


class TestExtractSeeds:
    def test_non_overlapping_default(self):
        # Offsets step by k; the 2-base tail is too short to be a seed.
        assert extract_seeds("ACGTACGTAC", 4) == [(0, "ACGT"), (4, "ACGT")]
        offsets = [offset for offset, _ in extract_seeds("ACGTACGTACGT", 4)]
        assert offsets == [0, 4, 8]

    def test_custom_stride(self):
        offsets = [o for o, _ in extract_seeds("ACGTACGT", 4, stride=2)]
        assert offsets == [0, 2, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_seeds("ACGT", 0)
        with pytest.raises(ValueError):
            extract_seeds("ACGT", 2, stride=0)


class TestCandidateLocations:
    def test_exact_read_votes_for_origin(self):
        genome = synthesize_genome(5_000, seed=1, repeat_fraction=0.0)
        index = KmerIndex.build(genome, k=11)
        start = 1_234
        read = genome.region(start, 100)
        candidates = candidate_locations(read, index)
        assert candidates
        assert candidates[0].position == start
        assert candidates[0].votes >= 5

    def test_errors_still_yield_candidate(self, rng):
        genome = synthesize_genome(5_000, seed=2, repeat_fraction=0.0)
        index = KmerIndex.build(genome, k=11)
        start = 2_000
        read = mutate(
            genome.region(start, 150), MutationProfile(0.05), rng=rng
        ).sequence
        candidates = candidate_locations(read, index)
        assert candidates
        assert any(abs(c.position - start) < 16 for c in candidates)

    def test_unrelated_read_candidates_are_real_votes_inside_the_genome(self, rng):
        genome = synthesize_genome(3_000, seed=3)
        index = KmerIndex.build(genome, k=5)  # short seeds: chance hits happen
        from tests.conftest import random_dna

        seen = 0
        for _ in range(20):
            for candidate in candidate_locations(random_dna(100, rng), index):
                seen += 1
                assert candidate.votes >= 1
                assert 0 <= candidate.position < len(genome)
        assert seen

    def test_max_candidates_respected(self):
        genome = synthesize_genome(
            30_000, seed=4, repeat_fraction=0.4, repeat_unit_length=400
        )
        index = KmerIndex.build(genome, k=11)
        read = genome.region(100, 120)
        candidates = candidate_locations(read, index, max_candidates=3)
        assert len(candidates) <= 3

    def test_votes_sorted_descending(self):
        genome = synthesize_genome(20_000, seed=5, repeat_fraction=0.3)
        index = KmerIndex.build(genome, k=11)
        read = genome.region(500, 150)
        candidates = candidate_locations(read, index)
        votes = [c.votes for c in candidates]
        assert votes == sorted(votes, reverse=True)


class TestBatchSeeding:
    def test_batch_equals_one_read_at_a_time(self, rng):
        genome = synthesize_genome(20_000, seed=6, repeat_fraction=0.3)
        index = KmerIndex.build(genome, k=11)
        reads = [genome.region(start, 90) for start in range(0, 19_000, 700)]
        reads += ["ACGT", "", "N" * 40, genome.region(300, 11)]
        rng.shuffle(reads)
        read_ids, positions, votes = candidate_locations_batch(
            reads, index, max_candidates=4
        )
        assert read_ids == sorted(read_ids)
        for read_id, read in enumerate(reads):
            assert candidate_locations(read, index, max_candidates=4) == [
                CandidateLocation(position, count)
                for rid, position, count in zip(read_ids, positions, votes)
                if rid == read_id
            ]

    def test_empty_batch(self):
        index = KmerIndex.build(Genome("g", "ACGTACGT"), k=4)
        assert candidate_locations_batch([], index) == ([], [], [])

    def test_negative_diagonals_clamp_to_the_genome_start(self):
        """A read hanging off the left end still starts at position 0."""
        index = KmerIndex.build(Genome("g", "ACGTTGCAAGGCTTAC"), k=4)
        assert candidate_locations("GGGACGTTGCA", index, stride=1) == [
            CandidateLocation(position=0, votes=5)
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [{"stride": 0}, {"stride": -2}, {"max_candidates": -1},
         {"diagonal_tolerance": -1}],
    )
    def test_validation(self, kwargs, monkeypatch):
        index = KmerIndex.build(Genome("g", "ACGTACGT"), k=4)
        with pytest.raises(ValueError):
            candidate_locations("ACGTACGT", index, **kwargs)
        monkeypatch.setattr(kernels, "_native", None)
        with pytest.raises(ValueError):
            candidate_locations("ACGTACGT", index, **kwargs)


# Low-complexity references make repeats (masked seeds, vote ties, many
# clusters); reads are cut from the reference, mutated, or unrelated.
reference_st = st.one_of(
    st.text(alphabet="ACGT", min_size=12, max_size=400),
    st.text(alphabet="ACGTN", min_size=12, max_size=400),
    st.text(alphabet="AC", min_size=12, max_size=200),
)
read_st = st.one_of(
    st.text(alphabet="ACGT", max_size=60),
    st.text(alphabet="ACGTNx", max_size=60),
    st.text(alphabet="AC", max_size=80),
)


@pytest.mark.skipif(
    not kernels.native_available(), reason="repro.core._native is not built"
)
@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    reference=reference_st,
    k=st.integers(2, 9),
    max_occurrences=st.sampled_from([1, 3, 128]),
    stride=st.one_of(st.none(), st.integers(1, 12)),
    max_candidates=st.sampled_from([1, 3, 16]),
    diagonal_tolerance=st.sampled_from([0, 1, 8, 1000]),
)
def test_native_seeding_bit_identical_to_pure(
    data, reference, k, max_occurrences, stride, max_candidates, diagonal_tolerance
):
    index = KmerIndex.build(
        Genome("g", reference), k=k, max_occurrences=max_occurrences
    )
    cuts = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(reference) - 1), st.integers(0, 70), read_st
            ),
            max_size=8,
        )
    )
    # Each read: a junk prefix (pushes diagonals negative near the start),
    # then a slice of the reference; variable lengths, some shorter than k.
    reads = [
        junk[:3] + reference[start : start + length]
        for start, length, junk in cuts
    ] + [junk for _, _, junk in cuts[:3]]
    options = dict(
        max_candidates=max_candidates,
        diagonal_tolerance=diagonal_tolerance,
        stride=stride,
    )
    native = candidate_locations_batch(reads, index, **options)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_native", None)
        pure = candidate_locations_batch(reads, index, **options)
    assert native == pure
