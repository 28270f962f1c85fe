"""Unit tests for seeding and candidate-location voting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.prefilter import GenAsmFilter
from repro.mapping.index import KmerIndex
from repro.mapping.pipeline import ReadMapper
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


# ----------------------------------------------------------------------
# The edges of seed_core's lookup blocks
# ----------------------------------------------------------------------

#: Seeds a strand's lookups run side by side in (SEED_BLOCK in _native.c).
SEED_BLOCK = 16


def block_reference():
    """Random DNA around the places a lookup block finds awkward: runs of A
    and of T (at k >= 8 their k-mers sit at directory prefixes 0 and
    2**16 - 1), 300 units of eight A's and seven random bases (one
    prefix-0 bucket of many codes) and an AC repeat whose k-mers occur
    ~1,000 times each (masked at the default max_occurrences, one large
    hit list without it)."""
    from tests.conftest import random_dna

    rng = random.Random(81)
    units = "".join("A" * 8 + random_dna(7, rng) for _ in range(300))
    return Genome("blocks", "".join([
        random_dna(6_000, rng), "A" * 80, random_dna(2_000, rng), "T" * 80,
        random_dna(2_000, rng), units, random_dna(2_000, rng), "AC" * 1_000,
        random_dna(12_000, rng),
    ]))


BLOCK_REFERENCE = block_reference()
POLY_A, POLY_T, UNITS, AC_REPEAT, TAIL = 6_000, 8_080, 10_160, 16_660, 18_660


def block_reads(k):
    """Reads on and across the block's edges at stride k, named."""
    rng = random.Random(82 + k)
    sequence = BLOCK_REFERENCE.sequence

    def cut(start, length, error_rate=0.0):
        read = sequence[start : start + length]
        return mutate(read, MutationProfile(error_rate), rng=rng).sequence

    reads = {"short": cut(1_000, k - 1), "one_seed": cut(1_000, k)}
    for seeds in (SEED_BLOCK - 1, SEED_BLOCK, SEED_BLOCK + 1, 2 * SEED_BLOCK + 1):
        # The fewest and the most symbols with that many seeds.
        for length in (seeds * k, seeds * k + k - 1):
            start = rng.randrange(len(sequence) - length)
            reads[f"seeds{seeds}_{length}"] = cut(start, length, 0.03)
    broken = list(cut(TAIL + 1_000, 20 * k))
    for seed in (3, SEED_BLOCK - 1, SEED_BLOCK + 2):  # inside, last, next block
        broken[seed * k + k // 2] = "N"
    reads["n_in_blocks"] = "".join(broken)
    reads["no_seed_in_a_block"] = "N" * (SEED_BLOCK * k) + cut(TAIL + 3_000, 5 * k)
    reads["all_a"] = "A" * (SEED_BLOCK * k + 3)
    reads["all_t"] = "T" * (SEED_BLOCK * k + 3)
    reads["poly_a_edges"] = cut(POLY_A - 7 * k, 17 * k)
    reads["poly_t_edges"] = cut(POLY_T - 9 * k, 17 * k, 0.03)
    reads["units"] = cut(UNITS + 600, 300)  # seeds at unit starts at k = 15
    reads["ac_repeat"] = cut(AC_REPEAT + 300, 17 * k)
    reads["ac_repeat_edge"] = cut(AC_REPEAT - 5 * k, 17 * k, 0.03)
    reads["long"] = cut(TAIL + 500, 10_000)
    reads["long_noisy"] = cut(TAIL + 1_500, 10_000, 0.05)
    reads["long_over_units_and_repeat"] = cut(UNITS, 10_000, 0.01)
    return [(name, read) for name, read in reads.items()]


#: (k, max_occurrences): the AC repeat masked, and a large hit list with
#: the units in one prefix-0 bucket of up to 2**14 codes.
BLOCK_INDEXES = [(11, 128), (15, 128), (15, 100_000)]


@pytest.fixture(scope="module", params=BLOCK_INDEXES, ids=str)
def block_index(request):
    k, max_occurrences = request.param
    return KmerIndex.build(BLOCK_REFERENCE, k=k, max_occurrences=max_occurrences)


@pytest.mark.skipif(
    not kernels.native_available(), reason="repro.core._native is not built"
)
class TestSeedBlockEdges:
    """Native seeding equals the pure loop, and map_many the staged path
    with pure seeding, on reads whose seeds fall on, one short of and one
    past a lookup block, span many blocks, are broken by N inside a block
    or are all A or all T, over buckets that are large or masked."""

    def test_the_index_has_the_awkward_buckets(self, block_index):
        sequence = BLOCK_REFERENCE.sequence
        assert sequence[POLY_A : POLY_A + 80] == "A" * 80
        assert sequence[POLY_T : POLY_T + 80] == "T" * 80
        assert sequence[UNITS : UNITS + 8] == sequence[UNITS + 15 : UNITS + 23]
        assert sequence[AC_REPEAT : AC_REPEAT + 2_000] == "AC" * 1_000
        assert len(sequence) - TAIL == 12_000
        index, k = block_index, block_index.k
        assert len(index.lookup("A" * k)) >= 60  # directory prefix 0
        assert len(index.lookup("T" * k)) >= 60  # prefix 2**16 - 1
        assert index.directory[1] - index.directory[0] >= 50  # the units
        repeat = index.lookup(("AC" * k)[:k])
        if index.max_occurrences == 128:
            assert repeat == [] and index.masked_seeds >= 2
        else:
            assert len(repeat) >= 900

    def test_seed_many_equals_the_pure_loop(self, block_index):
        reads = [read for _, read in block_reads(block_index.k)]
        short = [read for read in reads if len(read) < 1_000]
        for batch, stride in ((reads, None), (short, 1), (short, 5)):
            options = dict(max_candidates=16, stride=stride)
            native = candidate_locations_batch(batch, block_index, **options)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "_native", None)
                assert native == candidate_locations_batch(
                    batch, block_index, **options
                )

    def test_map_many_equals_the_staged_path(self, block_index):
        reads = block_reads(block_index.k)
        one_call = ReadMapper(
            genome=BLOCK_REFERENCE, index=block_index,
            prefilter=GenAsmFilter(10), engine="native",
        )
        staged = one_call.with_engine("native")
        staged._genasm = None  # the staged path, on the native batch kernels
        with pytest.MonkeyPatch.context() as patch:
            # The staged path seeds in the pure loop.
            patch.setattr(kernels, "native_seed_many", lambda *a, **kw: None)
            expected = staged.map_reads(reads)
            patch.setattr(one_call, "_map_staged", None)  # C must answer
            got = one_call.map_reads(reads)
        assert got == expected
        assert one_call.stats == staged.stats
        mapped = {result.record.query_name for result in got if result.alignment}
        assert {"one_seed", "poly_a_edges", "long", "units"} <= mapped
