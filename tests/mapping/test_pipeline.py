"""Unit tests for the end-to-end read mapper."""

import copy
import pickle
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.aligner import Alignment, GenAsmAligner
from repro.core.genasm_tb import _compile_order
from repro.core.prefilter import GenAsmFilter
from repro.engine import PurePythonEngine
from repro.mapping.index import KmerIndex
from repro.mapping.pipeline import (
    MappingResult,
    PipelineStats,
    ReadMapper,
    make_genasm_mapper,
)
from repro.mapping.sam import FLAG_REVERSE, SamRecord
from repro.mapping.seeding import DIAGONAL_TOLERANCE
from repro.sequences.alphabet import DNA
from repro.sequences.genome import Genome, synthesize_genome
from repro.sequences.mutate import MutationProfile, mutate
from repro.sequences.read_simulator import illumina_profile, simulate_reads
from tests.conformance.cases import CORPUS


@pytest.fixture(scope="module")
def mapper_setup():
    genome = synthesize_genome(30_000, seed=10)
    mapper = make_genasm_mapper(genome, seed_length=13, error_rate=0.10)
    reads = simulate_reads(
        genome, count=20, read_length=100, profile=illumina_profile(0.05), seed=11
    )
    return genome, mapper, reads


class TestMapping:
    def test_most_reads_map_to_origin(self, mapper_setup):
        genome, mapper, reads = mapper_setup
        correct = 0
        for read in reads:
            result = mapper.map_read(read.name, read.sequence)
            if result.record.is_mapped and abs(
                (result.record.position - 1) - read.true_start
            ) <= 15:
                correct += 1
        assert correct >= len(reads) * 0.9

    def test_reverse_strand_reads_map(self):
        genome = synthesize_genome(20_000, seed=12)
        mapper = make_genasm_mapper(genome, seed_length=13, error_rate=0.10)
        fragment = genome.region(5_000, 120)
        read = genome.alphabet.reverse_complement(fragment)
        result = mapper.map_read("rev", read)
        assert result.record.is_mapped
        assert result.reverse
        assert abs((result.record.position - 1) - 5_000) <= 15

    def test_unmappable_read_reported_unmapped(self, mapper_setup, rng):
        from tests.conftest import random_dna

        _, mapper, _ = mapper_setup
        result = mapper.map_read("junk", random_dna(60, rng))
        # Either unmapped or (rarely) a spurious low-quality hit.
        if not result.record.is_mapped:
            assert result.alignment is None

    def test_short_read_below_seed_length_unmapped(self, mapper_setup):
        _, mapper, _ = mapper_setup
        result = mapper.map_read("tiny", "ACGT")
        assert not result.record.is_mapped

    def test_stats_accumulate(self):
        genome = synthesize_genome(15_000, seed=13)
        mapper = make_genasm_mapper(genome, seed_length=13)
        reads = simulate_reads(
            genome, count=5, read_length=100, profile=illumina_profile(), seed=14
        )
        for read in reads:
            mapper.map_read(read.name, read.sequence)
        assert mapper.stats.reads == 5
        assert mapper.stats.alignments_run >= mapper.stats.mapped

    def test_prefilter_reduces_alignments(self):
        genome = synthesize_genome(
            40_000, seed=15, repeat_fraction=0.35, repeat_unit_length=300
        )
        index = KmerIndex.build(genome, k=11)
        reads = simulate_reads(
            genome, count=15, read_length=100, profile=illumina_profile(), seed=16
        )
        unfiltered = ReadMapper(genome=genome, index=index, error_rate=0.10)
        filtered = ReadMapper(
            genome=genome,
            index=index,
            error_rate=0.10,
            prefilter=GenAsmFilter(threshold=15),
        )
        for read in reads:
            unfiltered.map_read(read.name, read.sequence)
            filtered.map_read(read.name, read.sequence)
        assert filtered.stats.alignments_run <= unfiltered.stats.alignments_run
        assert filtered.stats.mapped >= unfiltered.stats.mapped * 0.9

    def test_error_rate_validation(self):
        genome = synthesize_genome(1_000, seed=17)
        index = KmerIndex.build(genome, k=11)
        with pytest.raises(ValueError):
            ReadMapper(genome=genome, index=index, error_rate=1.5)


class TestResultRecords:
    """``Alignment``, ``SamRecord`` and ``MappingResult`` are slotted,
    unfrozen value records; what stores or copies them still works."""

    @pytest.fixture
    def results(self, mapper_setup):
        genome, mapper, reads = mapper_setup
        mapped, unmapped = mapper.map_reads(
            [(reads[0].name, reads[0].sequence), ("tiny", "ACGT")]
        )
        assert mapped.record.is_mapped and not unmapped.record.is_mapped
        return mapped, unmapped

    @pytest.mark.parametrize("record_type", [Alignment, SamRecord, MappingResult])
    def test_stays_slotted_and_unfrozen(self, record_type):
        why = (
            f"{record_type.__name__} must stay @dataclass(slots=True), not "
            "frozen: the mapper builds one per read, and on CPython 3.11 a "
            "7-field frozen record costs 1.62 us to construct against 0.28 us "
            "slotted"
        )
        assert "__slots__" in vars(record_type), why
        assert record_type.__dataclass_params__.frozen is False, why

    def test_equal_after_pickle_and_deepcopy(self, results):
        for result in results:
            assert pickle.loads(pickle.dumps(result)) == result
            assert copy.deepcopy(result) == result


class TestCrossReadBatching:
    """map_reads batches candidates across reads; results must be identical
    to mapping each read alone, with identical stats."""

    @pytest.fixture(scope="class")
    def setup(self):
        genome = synthesize_genome(25_000, seed=21)
        reads = simulate_reads(
            genome,
            count=16,
            read_length=100,
            profile=illumina_profile(0.05),
            seed=22,
        )
        return genome, [(read.name, read.sequence) for read in reads]

    def test_map_reads_equals_sequential_map_read(self, setup):
        genome, pairs = setup
        sequential = make_genasm_mapper(genome, seed_length=13)
        batched = make_genasm_mapper(genome, seed_length=13)
        expected = [sequential.map_read(n, s) for n, s in pairs]
        actual = batched.map_reads(pairs)
        for exp, act in zip(expected, actual):
            assert exp.record.to_line() == act.record.to_line()
            assert exp.candidate_position == act.candidate_position
            assert exp.reverse == act.reverse
        assert sequential.stats == batched.stats

    @pytest.mark.parametrize("native_seeding", [True, False])
    def test_map_reads_equals_map_read_on_awkward_reads(
        self, setup, native_seeding, monkeypatch
    ):
        """Reverse-strand, wildcard, too-short and unmappable reads in one
        batch, through the C seeding call and through the pure loop."""
        from repro.core import kernels

        if native_seeding and not kernels.native_available():
            pytest.skip("repro.core._native is not built")
        genome, pairs = setup
        fragment = genome.region(7_000, 100)
        awkward = pairs[:6] + [
            ("rev", genome.alphabet.reverse_complement(fragment)),
            ("wild", fragment[:40] + "NNN" + fragment[43:]),
            ("tiny", "ACGT"),
            ("empty", ""),
            ("junk", "ACGT" * 20),
        ] + pairs[6:9]
        sequential = make_genasm_mapper(genome, seed_length=13, engine="pure")
        batched = make_genasm_mapper(genome, seed_length=13, engine="pure")
        if not native_seeding:
            monkeypatch.setattr(kernels, "_native", None)
        expected = [sequential.map_read(n, s) for n, s in awkward]
        assert batched.map_reads(awkward) == expected
        assert sequential.stats == batched.stats
        by_name = {result.record.query_name: result for result in expected}
        assert by_name["rev"].reverse and by_name["rev"].candidate_position == 7_000
        assert by_name["wild"].candidate_position == 7_000
        assert not by_name["tiny"].record.is_mapped
        assert not by_name["empty"].record.is_mapped

    def test_map_reads_without_prefilter(self, setup):
        genome, pairs = setup
        sequential = make_genasm_mapper(
            genome, seed_length=13, use_prefilter=False
        )
        batched = make_genasm_mapper(
            genome, seed_length=13, use_prefilter=False
        )
        expected = [sequential.map_read(n, s) for n, s in pairs]
        actual = batched.map_reads(pairs)
        for exp, act in zip(expected, actual):
            assert exp.record.to_line() == act.record.to_line()
        assert sequential.stats == batched.stats

    def test_map_reads_mixed_short_and_normal(self, setup):
        genome, pairs = setup
        mixed = [pairs[0], ("tiny", "ACGT"), pairs[1]]
        mapper = make_genasm_mapper(genome, seed_length=13)
        results = mapper.map_reads(mixed)
        assert len(results) == 3
        assert not results[1].record.is_mapped
        assert results[0].record.query_name == pairs[0][0]
        assert results[2].record.query_name == pairs[1][0]

    def test_map_reads_empty(self, setup):
        genome, _ = setup
        mapper = make_genasm_mapper(genome, seed_length=13)
        assert mapper.map_reads([]) == []
        assert mapper.stats.reads == 0

    def test_served_reads_match_map_reads(self, setup):
        """Each read a concurrent ``map_read`` request against a server
        bound to the mapper == one ``map_reads`` call, stats included."""
        import asyncio

        from repro.serving import AlignmentServer

        genome, pairs = setup
        direct = make_genasm_mapper(genome, seed_length=13)
        served = make_genasm_mapper(genome, seed_length=13)
        expected = direct.map_reads(pairs)

        async def serve():
            async with AlignmentServer(
                mapper=served, batch_size=4, flush_interval=0.001
            ) as server:
                return await asyncio.gather(
                    *(server.map_read(name, read) for name, read in pairs)
                )

        actual = asyncio.run(serve())
        for exp, act in zip(expected, actual):
            assert exp.record.to_line() == act.record.to_line()
        assert direct.stats == served.stats


class TestWithEngine:
    """with_engine: a clone over another engine that shares the reference."""

    @pytest.fixture(scope="class")
    def setup(self):
        genome = synthesize_genome(18_000, seed=41)
        reads = simulate_reads(
            genome,
            count=10,
            read_length=90,
            profile=illumina_profile(0.05),
            seed=42,
        )
        return genome, [(read.name, read.sequence) for read in reads]

    def test_clone_shares_genome_and_index_with_fresh_stats(self, setup):
        genome, pairs = setup
        mapper = make_genasm_mapper(genome, error_rate=0.10, engine="pure")
        expected = mapper.map_reads(pairs)
        engine = PurePythonEngine()
        clone = mapper.with_engine(engine)
        assert clone is not mapper
        assert clone.genome is mapper.genome
        assert clone.index is mapper.index
        assert clone.engine is engine
        assert clone.prefilter is not mapper.prefilter
        assert clone.prefilter.engine is engine
        assert clone.prefilter.threshold == mapper.prefilter.threshold
        assert clone.prefilter.alphabet is mapper.prefilter.alphabet
        assert clone.error_rate == mapper.error_rate
        assert clone.stats is not mapper.stats
        assert clone.stats == PipelineStats()
        got = clone.map_reads(pairs)
        assert [r.record.to_line() for r in got] == [
            r.record.to_line() for r in expected
        ]
        assert clone.stats == mapper.stats

    def test_clone_of_a_filterless_mapper_has_no_filter(self, setup):
        genome, pairs = setup
        mapper = make_genasm_mapper(genome, use_prefilter=False)
        clone = mapper.with_engine("pure")
        assert clone is not mapper and clone.prefilter is None
        assert clone.index is mapper.index

    def test_custom_aligner_stays_shared(self, setup):
        genome, pairs = setup
        mapper = make_genasm_mapper(genome)
        custom = ReadMapper(
            genome=genome,
            index=mapper.index,
            aligner=lambda region, read: GenAsmAligner().align(region, read),
        )
        assert custom.with_engine("pure") is custom

    def test_custom_batch_aligner_stays_shared(self, setup):
        genome, pairs = setup
        mapper = make_genasm_mapper(genome)
        genasm = GenAsmAligner()
        custom = ReadMapper(
            genome=genome,
            index=mapper.index,
            batch_aligner=lambda batch: genasm.align_batch(batch),
        )
        # A clone could not rebuild the custom batch aligner; cloning would
        # silently swap in the default one.
        assert custom.with_engine("pure") is custom

    def test_custom_prefilter_stays_shared(self, setup):
        genome, pairs = setup
        mapper = make_genasm_mapper(genome)

        class AlwaysAccept:
            def accepts(self, reference, read):
                return True

        custom = ReadMapper(
            genome=genome, index=mapper.index, prefilter=AlwaysAccept()
        )
        assert custom.with_engine("pure") is custom


# ----------------------------------------------------------------------
# The one C call (native engine) against the staged path (pure engine)
# ----------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="repro.core._native is not built"
)


def mapper_pair(genome, **options):
    """A native mapper (one C call) and a pure one (staged) sharing an index."""
    one_call = make_genasm_mapper(genome, engine="native", **options)
    staged = one_call.with_engine("pure")
    assert one_call._one_call_aligner() is not None
    assert staged._one_call_aligner() is None
    return one_call, staged


@contextmanager
def staged_batches(mapper):
    """The sizes of the batches ``mapper`` maps stage by stage meanwhile."""
    sizes = []
    map_staged = mapper._map_staged
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            mapper, "_map_staged",
            lambda reads: sizes.append(len(reads)) or map_staged(reads),
        )
        yield sizes


def assert_same_mapping(one_call, staged, reads):
    """Both paths answer ``reads`` alike, stage counters included, and
    every mapped result on either path keeps the builder's contract.
    Returns the results and the sizes of the batches ``one_call`` mapped
    stage by stage."""
    expected = staged.map_reads(reads)
    with staged_batches(one_call) as sizes:
        got = one_call.map_reads(reads)
    assert got == expected
    assert one_call.stats == staged.stats
    for result in got + expected:
        if result.alignment is None:
            continue
        record = result.record
        assert record.cigar is result.alignment.cigar
        assert record.position == result.candidate_position + 1
        assert bool(record.flag & FLAG_REVERSE) == result.reverse
    return expected, sizes


def palindrome(rng, half):
    """A sequence that is its own reverse complement."""
    from tests.conftest import random_dna

    left = random_dna(half, rng)
    return left + DNA.reverse_complement(left)


@needs_native
class TestOneCallParity:
    @pytest.fixture(scope="class")
    def genome(self):
        return synthesize_genome(12_000, seed=51)

    def test_conformance_corpus(self):
        """Every corpus case's text is a stretch of the reference and its
        pattern (and the pattern's reverse complement) a read. The 10 kbp
        case is left out: the pure filter takes half a minute over it."""
        rng = random.Random(52)
        from tests.conftest import random_dna

        pieces, reads = [], []
        for case in CORPUS:
            if len(case.pattern) > 1_000:
                continue
            pieces += [random_dna(150, rng), case.text]
            reads += [
                (case.name, case.pattern),
                (case.name + "/rc", DNA.reverse_complement(case.pattern)),
            ]
        genome = Genome("corpus", "".join(pieces) + random_dna(150, rng))
        one_call, staged = mapper_pair(genome, seed_length=8, error_rate=0.10)
        results, staged_sizes = assert_same_mapping(one_call, staged, reads)
        assert staged_sizes == []
        assert sum(result.record.is_mapped for result in results) > len(reads) // 2

    def test_awkward_reads_in_one_batch(self, genome):
        """Both genome ends (regions clamped at the right one, a read
        hanging off the left one), N, shorter than k, empty, junk."""
        sequence = genome.sequence
        reads = [
            ("first", sequence[:100]),
            ("last", sequence[-100:]),
            ("last_rc", DNA.reverse_complement(sequence[-90:])),
            ("overhang", "ACGTACGTAC" + sequence[:90]),
            ("tail_kmer", sequence[-13:]),
            ("wild", sequence[500:540] + "NNN" + sequence[543:600]),
            ("all_n", "N" * 80),
            ("tiny", "ACGT"),
            ("empty", ""),
            ("junk", "ACGT" * 20),
        ]
        one_call, staged = mapper_pair(genome, seed_length=13)
        results, staged_sizes = assert_same_mapping(one_call, staged, reads)
        assert staged_sizes == []
        by_name = {result.record.query_name: result for result in results}
        assert by_name["last"].candidate_position == len(genome) - 100
        assert by_name["last_rc"].reverse
        assert by_name["overhang"].candidate_position == 0
        assert not by_name["tiny"].record.is_mapped
        assert not by_name["empty"].record.is_mapped

    def test_batches_of_zero_one_and_many(self, genome):
        reads = simulate_reads(
            genome, count=40, read_length=100, profile=illumina_profile(0.05), seed=53
        )
        pairs = [(read.name, read.sequence) for read in reads]
        one_call, staged = mapper_pair(genome, seed_length=13)
        for batch in ([], pairs[:1], pairs):
            _, staged_sizes = assert_same_mapping(one_call, staged, batch)
            assert staged_sizes == []
        assert one_call.stats.reads == 41

    def test_without_the_prefilter(self, genome):
        reads = simulate_reads(
            genome, count=20, read_length=120, profile=illumina_profile(0.08), seed=54
        )
        one_call, staged = mapper_pair(genome, seed_length=13, use_prefilter=False)
        assert one_call.prefilter is None
        assert_same_mapping(one_call, staged, [(r.name, r.sequence) for r in reads])
        assert one_call.stats.filtered_out == 0

    def test_every_candidate_filtered_out(self, genome):
        """Threshold 0 against reads that all carry edits."""
        reads = simulate_reads(
            genome, count=12, read_length=100, profile=illumina_profile(0.10), seed=55
        )
        pairs = [
            (read.name, read.sequence)
            for read in reads
            if read.sequence not in genome.sequence
            and DNA.reverse_complement(read.sequence) not in genome.sequence
        ]
        one_call = ReadMapper(
            genome=genome,
            index=KmerIndex.build(genome, k=11),
            prefilter=GenAsmFilter(0),
            engine="native",
        )
        staged = one_call.with_engine("pure")
        results, _ = assert_same_mapping(one_call, staged, pairs)
        assert not any(result.record.is_mapped for result in results)
        assert one_call.stats.candidates == one_call.stats.filtered_out > 0

    def test_forward_and_reverse_strand_tie(self):
        """A read that is its own reverse complement scores the same on
        both strands: the forward one wins on both paths."""
        rng = random.Random(56)
        from tests.conftest import random_dna

        read = palindrome(rng, 50)
        genome = Genome("tie", random_dna(3_000, rng) + read + random_dna(3_000, rng))
        one_call, staged = mapper_pair(genome, seed_length=13)
        (result,), _ = assert_same_mapping(one_call, staged, [("tie", read)])
        assert result.candidate_position == 3_000
        assert not result.reverse
        assert one_call.stats.alignments_run == 2

    def test_foreign_character_raises_the_same_exception(self, genome):
        """C refuses the batch; the staged path raises as it always did.
        A foreign read with no candidate is answered unmapped by both: the
        staged path maps its whole batch."""
        fragment = genome.sequence[2_000:2_100]
        foreign = [("x", fragment[:50] + "X" + fragment[51:])]
        one_call, staged = mapper_pair(genome, seed_length=13)
        with pytest.raises(ValueError) as expected:
            staged.map_reads(foreign)
        with pytest.raises(ValueError) as got:
            one_call.map_reads(foreign)
        assert str(got.value) == str(expected.value)
        hopeless = [("fine", fragment), ("x", "X" * 30)]
        _, staged_sizes = assert_same_mapping(one_call, staged, hopeless)
        assert staged_sizes == [2]

    # map_many aligns a candidate before it filters it, and skips the
    # filter's sweep when the alignment is within the threshold and stops
    # short of the region's end. The tests below pin the other branches:
    # the region used up, an alignment one edit past the threshold and an
    # empty region.

    def test_regions_clamped_at_the_reference_end(self, genome):
        """Reads running past the reference's last base by 0-12 symbols:
        every region is clamped at the end. Where the overhang's last
        symbol happens to match that base the alignment uses the region up
        (t == n), so the filter's sweep decides even within the threshold;
        elsewhere the overhang is inserted before the last base. The
        overhangs past the threshold (10) are filtered out."""
        rng = random.Random(57)
        from tests.conftest import random_dna

        sequence = genome.sequence
        reads = [
            (f"over{j}", sequence[-(100 - j):] + random_dna(j, rng))
            for j in range(13)
        ]
        one_call, staged = mapper_pair(genome, seed_length=13, error_rate=0.05)
        assert one_call.prefilter.threshold == 10
        results, staged_sizes = assert_same_mapping(one_call, staged, reads)
        assert staged_sizes == []
        used_up = [
            result for result in results
            if result.record.is_mapped
            and result.alignment.text_consumed
            == len(genome) - result.candidate_position
        ]
        assert len(used_up) >= 3
        assert all(result.alignment.edit_distance <= 10 for result in used_up)
        assert [result.record.is_mapped for result in results] == (
            [True] * 10 + [False] * 3
        )
        assert one_call.stats.filtered_out == 3

    def test_alignments_one_edit_past_the_threshold(self, genome):
        """At threshold 1: a read with a symbol inserted near its start
        seeds one base early, so its alignment from the region's start
        takes a deletion too (2 edits) while the filter's distance is 1
        and it maps; a read with two substitutions aligns at 2 edits and
        is filtered out."""
        sequence = genome.sequence
        reads = []
        for start in (1_000, 3_000, 5_000):
            reads.append(
                ("insert", sequence[start : start + 5] + "G"
                 + sequence[start + 5 : start + 99])
            )
            substituted = list(sequence[start + 500 : start + 600])
            for position in (10, 40):
                substituted[position] = "A" if substituted[position] != "A" else "C"
            reads.append(("substitute", "".join(substituted)))
        one_call = ReadMapper(
            genome=genome,
            index=KmerIndex.build(genome, k=11),
            prefilter=GenAsmFilter(1),
            engine="native",
        )
        staged = one_call.with_engine("pure")
        results, staged_sizes = assert_same_mapping(one_call, staged, reads)
        assert staged_sizes == []
        for result, start in zip(results[::2], (1_000, 3_000, 5_000)):
            assert result.candidate_position == start - 1
            assert result.alignment.edit_distance == 2
        assert not any(result.record.is_mapped for result in results[1::2])
        assert one_call.stats.filtered_out >= 3

    @pytest.mark.parametrize("use_prefilter", [True, False])
    def test_empty_regions(self, genome, use_prefilter):
        """With a region length of 0 the filter rejects every candidate
        unaligned; without a filter each aligns as all insertions."""
        reads = [
            (f"r{i}", genome.region(700 * i, 100)) for i in range(1, 9)
        ]
        one_call, staged = mapper_pair(
            genome, seed_length=13, use_prefilter=use_prefilter
        )
        with pytest.MonkeyPatch.context() as patch:
            for mapper in (one_call, staged):
                patch.setattr(mapper, "_region_length", lambda length: 0)
            results, staged_sizes = assert_same_mapping(one_call, staged, reads)
        assert staged_sizes == []
        stats = one_call.stats
        assert stats.candidates >= len(reads)
        if use_prefilter:
            assert stats.filtered_out == stats.candidates
            assert stats.alignments_run == stats.mapped == 0
        else:
            assert stats.alignments_run == stats.candidates
            assert all(result.alignment.cigar.ops == "I" * 100 for result in results)

    def test_a_region_used_up_without_window_overlap(self):
        """With overlap 0 a window's walk can consume all of its text and
        all W of its pattern symbols, so the loop ends the read with
        insertions past the region's end: an alignment within the
        threshold that DC cannot place there. map_many must then run the
        filter, which rejects the read unless its last symbol matches the
        reference's last base. The mapper always overlaps its windows, so
        this calls the C directly, against a staged mapper whose aligner
        has O = 0."""
        rng = random.Random(58)
        from tests.conftest import random_dna

        genome = Genome("tail", random_dna(4_000, rng))
        tail = genome.sequence[-60:]
        index = KmerIndex.build(genome, k=11)
        assert index.reference_codes is not None
        genasm = GenAsmAligner(overlap=0, engine="pure")
        for extra in (4, 8):
            batch = [
                (f"x{last}", tail[:55] + random_dna(4, rng) + tail[55:]
                 + random_dna(extra - 1, rng) + last)
                for last in ("A" if tail[-1] != "A" else "C", tail[-1])
            ]
            staged = ReadMapper(
                genome=genome, index=index, prefilter=GenAsmFilter(4 + extra),
                aligner=genasm.align, batch_aligner=genasm.align_batch,
                engine="pure",
            )
            scoring = staged.scoring
            answer = kernels.native_map_many(
                [read for _, read in batch],
                index,
                region_lengths=[staged._region_length(len(r)) for _, r in batch],
                max_candidates=staged.max_candidates,
                diagonal_tolerance=DIAGONAL_TOLERANCE,
                threshold=4 + extra,
                window_size=genasm.window_size,
                overlap=0,
                program=_compile_order(genasm.config.order, genasm.config.affine),
                scoring=(scoring.match, scoring.substitution,
                         scoring.gap_open, scoring.gap_extend),
            )
            results = staged.map_reads(batch)
            entries = [
                (
                    result.candidate_position, result.reverse,
                    result.alignment.cigar.ops, result.alignment.text_consumed,
                    result.alignment.edit_distance,
                    result.alignment.score(scoring),
                )
                if result.record.is_mapped else ()
                for result in results
            ]
            assert answer == (
                staged.stats.candidates, staged.stats.alignments_run, entries
            )
            rejected, accepted = results
            assert not rejected.record.is_mapped
            assert accepted.candidate_position == len(genome) - 60
            assert accepted.alignment.cigar.ops.endswith("I" * extra)
            assert accepted.alignment.edit_distance == 4 + extra

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(0, 12),
        read_length=st.integers(1, 180),
        error_rate=st.sampled_from([0.0, 0.05, 0.15]),
        use_prefilter=st.booleans(),
    )
    def test_random_batches(self, seed, count, read_length, error_rate, use_prefilter):
        rng = random.Random(seed)
        genome = synthesize_genome(
            3_000, seed=seed, repeat_fraction=0.2, repeat_unit_length=150
        )
        reads = []
        for i in range(count):
            start = rng.randrange(len(genome))
            read = mutate(
                genome.region(start, read_length),
                MutationProfile(error_rate=error_rate),
                rng=rng,
            ).sequence
            if rng.random() < 0.3:
                read = DNA.reverse_complement(read)
            if read and rng.random() < 0.2:
                at = rng.randrange(len(read))
                read = read[:at] + "N" + read[at + 1 :]
            reads.append((f"r{i}", read))
        one_call, staged = mapper_pair(
            genome, seed_length=9, error_rate=0.10, use_prefilter=use_prefilter
        )
        _, staged_sizes = assert_same_mapping(one_call, staged, reads)
        assert staged_sizes == []


@needs_native
class TestStagedReads:
    def test_benchmark_shaped_reads_never_take_the_staged_path(self):
        """100 bp reads at 5 % error, k = 15, batches of 64: the traffic of
        the mapping workloads crosses into C once per batch."""
        genome = synthesize_genome(64_000, seed=61)
        reads = simulate_reads(
            genome, count=256, read_length=100, profile=illumina_profile(0.05), seed=62
        )
        pairs = [(read.name, read.sequence) for read in reads]
        mapper = make_genasm_mapper(
            genome, seed_length=15, error_rate=0.05, engine="native"
        )
        replica = mapper.with_engine("native")
        with staged_batches(mapper) as sizes, staged_batches(replica) as too:
            for start in range(0, len(pairs), 64):
                mapper.map_reads(pairs[start : start + 64])
            replica.map_reads(pairs[:64])
        assert mapper.stats.reads == 256
        assert mapper.stats.mapped > 200
        assert sizes == too == []

    def test_other_mappers_count_every_read(self):
        genome = synthesize_genome(8_000, seed=63)
        pairs = [("a", genome.region(100, 100)), ("b", genome.region(900, 100))]
        index = KmerIndex.build(genome, k=13)
        for mapper in (
            make_genasm_mapper(genome, seed_length=13, engine="pure"),
            make_genasm_mapper(genome, seed_length=13, engine="sharded"),
            ReadMapper(genome=genome, index=index, engine="native",
                       aligner=GenAsmAligner(engine="native").align),
        ):
            with staged_batches(mapper) as sizes:
                mapper.map_reads(pairs)
            assert sizes == [mapper.stats.reads] == [2]

    def test_clones_share_the_directory_and_the_coded_reference(self):
        genome = synthesize_genome(8_000, seed=64)
        mapper = make_genasm_mapper(genome, seed_length=13, engine="native")
        assert mapper.index.reference_codes is not None
        for engine in ("native", "pure"):
            clone = mapper.with_engine(engine)
            assert clone.index.directory is mapper.index.directory
            assert clone.index.reference_codes is mapper.index.reference_codes
