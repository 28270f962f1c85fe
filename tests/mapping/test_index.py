"""Unit tests for the k-mer index."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.mapping.index import KmerIndex
from repro.sequences.alphabet import AMINO_ACIDS, DNA
from repro.sequences.genome import Genome, synthesize_genome

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="repro.core._native is not built"
)


def build_pure(monkeypatch, genome, **kwargs):
    """``KmerIndex.build`` with the extension switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_native", None)
        return KmerIndex.build(genome, **kwargs)


class TestBuild:
    def test_every_kmer_indexed(self):
        genome = Genome("g", "ACGTACGT")
        index = KmerIndex.build(genome, k=4)
        assert index.lookup("ACGT") == [0, 4]
        assert index.lookup("CGTA") == [1]

    def test_lookup_absent_seed(self):
        genome = Genome("g", "AAAAAAA")
        index = KmerIndex.build(genome, k=3)
        assert index.lookup("CCC") == []

    def test_lookup_wrong_length_rejected(self):
        index = KmerIndex.build(Genome("g", "ACGTACGT"), k=4)
        with pytest.raises(ValueError):
            index.lookup("ACG")

    def test_frequency_masking(self):
        genome = Genome("g", "A" * 100 + "CGT")
        index = KmerIndex.build(genome, k=3, max_occurrences=10)
        assert index.lookup("AAA") == []  # masked as a repeat
        assert index.masked_seeds >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            KmerIndex.build(Genome("g", "ACGT"), k=0)
        with pytest.raises(ValueError):
            KmerIndex.build(Genome("g", "AC"), k=4)

    def test_contains_and_len(self):
        index = KmerIndex.build(Genome("g", "ACGTAC"), k=3)
        assert "ACG" in index
        assert "TTT" not in index
        assert len(index) == 4  # ACG CGT GTA TAC

    def test_synthetic_genome_scale(self):
        genome = synthesize_genome(20_000, seed=0)
        index = KmerIndex.build(genome, k=15)
        assert len(index) > 15_000  # mostly unique 15-mers

    def test_lookup_returns_a_fresh_list(self):
        """The index is shared by every replica: no caller may alias it."""
        index = KmerIndex.build(Genome("g", "ACGTACGT"), k=4)
        hits = index.lookup("ACGT")
        hits.append(99)
        hits[0] = -1
        assert index.lookup("ACGT") == [0, 4]

    def test_wildcard_kmers_are_not_indexed(self):
        index = KmerIndex.build(Genome("g", "ACGNNACGTA"), k=3)
        assert "CGN" not in index and "NNA" not in index
        assert index.lookup("GNN") == []
        assert index.lookup("ACG") == [0, 5]
        assert len(index) == 3  # ACG CGT GTA: nothing spans the N run
        assert index.masked_seeds == 0

    def test_holds_at_most_24_bytes_per_reference_base(self):
        """Coded reference included; the prefix directory is a fixed
        256 KB on top, whatever the reference's length."""
        genome = synthesize_genome(100_000, seed=7)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            index = KmerIndex.build(genome, k=15)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) > 90_000
        directory = index.directory.itemsize * len(index.directory)
        assert directory == 4 * (2**16 + 1)
        assert held - before - directory <= 24 * len(genome)


class TestSeedLengthLimits:
    """k must be positive and k * bits_per_symbol must fit 64 bits."""

    def test_longest_dna_seed_is_32(self, monkeypatch):
        genome = Genome("g", "ACGT" * 20)
        assert KmerIndex.build(genome, k=32).lookup(("ACGT" * 8)) == list(
            range(0, 49, 4)
        )
        assert build_pure(monkeypatch, genome, k=32).lookup("CGTA" * 8) == list(
            range(1, 49, 4)
        )
        for build in (KmerIndex.build, lambda g, k: build_pure(monkeypatch, g, k=k)):
            with pytest.raises(ValueError, match="64-bit"):
                build(genome, k=33)

    def test_protein_seeds_take_5_bits_a_symbol(self, monkeypatch):
        genome = Genome("p", "ARNDCQEGHILKMFPSTWYV" * 2, alphabet=AMINO_ACIDS)
        seed = genome.sequence[3:15]
        for index in (
            KmerIndex.build(genome, k=12),
            build_pure(monkeypatch, genome, k=12),
        ):
            assert index.lookup(seed) == [3, 23]
        with pytest.raises(ValueError, match="64-bit"):
            KmerIndex.build(genome, k=13)

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected_on_both_paths(self, monkeypatch, k):
        genome = Genome("g", "ACGTACGT")
        with pytest.raises(ValueError, match="positive"):
            KmerIndex.build(genome, k=k)
        with pytest.raises(ValueError, match="positive"):
            build_pure(monkeypatch, genome, k=k)
        with pytest.raises(ValueError, match="positive"):
            KmerIndex(k=k)

    @needs_native
    @pytest.mark.parametrize("k", [0, -1, 33, 2**60])
    def test_the_extension_checks_k_itself(self, k):
        with pytest.raises(ValueError, match="seed length"):
            kernels.native_kmer_index_build(
                "ACGTACGT", k, alphabet=DNA, max_occurrences=128
            )


class TestFromSeedPositions:
    def test_packs_pairs_like_build(self):
        genome = Genome("g", "ACGTACGTTTNACG")
        built = KmerIndex.build(genome, k=4, max_occurrences=1)
        table: dict[str, list[int]] = {}
        for pos in range(len(genome) - 3):
            table.setdefault(genome.sequence[pos : pos + 4], []).append(pos)
        packed = KmerIndex.from_seed_positions(
            4, table.items(), genome_length=len(genome), max_occurrences=1
        )
        assert packed == built
        assert packed.masked_seeds == 1  # ACGT occurs twice
        assert "TTNA" in table and "TTNA" not in packed

    def test_seed_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="seed length"):
            KmerIndex.from_seed_positions(4, [("ACG", [0])], genome_length=3)


def assert_native_build_is_pure(genome, k, max_occurrences=128):
    """The native build's buffers equal the pure builder's."""
    native = KmerIndex.build(genome, k=k, max_occurrences=max_occurrences)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_native", None)
        pure = KmerIndex.build(genome, k=k, max_occurrences=max_occurrences)
    assert native == pure


@st.composite
def shared_prefix_sequences(draw, symbols, wildcard, prefix_length):
    """A few ``prefix_length`` prefixes, each repeated with a random tail and
    a wildcard run or none: k-mers starting on a prefix share one directory
    bucket across many distinct codes."""
    prefixes = draw(
        st.lists(
            st.text(symbols, min_size=prefix_length, max_size=prefix_length),
            min_size=1,
            max_size=3,
        )
    )
    pieces = draw(
        st.lists(
            st.tuples(
                st.sampled_from(prefixes),
                st.text(symbols, max_size=24),
                st.text(wildcard, max_size=3),
            ).map("".join),
            min_size=1,
            max_size=40,
        )
    )
    return "".join(pieces)


def adversarial_genome(periods):
    """``"AAAAAAAA"`` plus a random 7-mer, ``periods`` times. At k = 15 the
    k-mers starting on each A run share one directory prefix, so one bucket
    holds ``periods`` hits across thousands of distinct codes."""
    rng = random.Random(32)
    return Genome(
        "adversarial",
        "".join("AAAAAAAA" + "".join(rng.choices("ACGT", k=7)) for _ in range(periods)),
    )


@needs_native
class TestNativeBuildParity:
    """``_native.kmer_index_build`` is pinned to the pure builder."""

    @settings(max_examples=120, deadline=None)
    @given(
        sequence=st.one_of(
            st.text(alphabet="ACGT", min_size=1, max_size=300),
            st.text(alphabet="ACGTN", min_size=1, max_size=300),
            st.text(alphabet="AC", min_size=1, max_size=300),  # repeats
        ),
        k=st.integers(1, 12),
        max_occurrences=st.sampled_from([0, 1, 2, 5, 128]),
    )
    def test_same_buffers_as_the_pure_builder(self, sequence, k, max_occurrences):
        if len(sequence) < k:
            return
        genome = Genome("g", sequence)
        native = KmerIndex.build(genome, k=k, max_occurrences=max_occurrences)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_native", None)
            pure = KmerIndex.build(genome, k=k, max_occurrences=max_occurrences)
        assert native == pure
        assert (native.codes.typecode, native.starts.typecode) == ("Q", "q")
        assert native.positions.typecode == "i"
        for pos in range(len(sequence) - k + 1):
            seed = sequence[pos : pos + k]
            hits = [
                at
                for at in range(len(sequence) - k + 1)
                if sequence[at : at + k] == seed
            ]
            if "N" in seed or len(hits) > max_occurrences:
                hits = []
            assert native.lookup(seed) == hits

    @settings(max_examples=150, deadline=None)
    @given(
        sequence=shared_prefix_sequences("ACGT", "N", 8),
        k=st.sampled_from([*range(9, 17), 31, 32]),
        max_occurrences=st.sampled_from([1, 3, 128]),
    )
    def test_multi_code_buckets_match_the_pure_builder(
        self, sequence, k, max_occurrences
    ):
        """A DNA 8-mer is the whole 16-bit prefix, so every k > 8 puts
        distinct codes behind each shared prefix."""
        if len(sequence) >= k:
            assert_native_build_is_pure(Genome("g", sequence), k, max_occurrences)

    @settings(max_examples=80, deadline=None)
    @given(
        sequence=shared_prefix_sequences(AMINO_ACIDS.symbols, "X", 3),
        k=st.integers(1, 12),
        max_occurrences=st.sampled_from([1, 3, 128]),
    )
    def test_protein_buckets_match_the_pure_builder(
        self, sequence, k, max_occurrences
    ):
        """5 bits a symbol: the 16-bit prefix ends inside the fourth one."""
        if len(sequence) >= k:
            genome = Genome("p", sequence, alphabet=AMINO_ACIDS)
            assert_native_build_is_pure(genome, k, max_occurrences)

    @pytest.mark.parametrize("k", [15, 32])
    def test_one_bucket_of_20k_hits_matches_the_pure_builder(self, k):
        genome = adversarial_genome(20_000)
        assert len(genome) == 300_000
        assert_native_build_is_pure(genome, k)

    def test_one_bucket_of_80k_hits_builds_in_n_log_n_time(self):
        """On a 2-vCPU Xeon VM at -O3 an insertion sort per bucket took
        ~2.9 s, qsort ~0.3 s and the merge sort takes under 0.1 s; under
        ASan + UBSan at -O1 it takes ~0.35 s."""
        genome = adversarial_genome(80_000)
        started = time.perf_counter()
        index = KmerIndex.build(genome, k=15)
        elapsed = time.perf_counter() - started
        assert len(index) > 10_000
        assert elapsed < 1.5

    def test_non_latin_1_reference_takes_the_pure_path(self):
        from repro.sequences.alphabet import Alphabet

        greek = Alphabet("greek", "αβγδ")
        index = KmerIndex.build(Genome("g", "αβγδαβγ", alphabet=greek), k=3)
        assert index.lookup("αβγ") == [0, 4]
        assert len(index) == 4
