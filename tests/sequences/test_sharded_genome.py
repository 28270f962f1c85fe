"""Unit tests for the shard-per-chromosome mmap genome store."""

import gc
import pickle
import warnings
from contextlib import closing

import pytest

from repro.engine.sharded import ShardedEngine
from repro.mapping.pipeline import make_genasm_mapper
from repro.sequences.alphabet import AMINO_ACIDS, RNA
from repro.sequences.genome import Genome, ShardedGenome, synthesize_genome
from repro.sequences.io import FastaRecord, write_fasta
from repro.sequences.read_simulator import illumina_profile, simulate_reads


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharded")
    chr1 = synthesize_genome(5_000, seed=30)
    chr2 = synthesize_genome(1_200, seed=31)
    genomes = [
        Genome("chr1", chr1.sequence),
        Genome("chr2", chr2.sequence),
    ]
    sharded = ShardedGenome.write(genomes, directory)
    yield genomes, sharded
    sharded.close()


class TestRoundTrip:
    def test_sequences_identical(self, store):
        genomes, sharded = store
        for genome in genomes:
            assert sharded[genome.name].sequence == genome.sequence

    def test_region_matches_genome_region(self, store):
        genomes, sharded = store
        genome = genomes[0]
        shard = sharded["chr1"]
        # Boundaries, odd offsets (sub-byte), clamping past either end.
        for start, length in [
            (0, 0),
            (0, 1),
            (1, 7),
            (2, 9),
            (3, 11),
            (4_990, 100),
            (-5, 20),
            (0, len(genome)),
        ]:
            assert shard.region(start, length) == genome.region(start, length)

    def test_negative_length_rejected(self, store):
        _, sharded = store
        with pytest.raises(ValueError):
            sharded["chr1"].region(0, -1)

    def test_reopen_from_manifest(self, store, tmp_path):
        genomes, sharded = store
        reopened = ShardedGenome.open(sharded.directory)
        assert reopened.chromosomes == ("chr1", "chr2")
        for genome in genomes:
            assert reopened[genome.name].sequence == genome.sequence
        reopened.close()

    def test_metadata(self, store):
        genomes, sharded = store
        assert len(sharded) == 2
        assert sharded.total_length == sum(len(g) for g in genomes)
        assert "chr1" in sharded and "chrX" not in sharded
        assert sharded.reference_sequences() == [
            ("chr1", len(genomes[0])),
            ("chr2", len(genomes[1])),
        ]
        assert [shard.name for shard in sharded] == ["chr1", "chr2"]

    def test_unknown_chromosome_lists_available(self, store):
        _, sharded = store
        with pytest.raises(KeyError, match="chr1, chr2"):
            sharded.shard("chrX")

    def test_packed_size_is_quarter(self, store):
        genomes, sharded = store
        expected = sum((len(g) + 3) // 4 for g in genomes)
        assert sharded.packed_size_bytes() == expected


class TestWildcards:
    def test_n_runs_round_trip(self, tmp_path):
        sequence = "NN" + "ACGT" * 10 + "NNNNN" + "GGCC" * 3 + "N"
        with closing(
            ShardedGenome.write([Genome("chrN", sequence)], tmp_path / "wild")
        ) as sharded:
            assert sharded["chrN"].sequence == sequence
        with closing(ShardedGenome.open(tmp_path / "wild")) as reopened:
            assert reopened["chrN"].sequence == sequence
            assert reopened["chrN"].region(1, 6) == sequence[1:7]

    def test_all_wildcard(self, tmp_path):
        with closing(
            ShardedGenome.write([Genome("gap", "N" * 17)], tmp_path / "gap")
        ) as sharded:
            assert sharded["gap"].sequence == "N" * 17


class TestPickling:
    def test_shard_pickles_by_path(self, store):
        genomes, sharded = store
        blob = pickle.dumps(sharded["chr1"])
        # A path + manifest metadata, not 5 kb of sequence.
        assert len(blob) < 1024
        with closing(pickle.loads(blob)) as clone:
            assert clone.sequence == genomes[0].sequence

    def test_rna_alphabet_survives_pickle(self, tmp_path):
        with closing(
            ShardedGenome.write([Genome("rna", "ACGU" * 8, RNA)], tmp_path / "rna")
        ) as sharded, closing(pickle.loads(pickle.dumps(sharded["rna"]))) as clone:
            assert clone.alphabet is RNA
            assert clone.sequence == "ACGU" * 8


class TestWriteValidation:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no chromosomes"):
            ShardedGenome.write([], tmp_path / "empty")

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            ShardedGenome.write(
                [Genome("c", "ACGT"), Genome("c", "GGTT")], tmp_path / "dup"
            )

    def test_mixed_alphabets_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="one alphabet"):
            ShardedGenome.write(
                [Genome("a", "ACGT"), Genome("b", "ACGU", RNA)],
                tmp_path / "mixed",
            )

    def test_unpackable_alphabet_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2 bits per base"):
            ShardedGenome.write(
                [Genome("p", "MKV", AMINO_ACIDS)], tmp_path / "prot"
            )


class TestOpenErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            ShardedGenome.open(tmp_path / "nowhere")

    def test_bad_format(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="unrecognised"):
            ShardedGenome.open(directory)


class TestFromFasta:
    def test_multi_contig(self, tmp_path):
        records = [
            FastaRecord("chrA", "ACGT" * 50),
            FastaRecord("chrB", "GG" + "N" * 5 + "TTTT"),
        ]
        fasta = tmp_path / "ref.fa"
        write_fasta(records, fasta)
        with closing(
            ShardedGenome.from_fasta(fasta, tmp_path / "store")
        ) as sharded:
            assert sharded.chromosomes == ("chrA", "chrB")
            for record in records:
                assert sharded[record.name].sequence == record.sequence


class TestMapperConformance:
    """A mapper over a shard must be bit-identical to one over the Genome."""

    @pytest.fixture(scope="class")
    def conformance_setup(self, tmp_path_factory):
        genome = synthesize_genome(20_000, seed=32)
        sharded = ShardedGenome.write(
            [Genome(genome.name, genome.sequence)],
            tmp_path_factory.mktemp("conf"),
        )
        reads = simulate_reads(
            genome,
            count=24,
            read_length=100,
            profile=illumina_profile(0.05),
            seed=33,
        )
        yield genome, sharded, [(r.name, r.sequence) for r in reads]
        sharded.close()

    def test_in_process_identical(self, conformance_setup):
        genome, sharded, reads = conformance_setup
        baseline = make_genasm_mapper(genome, seed_length=13, error_rate=0.10)
        via_shard = make_genasm_mapper(
            sharded[genome.name], seed_length=13, error_rate=0.10
        )
        expected = [r.record.to_line() for r in baseline.map_reads(reads)]
        actual = [r.record.to_line() for r in via_shard.map_reads(reads)]
        assert actual == expected

    def test_sharded_engine_writes_the_same_sam(self, conformance_setup):
        genome, sharded, reads = conformance_setup
        baseline = make_genasm_mapper(genome, seed_length=13, error_rate=0.10)
        expected = [r.record.to_line() for r in baseline.map_reads(reads)]

        with ShardedEngine(workers=2) as engine:
            mapper = make_genasm_mapper(
                sharded[genome.name],
                seed_length=13,
                error_rate=0.10,
                engine=engine,
            )
            actual = [r.record.to_line() for r in mapper.map_reads(reads)]
            # The filter scan and the align batch were both cut in two.
            assert engine.pop_shard_timings() is not None
        assert actual == expected


class TestShardMmapEdgeCases:
    def test_zero_length_region_on_tiny_shard(self, tmp_path):
        with closing(
            ShardedGenome.write([Genome("t", "A")], tmp_path / "tiny")
        ) as sharded:
            shard = sharded["t"]
            assert shard.region(0, 0) == ""
            assert shard.region(0, 10) == "A"
            assert len(shard) == 1

    def test_close_then_reaccess_reopens(self, tmp_path):
        sharded = ShardedGenome.write(
            [Genome("c", "ACGTACGT")], tmp_path / "close"
        )
        shard = sharded["c"]
        assert shard.sequence == "ACGTACGT"
        shard.close()
        assert shard.sequence == "ACGTACGT"
        sharded.close()

    def test_truncated_shard_file_detected(self, tmp_path):
        sharded = ShardedGenome.write(
            [Genome("c", "ACGT" * 100)], tmp_path / "trunc"
        )
        shard = sharded["c"]
        path = shard.path
        sharded.close()
        path.write_bytes(path.read_bytes()[:10])
        reopened = ShardedGenome.open(tmp_path / "trunc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            # Every access re-checks the size: a failed one keeps no
            # handle that a second could decode the short map through,
            # and leaves none open for the collector.
            for _ in range(2):
                with pytest.raises(ValueError, match="expected"):
                    reopened["c"].sequence
            del reopened
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]

    @pytest.mark.parametrize("kept", [0, 1, 99], ids=["empty", "one", "short1"])
    def test_short_shard_raises_on_every_region(self, tmp_path, kept):
        # 400 bases pack into 100 bytes; an empty file takes mmap's own
        # ValueError path, the others the size check.
        sharded = ShardedGenome.write(
            [Genome("c", "ACGT" * 100)], tmp_path / "short"
        )
        path = sharded["c"].path
        sharded.close()
        path.write_bytes(path.read_bytes()[:kept])
        with closing(ShardedGenome.open(tmp_path / "short")) as reopened:
            shard = reopened["c"]
            for _ in range(2):
                with pytest.raises(ValueError):
                    shard.region(0, 4)
                assert shard._mmap is None and shard._file is None
