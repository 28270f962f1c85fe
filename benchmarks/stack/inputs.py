"""Sizes and seeded input generation for the five workloads.

Everything here is a pure function of the seed: the same seed gives the
same reference, reads and pairs, in the load generator and in ``serve.py``.
The program under test receives only what these functions produce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.sequences import (
    Genome,
    illumina_profile,
    mutate,
    pacbio_clr_profile,
    simulate_reads,
    synthesize_genome,
)

#: The only backend the benchmark measures; ``batched`` appears only as
#: per-layer reference rows.
ENGINE = "native"

READ_LENGTH = 100
SEED_LENGTH = 15
ERROR_RATE = 0.05
FILTER_THRESHOLD = 5
LONG_ERROR_RATE = 0.15
#: Reads placed within this many bases of their simulated origin are correct.
PLACEMENT_TOLERANCE = max(8, int(READ_LENGTH * ERROR_RATE))
REPLICAS = 2
#: Closed-loop clients of ``interactive_map``, one connection each.
CLIENTS = 2
JOB_WINDOW = 256
CHUNK_READS = 256

WIRE = ("job_stream", "interactive_map")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload (reference box: 2 cores, 10 s timed)."""

    genome: int  # reference length, bases
    pool: int  # unique ops generated from the seed, cycled
    validate: int  # ops of the pool in the validation pass
    batch: int  # ops per call (in-process) / reads per chunk (job_stream)
    read_length: int = READ_LENGTH
    setups: int = 3  # rounds per run: fresh set-up, then a share of the seconds
    repeats: int = 1  # set-ups timed per round; the last one is kept


#: Smaller than ISSUE 11's sketch wherever set-up is repeated: a run must
#: fit the driver's budget of about 30 s with several set-ups in it, a k-mer
#: index of a 2 Mb reference alone takes 5 s to build and 1 GB to hold, and a
#: set-up has to fit inside one of the box's fast spells to be timed at all.
FULL = {
    "long_read_align": Sizes(genome=512_000, pool=256, validate=32, batch=16,
                             read_length=10_000, setups=5, repeats=3),
    "short_read_map": Sizes(genome=256_000, pool=16_384, validate=2_048, batch=64,
                            setups=5),
    "prefilter_pairs": Sizes(genome=256_000, pool=32_768, validate=1_024, batch=256,
                             setups=5, repeats=3),
    "job_stream": Sizes(genome=256_000, pool=4_096, validate=1_024, batch=CHUNK_READS),
    "interactive_map": Sizes(genome=256_000, pool=2_048, validate=256, batch=1,
                             setups=4, repeats=3),
}
SMOKE = {
    "long_read_align": Sizes(genome=64_000, pool=32, validate=16, batch=16,
                             read_length=2_000, setups=1),
    "short_read_map": Sizes(genome=64_000, pool=1_024, validate=256, batch=64, setups=1),
    "prefilter_pairs": Sizes(genome=64_000, pool=2_048, validate=256, batch=256, setups=1),
    "job_stream": Sizes(genome=64_000, pool=512, validate=256, batch=CHUNK_READS, setups=1),
    "interactive_map": Sizes(genome=64_000, pool=256, validate=64, batch=1, setups=1),
}


def reference_genome(seed: int, length: int) -> Genome:
    """The workload's reference; ``serve.py`` rebuilds the same one."""
    return synthesize_genome(length, seed=seed, name="chrS")


def short_reads(genome: Genome, count: int, seed: int):
    """Illumina-profile reads from both strands, with their true origin."""
    return simulate_reads(
        genome, count=count, read_length=READ_LENGTH,
        profile=illumina_profile(ERROR_RATE), seed=seed + 1, name_prefix="r",
    )


def long_pairs(genome: Genome, count: int, seed: int, length: int):
    """(region, read) pairs: a CLR-profile read and the region it came from."""
    reads = simulate_reads(
        genome, count=count, read_length=length,
        profile=pacbio_clr_profile(LONG_ERROR_RATE), seed=seed + 2,
        both_strands=False,
    )
    return [
        (
            genome.region(
                read.true_start,
                len(read.sequence) + int(len(read.sequence) * LONG_ERROR_RATE),
            ),
            read.sequence,
        )
        for read in reads
    ]


def filter_pairs(genome: Genome, count: int, seed: int):
    """(region, read) candidates: even ones similar, odd ones unrelated loci."""
    rng = random.Random(seed + 3)
    similar = illumina_profile(0.03)
    last = len(genome) - READ_LENGTH - FILTER_THRESHOLD
    pairs = []
    for i in range(count):
        start = rng.randrange(last)
        region = genome.region(start, READ_LENGTH + FILTER_THRESHOLD)
        source = start if i % 2 == 0 else rng.randrange(last)
        read = mutate(genome.region(source + 2, READ_LENGTH), similar, rng=rng).sequence
        pairs.append((region, read))
    return pairs


def candidate_pairs(genome: Genome, count: int, seed: int):
    """(region, read) pairs shaped like the mapper's: for direct kernel calls."""
    rng = random.Random(seed + 4)
    profile = illumina_profile(ERROR_RATE)
    pairs = []
    for _ in range(count):
        start = rng.randrange(len(genome) - 2 * READ_LENGTH)
        read = mutate(genome.region(start, READ_LENGTH), profile, rng=rng).sequence
        pairs.append((genome.region(start, len(read) + 8), read))
    return pairs


def batched(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def fastq_bodies(ops: list[tuple[str, str]]) -> tuple[list[bytes], list[str]]:
    """One pass of ``ops`` as ``POST .../input`` bodies of CHUNK_READS reads.

    Every interior cut falls mid-line, as chunked ingest arrives; the first
    body starts and the last ends on a record boundary, so passes tile.
    Returns the JSON bodies and the FASTQ text inside each.
    """
    records = [f"@{name}\n{seq}\n+\n{'I' * len(seq)}\n" for name, seq in ops]
    text = "".join(records)
    cuts = [0]
    position = 0
    for i, record in enumerate(records, 1):
        position += len(record)
        if i % CHUNK_READS == 0 and i < len(records):
            cuts.append(position + 7)
    cuts.append(len(text))
    pieces = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    return [json.dumps({"fastq": piece}).encode() for piece in pieces], pieces
