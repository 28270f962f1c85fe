"""The four-step read-mapping pipeline (Figure 1) with GenASM inside.

Indexing (offline) -> seeding -> pre-alignment filtering -> read alignment.
The filter and the aligner are pluggable so the Figure 11 experiment can
compare pipeline variants: a DP aligner in the alignment slot (the software
baseline) versus GenASM, with or without a pre-alignment filter.

Both strands are considered: seeding runs on the read and on its reverse
complement, and the better-scoring alignment wins, as in real mappers.

A mapper over the ``native`` engine with the default GenASM slots answers
a whole ``map_reads`` batch in one GIL-free C call (``_native.map_many``),
the way the paper's host hands the accelerator whole batches; every other
mapper, and a batch that call does not answer, runs the stages one batch
call each (the *staged* path), which is also the reference the parity
tests hold the one call to. The one call runs the filter's stage in the
other order: it aligns every candidate with a non-empty region first, and
an alignment within the threshold that stops short of the region's end is
an accept (a hit of that distance row), so only the other candidates pay
for the filter's sweep — about 5 % of them on 100 bp reads. The filter's
verdicts, the results and ``alignments_run`` (still the filter's
survivors, not the alignments C computed) are the staged path's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from repro.core import kernels
from repro.core.aligner import Alignment, GenAsmAligner
from repro.core.cigar import Cigar
from repro.core.genasm_tb import _compile_order
from repro.core.prefilter import GenAsmFilter
from repro.core.scoring import ScoringScheme
from repro.engine.native import NativeEngine
from repro.mapping.index import KmerIndex
from repro.mapping.sam import FLAG_REVERSE, SamRecord, unmapped_record
from repro.mapping.seeding import DIAGONAL_TOLERANCE, candidate_locations_batch
from repro.sequences.genome import Genome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.registry import AlignmentEngine


class PairFilter(Protocol):
    """Anything with an ``accepts(reference, read) -> bool`` method.

    Filters may additionally expose ``accepts_batch(pairs) -> list[bool]``
    (as :class:`GenAsmFilter` does); the mapper detects and prefers it so a
    read's candidates are filtered in one batched scan.
    """

    def accepts(self, reference: str, read: str) -> bool: ...


#: An aligner callable: (reference region, read) -> Alignment.
AlignerFn = Callable[[str, str], Alignment]

#: A batch aligner callable: [(region, read), ...] -> [Alignment, ...].
BatchAlignerFn = Callable[[Sequence[tuple[str, str]]], "list[Alignment]"]


@dataclass
class PipelineStats:
    """Work counters for each pipeline stage (drives Figure 11's story)."""

    reads: int = 0
    candidates: int = 0
    filtered_out: int = 0
    alignments_run: int = 0
    mapped: int = 0

    @property
    def filter_rate(self) -> float:
        """Fraction of candidates rejected before alignment."""
        if self.candidates == 0:
            return 0.0
        return self.filtered_out / self.candidates


@dataclass(slots=True)
class MappingResult:
    """Best alignment for one read (or None if unmapped).

    Slotted, not frozen, like :class:`SamRecord` and :class:`Alignment`:
    :meth:`ReadMapper.map_reads` builds all three per mapped read and
    nothing assigns to them afterwards. With ``frozen=True`` that build
    was half of a one-call batch's time (a 7-field frozen record costs
    1.62 us to construct on CPython 3.11, a slotted one 0.28 us).
    """

    record: SamRecord
    alignment: Alignment | None
    candidate_position: int | None
    reverse: bool


@dataclass
class ReadMapper:
    """Configurable mapper hosting GenASM (or a baseline) as its aligner.

    Parameters
    ----------
    genome, index:
        The reference and its k-mer index.
    error_rate:
        Expected divergence; sets the reference-region padding ``k`` (the
        region handed to the aligner spans ``m + k`` characters, Section 6).
    prefilter:
        Optional pre-alignment filter applied to every candidate region.
    aligner:
        Defaults to the paper's GenASM configuration.
    batch_aligner:
        Optional batch entry point matching ``aligner``; filled in
        automatically when ``aligner`` defaults to GenASM, so a read's
        surviving candidates are aligned as one batch.
    scoring:
        Scheme used to pick the best candidate and report scores.
    engine:
        Compute backend handed to the default GenASM aligner (ignored when
        a custom ``aligner`` is supplied).
    """

    genome: Genome
    index: KmerIndex
    error_rate: float = 0.15
    prefilter: PairFilter | None = None
    aligner: AlignerFn | None = None
    batch_aligner: BatchAlignerFn | None = None
    scoring: ScoringScheme = field(default_factory=ScoringScheme.bwa_mem)
    max_candidates: int = 8
    stats: PipelineStats = field(default_factory=PipelineStats)
    engine: "AlignmentEngine | str | None" = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error_rate must be within [0, 1)")
        # with_engine can rebuild the aligner slots only when BOTH are the
        # defaults; a custom batch_aligner alone would be silently replaced
        # otherwise.
        self._default_aligner = (
            self.aligner is None and self.batch_aligner is None
        )
        self._genasm: GenAsmAligner | None = None
        if self.aligner is None:
            genasm = GenAsmAligner(engine=self.engine)
            self.aligner = genasm.align
            if self.batch_aligner is None:
                self.batch_aligner = genasm.align_batch
                self._genasm = genasm

    # ------------------------------------------------------------------
    def reference_sequences(self) -> list[tuple[str, int]]:
        """``(name, length)`` pairs this mapper can place reads on."""
        return [(self.genome.name, len(self.genome))]

    def map_read(self, name: str, read: str) -> MappingResult:
        """Run steps 1-3 for one read and return the best alignment."""
        return self.map_reads([(name, read)])[0]

    def map_reads(self, reads: Sequence[tuple[str, str]]) -> list[MappingResult]:
        """Map a batch of (name, sequence) reads, in input order.

        A mapper whose engine is ``native``, whose aligner slots are the
        GenASM defaults and whose prefilter is absent or a plain
        :class:`GenAsmFilter` — :meth:`with_engine`'s test — maps the whole
        batch in one GIL-free C call (``kernels.native_map_many``): seeding
        through the index's prefix directory, region cutting, the filter,
        alignment and the best pick, with Python building an
        :class:`Alignment`, :class:`SamRecord` and :class:`MappingResult`
        for each read's winner only, inline around one
        :meth:`Cigar.from_kernel` (C writes only valid ops), with the fields
        :func:`_mapped_result` fills on the staged path. C aligns each
        candidate before filtering it and runs the filter's sweep only
        where the alignment does not settle the verdict (more edits than
        the threshold, or the region used up), so it aligns every candidate
        with a non-empty region while ``alignments_run`` counts the
        filter's survivors, as on the staged path. C answers the whole
        batch or none of it: everything else, and a batch C does not answer
        (a read holding a foreign character, a window loop that fails, even
        on a candidate the filter rejects), takes the staged path whole,
        which maps it or raises. Both paths give the same results and the
        same stage counters.
        """
        genasm = self._one_call_aligner()
        answered = None
        if genasm is not None:
            prefilter = self.prefilter
            sequences = [read for _, read in reads]
            region_length = {
                length: self._region_length(length)
                for length in set(map(len, sequences))
            }
            answered = kernels.native_map_many(
                sequences,
                self.index,
                region_lengths=[region_length[len(read)] for read in sequences],
                max_candidates=self.max_candidates,
                diagonal_tolerance=DIAGONAL_TOLERANCE,
                threshold=None if prefilter is None else prefilter.threshold,
                window_size=genasm.window_size,
                overlap=genasm.overlap,
                program=_compile_order(genasm.config.order, genasm.config.affine),
                scoring=(
                    self.scoring.match,
                    self.scoring.substitution,
                    self.scoring.gap_open,
                    self.scoring.gap_extend,
                ),
            )
        if answered is None:
            return self._map_staged(reads)

        candidates, survivors, entries = answered
        reference_name = self.genome.name
        from_kernel = Cigar.from_kernel
        results: list[MappingResult] = []
        append = results.append
        for (name, read), entry in zip(reads, entries):
            if entry:
                # _mapped_result's build, inline: the loop's largest cost.
                position, reverse, ops, text_consumed, distance, score = entry
                cigar = from_kernel(ops)
                append(MappingResult(
                    SamRecord(
                        name, FLAG_REVERSE if reverse else 0, reference_name,
                        position + 1, min(60, max(0, score)), cigar, read,
                    ),
                    Alignment(cigar, distance, 0, text_consumed),
                    position,
                    reverse,
                ))
            else:
                append(_unmapped(name, read))
        self._count(len(reads), candidates, survivors, sum(map(bool, entries)))
        return results

    def _count(self, reads: int, candidates: int, survivors: int, mapped: int) -> None:
        """Add one mapped batch to the stage counters."""
        stats = self.stats
        stats.reads += reads
        stats.candidates += candidates
        if self.prefilter is not None:
            stats.filtered_out += candidates - survivors
        stats.alignments_run += survivors
        stats.mapped += mapped

    def _map_staged(self, reads: Sequence[tuple[str, str]]) -> list[MappingResult]:
        """Map a batch stage by stage, one cross-read batch per stage.

        Both strands of *every* read are seeded in one call, then the
        candidate regions are filtered and aligned as single cross-read
        batches — the same amortization the serving layer performs across
        concurrent clients, applied to one standalone call. Candidates stay
        in parallel lists (read id, position, ``(region, read)`` pair) from
        seeding to best-pick. Results are identical to mapping each read
        alone (candidates are independent pairs), in input order. Only a
        batch that maps moves the stage counters.
        """
        reverse_complement = self.genome.alphabet.reverse_complement

        # Oriented read 2 * i is read i as given, 2 * i + 1 its reverse
        # complement: one seeding call covers both strands of every read,
        # and a candidate's read and strand are its read id's two halves.
        oriented = [
            strand
            for _, read in reads
            for strand in (read, reverse_complement(read))
        ]
        read_ids, positions, _ = candidate_locations_batch(
            oriented, self.index, max_candidates=self.max_candidates
        )
        candidates = len(read_ids)
        pairs = [
            (self._region(position, len(oriented[read_id])), oriented[read_id])
            for read_id, position in zip(read_ids, positions)
        ]

        if self.prefilter is not None and pairs:
            verdicts = self._filter_batch(pairs)
            read_ids = list(compress(read_ids, verdicts))
            positions = list(compress(positions, verdicts))
            pairs = list(compress(pairs, verdicts))

        alignments = self._align_batch(pairs)

        # Per read, the first of its best-scoring survivors (they arrive
        # forward strand first, each strand best-voted first).
        best: dict[int, tuple[int, int]] = {}  # read -> (score, survivor)
        for survivor, (read_id, alignment) in enumerate(zip(read_ids, alignments)):
            score = alignment.score(self.scoring)
            held = best.get(read_id >> 1)
            if held is None or score > held[0]:
                best[read_id >> 1] = (score, survivor)

        self._count(len(reads), candidates, len(pairs), len(best))
        reference_name = self.genome.name
        results: list[MappingResult] = []
        for read_index, (name, read) in enumerate(reads):
            picked = best.get(read_index)
            if picked is None:
                results.append(_unmapped(name, read))
                continue
            score, survivor = picked
            results.append(
                _mapped_result(
                    name,
                    read,
                    alignments[survivor],
                    positions[survivor],
                    bool(read_ids[survivor] & 1),
                    score,
                    reference_name,
                )
            )
        return results

    def _rebuildable(self) -> bool:
        """Both aligner slots are the GenASM defaults and the prefilter is
        absent or a plain :class:`GenAsmFilter`."""
        prefilter = self.prefilter
        return self._default_aligner and (
            prefilter is None or type(prefilter) is GenAsmFilter
        )

    def maps_in_one_call(self) -> bool:
        """True when :meth:`map_reads` answers a batch in one GIL-free
        native call (unless C refuses it) rather than stage by stage.

        The serving layer asks this to decide whether a small batch may
        run on its event loop; :meth:`map_reads` makes the same test.
        """
        return self._one_call_aligner() is not None

    def _one_call_aligner(self) -> GenAsmAligner | None:
        """The default aligner when :meth:`map_reads` may take one C call.

        That needs :meth:`_rebuildable`, the ``native`` engine itself (not
        one wrapped or fanned out), and an index built natively from a
        reference as long as the genome, in the alphabet of the genome,
        the aligner and the filter.
        """
        genasm = self._genasm
        index = self.index
        if (
            genasm is None
            or not self._rebuildable()
            or type(genasm.engine) is not NativeEngine
            or index.reference_codes is None
            or len(index.reference_codes) != len(self.genome)
        ):
            return None
        alphabet = index.alphabet
        if self.genome.alphabet != alphabet or genasm.alphabet != alphabet:
            return None
        if self.prefilter is not None and self.prefilter.alphabet != alphabet:
            return None
        return genasm

    def with_engine(
        self, engine: "AlignmentEngine | str | None"
    ) -> "ReadMapper":
        """This mapper over another engine: same genome, same index object.

        The clone has fresh :attr:`stats`, the default GenASM aligner slots
        and a :class:`GenAsmFilter` with this one's threshold and alphabet,
        all bound to ``engine`` — what a serving replica needs so that its
        flush thread shares the read-only reference (the index, its prefix
        directory and coded reference included) but no engine state. A
        mapper carrying a custom aligner, batch aligner or prefilter cannot
        be rebuilt, so it is returned as is (and stays shared).
        """
        if not self._rebuildable():
            return self
        prefilter = self.prefilter
        if prefilter is not None:
            prefilter = GenAsmFilter(
                prefilter.threshold, alphabet=prefilter.alphabet, engine=engine
            )
        return replace(
            self,
            prefilter=prefilter,
            aligner=None,
            batch_aligner=None,
            stats=PipelineStats(),
            engine=engine,
        )

    # ------------------------------------------------------------------
    def _filter_batch(self, pairs: list[tuple[str, str]]) -> list[bool]:
        """Filter candidate pairs, batching when the filter supports it."""
        accepts_batch = getattr(self.prefilter, "accepts_batch", None)
        if accepts_batch is not None:
            return accepts_batch(pairs)
        return [self.prefilter.accepts(region, read) for region, read in pairs]

    def _align_batch(self, pairs: list[tuple[str, str]]) -> list[Alignment]:
        """Align surviving pairs, batching when a batch aligner exists."""
        if self.batch_aligner is not None and len(pairs) > 1:
            return self.batch_aligner(pairs)
        return [self.aligner(region, read) for region, read in pairs]

    def _region_length(self, read_length: int) -> int:
        """``m + k``: the read plus ``k = max(8, m * error_rate)`` of slack."""
        return read_length + max(8, int(read_length * self.error_rate))

    def _region(self, position: int, read_length: int) -> str:
        """Reference region of length ``m + k`` at a candidate location."""
        return self.genome.region(position, self._region_length(read_length))


def _mapped_result(
    name: str,
    read: str,
    alignment: Alignment,
    position: int,
    reverse: bool,
    score: int,
    reference_name: str,
) -> MappingResult:
    """The result for a read whose best alignment is ``alignment``.

    The staged path builds a winner here, with positional constructors; the
    record and the alignment share one :class:`Cigar`. The one-call branch
    of :meth:`ReadMapper.map_reads` builds the same fields inline. The
    caller counts ``stats.mapped`` once per batch.
    """
    record = SamRecord(
        name,
        FLAG_REVERSE if reverse else 0,
        reference_name,
        position + 1,  # SAM is 1-based
        min(60, max(0, score)),
        alignment.cigar,
        read,
    )
    return MappingResult(record, alignment, position, reverse)


def _unmapped(name: str, read: str) -> MappingResult:
    """The result for a read no candidate survived for."""
    return MappingResult(unmapped_record(name, read), None, None, False)


def make_genasm_mapper(
    genome: Genome,
    *,
    seed_length: int = 15,
    error_rate: float = 0.15,
    use_prefilter: bool = True,
    engine: "AlignmentEngine | str | None" = None,
) -> ReadMapper:
    """Convenience constructor: index the genome, attach GenASM + filter."""
    index = KmerIndex.build(genome, k=seed_length)
    prefilter = None
    if use_prefilter:
        threshold = max(4, int(200 * error_rate))
        prefilter = GenAsmFilter(threshold, engine=engine)
    return ReadMapper(
        genome=genome,
        index=index,
        error_rate=error_rate,
        prefilter=prefilter,
        engine=engine,
    )
