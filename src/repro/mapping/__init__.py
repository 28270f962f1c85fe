"""Read-mapping pipeline: indexing, seeding, filtering, alignment, SAM.

The four steps of Figure 1, with GenASM pluggable into the filtering and
alignment slots. This is the substrate the end-to-end pipeline experiment
(Figure 11) runs on.
"""

from repro.mapping.index import KmerIndex
from repro.mapping.pipeline import (
    MappingResult,
    PipelineStats,
    ReadMapper,
    make_genasm_mapper,
)
from repro.mapping.sam import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    SamRecord,
    unmapped_record,
    write_sam,
)
from repro.mapping.seeding import (
    CandidateLocation,
    candidate_locations,
    candidate_locations_batch,
    extract_seeds,
)

__all__ = [
    "CandidateLocation",
    "FLAG_REVERSE",
    "FLAG_UNMAPPED",
    "KmerIndex",
    "MappingResult",
    "PipelineStats",
    "ReadMapper",
    "SamRecord",
    "candidate_locations",
    "candidate_locations_batch",
    "extract_seeds",
    "make_genasm_mapper",
    "unmapped_record",
    "write_sam",
]
