"""The batch entry points: Hypothesis parity and ABI fuzz.

``NativeEngine.scan_batch`` / ``edit_distance_batch`` / ``align_batch`` hand
a whole batch — the caller's list of ``str`` pairs and the codec's tables —
to C once (``_native.scan_many`` / ``edit_distance_many`` / ``align_many``),
which codes every sequence itself; the mapper's front half does the same
with ``_native.seed_many`` / ``map_many`` (their Hypothesis parity lives in
``tests/mapping``). Two things are pinned here:

* **parity** — random *mixed* batches come back bit-identical to the pure
  backend, in input order, across the multiword and window-geometry
  boundaries; C answers a whole batch or none of it (None, when some
  pattern is foreign or, for the sweeps, empty), and the pure path then
  answers or raises for the whole batch; the two lanes of ``align_many``
  and ``edit_distance_many`` answer every pair themselves;
* **the ABI** — the C side reads caller-supplied lists, strings (1, 2 or
  4 bytes a character, ``str`` subclasses too) and buffers, so every
  malformed direct call must raise ``TypeError`` or ``ValueError`` instead
  of reading out of bounds. CI's ``native-sanitizers`` job runs this file
  under ASan + UBSan.

Skipped when the extension is not built.
"""

import random
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from cases import CORPUS, PIGEONHOLE_CASES
from repro.core import kernels
from repro.core.aligner import GenAsmAligner
from repro.core.cigar import Cigar
from repro.core.genasm_tb import _compile_order
from repro.core.prefilter import GenAsmFilter
from repro.core.scoring import ScoringScheme, TracebackCase, TracebackConfig
from repro.engine import NativeEngine, PurePythonEngine
from repro.mapping.index import KmerIndex, _kmer_groups
from repro.mapping.pipeline import ReadMapper, make_genasm_mapper
from repro.mapping.seeding import candidate_locations_batch
from repro.sequences.alphabet import AMINO_ACIDS, DNA
from repro.sequences.genome import Genome, synthesize_genome
from repro.sequences.read_simulator import illumina_profile, simulate_reads

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
    pairs=st.lists(st.tuples(text_st, pattern_st), max_size=40),
    k=st.one_of(st.integers(0, 8), st.integers(0, 133)),
)
def test_edit_distance_batch_bit_identical_to_pure(pairs, k):
    assert NATIVE.edit_distance_batch(pairs, k) == (
        PURE.edit_distance_batch(pairs, k)
    )


@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129, 200])
def test_early_termination_matches_pure_across_word_boundaries(m):
    """Every k from "exact only" to past the pattern length, on texts that
    hold the pattern exactly, with edits, with wildcards, or not at all."""
    rng = random.Random(m)

    def dna(length, symbols="ACGT"):
        return "".join(rng.choice(symbols) for _ in range(length))

    pairs = []
    for _ in range(12):
        pattern = dna(m)
        edited = list(pattern)
        for _ in range(rng.randint(1, 4)):
            edited[rng.randrange(m)] = rng.choice("ACGTN")
        for core in (pattern, "".join(edited), dna(m, "ACGTN")):
            pairs.append((dna(rng.randint(0, 40), "ACGTN") + core
                          + dna(rng.randint(0, 40), "ACGTN"), pattern))
    for k in sorted({0, 1, m - 1, m, m + 5}):
        assert NATIVE.edit_distance_batch(pairs, k) == (
            PURE.edit_distance_batch(pairs, k)
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
# Traceback programs and the per-read mask table
# ----------------------------------------------------------------------

# The C walk takes a whole run of matches in one loop only under a program
# whose first non-extend opcode is MATCH; every other program takes the
# opcode dispatch cell by cell. Both kinds are pinned here: orders where an
# error case precedes MATCH, and every order TracebackConfig.from_scoring
# derives (the extends lead, MATCH follows).
FROM_SCORING_ORDERS = sorted(
    {
        TracebackConfig.from_scoring(scheme).order
        for scheme in (
            ScoringScheme.bwa_mem(),
            ScoringScheme.minimap2(),
            ScoringScheme.unit(),
            ScoringScheme(match=1, substitution=-9, gap_open=-1, gap_extend=-1),
        )
    },
    key=str,
)
ERROR_FIRST_ORDERS = [
    (TracebackCase.SUBSTITUTION, TracebackCase.MATCH,
     TracebackCase.INSERTION_OPEN, TracebackCase.DELETION_OPEN,
     TracebackCase.INSERTION_EXTEND, TracebackCase.DELETION_EXTEND),
    (TracebackCase.INSERTION_EXTEND, TracebackCase.DELETION_OPEN,
     TracebackCase.MATCH, TracebackCase.SUBSTITUTION,
     TracebackCase.INSERTION_OPEN, TracebackCase.DELETION_EXTEND),
    (TracebackCase.DELETION_EXTEND, TracebackCase.INSERTION_EXTEND,
     TracebackCase.INSERTION_OPEN, TracebackCase.SUBSTITUTION,
     TracebackCase.DELETION_OPEN, TracebackCase.MATCH),
]
PROGRAM_CONFIGS = list(
    {
        _compile_order(config.order, config.affine): config
        for config in CONFIGS + [
            TracebackConfig(order=order, affine=affine)
            for order in FROM_SCORING_ORDERS + ERROR_FIRST_ORDERS
            for affine in (True, False)
        ]
    }.values()
)
PROGRAM_GEOMETRIES = [
    (window_size, overlap)
    for window_size in (1, 5, 40, 64)
    for overlap in sorted({0, window_size // 3, window_size - 1})
]


def program_id(config):
    return "".join(map(str, _compile_order(config.order, config.affine)))


def test_from_scoring_derives_two_orders():
    """Both of from_scoring's branches are in FROM_SCORING_ORDERS."""
    assert len(FROM_SCORING_ORDERS) == 2


def edited_pairs(seed, count, length):
    """(text, read) pairs where the read is the text with ~15 % edits, so a
    walk meets match runs, substitutions and gaps of both kinds."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        text = "".join(rng.choice("ACGT") for _ in range(length))
        read = []
        for symbol in text:
            roll = rng.random()
            if roll < 0.05:
                read.append(rng.choice("ACGT"))
            elif roll < 0.10:
                read.append(symbol + rng.choice("ACGT"))
            elif roll >= 0.15:
                read.append(symbol)
        pairs.append((text, "".join(read) or "A"))
    return pairs


PROGRAM_PAIRS = edited_pairs(36, 6, 150) + [("ACGTTACG", "ACGTACG")]


@pytest.mark.parametrize("window_size, overlap", PROGRAM_GEOMETRIES)
@pytest.mark.parametrize("config", PROGRAM_CONFIGS, ids=program_id)
def test_align_batch_under_every_program_matches_pure(
    config, window_size, overlap
):
    geometry = {
        "window_size": window_size, "overlap": overlap, "config": config
    }
    assert NATIVE.align_batch(PROGRAM_PAIRS, **geometry) == (
        PURE.align_batch(PROGRAM_PAIRS, **geometry)
    )


@pytest.fixture(scope="module")
def mapping_genome():
    return synthesize_genome(6_000, seed=36)


@pytest.mark.parametrize("window_size, overlap", PROGRAM_GEOMETRIES)
@pytest.mark.parametrize("config", PROGRAM_CONFIGS, ids=program_id)
def test_map_reads_under_every_program_matches_pure(
    mapping_genome, config, window_size, overlap
):
    """map_many's window loop under the program, against the staged path
    with a pure aligner of the same configuration."""
    reads = [
        (read.name, read.sequence)
        for read in simulate_reads(
            mapping_genome, count=6, read_length=100,
            profile=illumina_profile(0.08), seed=37,
        )
    ]
    one_call = make_genasm_mapper(
        mapping_genome, seed_length=11, engine="native"
    )
    staged = one_call.with_engine("pure")
    geometry = {
        "window_size": window_size, "overlap": overlap, "config": config
    }
    for mapper, engine in ((one_call, "native"), (staged, "pure")):
        genasm = GenAsmAligner(engine=engine, **geometry)
        mapper.aligner, mapper.batch_aligner = genasm.align, genasm.align_batch
        mapper._genasm = genasm
    assert one_call.maps_in_one_call() and not staged.maps_in_one_call()
    assert one_call.map_reads(reads) == staged.map_reads(reads)
    assert one_call.stats == staged.stats


# The read's table: pattern lengths on both sides of each word boundary,
# windows that start and end anywhere in it (the window shrinks with a
# large overlap), wildcards in the pattern, and reads shorter than W.
@settings(max_examples=80, deadline=None)
@given(
    length=st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129]),
    data=st.data(),
    window_size=st.sampled_from([5, 17, 40, 63, 64]),
    overlap_frac=st.floats(min_value=0.0, max_value=0.99),
    config=st.sampled_from(PROGRAM_CONFIGS),
)
def test_window_masks_sliced_from_the_read_table_match_pure(
    length, data, window_size, overlap_frac, config
):
    read = data.draw(st.text(alphabet="ACGTN", min_size=length,
                             max_size=length))
    edits = data.draw(st.lists(
        st.tuples(st.integers(0, length - 1), st.sampled_from("ACGT-")),
        max_size=max(1, length // 8),
    ))
    text = list(read.replace("N", "A"))
    for position, symbol in edits:
        text[position] = "" if symbol == "-" else symbol
    pairs = [("".join(text), read), (data.draw(text_st), read)]
    geometry = {
        "window_size": window_size,
        "overlap": int(window_size * overlap_frac),
        "config": config,
    }
    assert NATIVE.align_batch(pairs, **geometry) == (
        PURE.align_batch(pairs, **geometry)
    )


# ----------------------------------------------------------------------
# align_many's two lanes
# ----------------------------------------------------------------------

# align_many runs a batch in two lanes, each one pair's window loop; a lane
# whose pair ends takes the batch's next pair, and when both lanes' open
# windows have one text length a single DC sweep computes both. Long reads
# beside short pairs make the lanes refill at different rounds, the two
# lanes' windows differ in pattern length and edit distance, regions cut
# short run the text out first (the I tail), and an odd batch leaves one
# lane to finish alone.

def lane_pairs(seed, count):
    """(region, read) pairs: mostly a 0.5-5 kb read at 2-20 % error against
    the region it came from, three in ten a pair of at most 150 symbols. One
    region in five is cut short, so the text runs out before the read does;
    one in five runs on past the read's end."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        if rng.random() < 0.3:
            length, rate = rng.randint(1, 150), 0.10
        else:
            length, rate = rng.randint(500, 5_000), rng.uniform(0.02, 0.20)
        text = "".join(rng.choice("ACGT") for _ in range(length))
        read = []
        for symbol in text:
            roll = rng.random()
            if roll < rate / 3:
                read.append(rng.choice("ACGT"))
            elif roll < 2 * rate / 3:
                read.append(symbol + rng.choice("ACGT"))
            elif roll >= rate:
                read.append(symbol)
        cut = rng.random()
        if cut < 0.2:
            text = text[: max(1, int(length * rng.uniform(0.5, 0.95)))]
        elif cut < 0.4:
            text += "".join(rng.choice("ACGT") for _ in range(length // 10))
        pairs.append((text, "".join(read) or "A"))
    return pairs


LANE_PAIRS = lane_pairs(37, 17)


def assert_lanes_match_pure(pairs, geometry, expected=None):
    """align_batch equals pure, and align_many answered every pair itself:
    a pair it handed back would be answered by the pure loop and hide a
    lane fault (a wrong stop row, a walk over the wrong lane)."""
    if expected is None:
        expected = PURE.align_batch(pairs, **geometry)
    assert NATIVE.align_batch(pairs, **geometry) == expected
    config = geometry["config"]
    assert kernels.native_align_many(
        pairs,
        window_size=geometry["window_size"],
        overlap=geometry["overlap"],
        program=_compile_order(config.order, config.affine),
    ) == [
        (alignment.cigar.ops, alignment.text_consumed, alignment.edit_distance)
        for alignment in expected
    ]


@pytest.fixture(scope="module")
def pure_lane_alignments():
    return PURE.align_batch(LANE_PAIRS, **GEOMETRY)


@pytest.mark.parametrize("count", [1, 2, 3, 16, 17])
def test_lane_batches_match_pure(pure_lane_alignments, count):
    assert_lanes_match_pure(
        LANE_PAIRS[:count], GEOMETRY, pure_lane_alignments[:count]
    )


def test_lane_batch_in_reverse_order_matches_pure(pure_lane_alignments):
    """Each pair lands in the other lane and beside other partners."""
    assert_lanes_match_pure(
        LANE_PAIRS[::-1], GEOMETRY, pure_lane_alignments[::-1]
    )


def test_the_text_runs_out_in_lane_batches(pure_lane_alignments):
    """The fixture's regions cut short end their reads in insertions."""
    assert sum(
        alignment.cigar.ops.endswith("I" * 100)
        for alignment in pure_lane_alignments
    ) >= 2


def test_lanes_whose_windows_differ_in_text_length_match_pure():
    """Texts shorter than W beside full windows, texts that end mid-window
    while the other lane's does not, equal text lengths with unequal
    pattern lengths, and an empty text between them."""
    rng = random.Random(39)

    def dna(length):
        return "".join(rng.choice("ACGT") for _ in range(length))

    pairs = [
        (dna(40), dna(40)),
        (dna(300), dna(290)),
        (dna(17), dna(30)),
        (dna(64), dna(5)),
        (dna(64), dna(64)),
        (dna(100), dna(130)),
        (dna(1), dna(64)),
        (dna(230), dna(240)),
    ]
    pairs += [(text, text[3:] + dna(3)) for text, _ in pairs]
    # An empty text: the whole read is insertions, no window opens.
    pairs[3:3] = [("", dna(70))]
    assert_lanes_match_pure(pairs, GEOMETRY)


LANE_GEOMETRIES = [
    (window_size, overlap)
    for window_size in (1, 8, 40, 63, 64)
    for overlap in sorted({0, window_size // 3, window_size - 1})
]
GEOMETRY_PAIRS = edited_pairs(40, 4, 400) + [("ACGT" * 30, "ACGA" * 20)]


@pytest.mark.parametrize("window_size, overlap", LANE_GEOMETRIES)
def test_lanes_at_every_window_geometry_match_pure(window_size, overlap):
    geometry = {
        "window_size": window_size,
        "overlap": overlap,
        "config": TracebackConfig(),
    }
    assert_lanes_match_pure(GEOMETRY_PAIRS, geometry)


@pytest.mark.parametrize("config", PROGRAM_CONFIGS, ids=program_id)
def test_lanes_under_every_program_match_pure(config):
    geometry = {"window_size": 64, "overlap": 24, "config": config}
    assert_lanes_match_pure(LANE_PAIRS[:5], geometry)


def test_a_foreign_pattern_or_a_dead_end_refuses_the_whole_batch():
    """A foreign pattern code or a window loop that dead-ends (a program
    with no gap case meets an indel) in the middle of a batch makes C
    answer None for all of it; without them every pair answers as it does
    alone, whichever lane and partner it had."""
    rng = random.Random(41)

    def substituted(length):
        text = "".join(rng.choice("ACGT") for _ in range(length))
        read = "".join(
            rng.choice("ACGT") if rng.random() < 0.1 else symbol
            for symbol in text
        )
        return text, read

    text = "".join(rng.choice("ACGT") for _ in range(300))
    pairs = [
        substituted(300),
        substituted(280),
        (text, text[:100] + "#" + text[100:]),
        substituted(250),
        (text, text[:150] + text[151:]),
        substituted(310),
        substituted(64),
        substituted(200),
    ]
    options = {"window_size": 64, "overlap": 24, "program": bytes([0, 1])}
    assert kernels.native_align_many(pairs, **options) is None
    for bad in (2, 4):  # either one refuses the batch on its own
        alone = [pair for i, pair in enumerate(pairs) if i != 6 - bad]
        assert kernels.native_align_many(alone, **options) is None
    answered = [pair for i, pair in enumerate(pairs) if i not in (2, 4)]
    assert kernels.native_align_many(answered, **options) == [
        kernels.native_align_many([pair], **options)[0] for pair in answered
    ]


# ----------------------------------------------------------------------
# edit_distance_many's lanes and two-row passes
# ----------------------------------------------------------------------

# edit_distance_many sweeps two pairs at once when they are consecutive
# among the pairs it sweeps and share text length and word count, and
# after row 0 it computes rows d and d + 1 in one pass: a pair answers d
# when its row d hits anywhere, else d + 1 when its row d + 1 does and
# d + 1 <= k. Pairs of an exact distance put the answer on either row of a
# pass, at k and one past it, with a lane partner that answers otherwise.

def exact_pair(rng, m, distance, flank=3, shorter=False):
    """A (text, pattern) pair at distance exactly ``distance`` (<= m): the
    pattern is over ACG and the text is the pattern with ``distance`` of its
    symbols turned to T between runs of ``flank`` Ts, so that only its
    m - distance other symbols can match. ``shorter`` deletes those
    symbols instead (with no flank, a text shorter than its pattern)."""
    pattern = "".join(rng.choice("ACG") for _ in range(m))
    text = list(pattern)
    for position in rng.sample(range(m), distance):
        text[position] = "" if shorter else "T"
    return "T" * flank + "".join(text) + "T" * flank, pattern


def assert_distances_match_pure(pairs, k):
    """edit_distance_batch equals pure, and edit_distance_many answered the
    batch itself: a batch it refused would be answered by the pure scan and
    hide a lane or row fault. Returns the pure distances."""
    expected = PURE.edit_distance_batch(pairs, k)
    assert NATIVE.edit_distance_batch(pairs, k) == expected
    assert kernels.native_edit_distance_many(pairs, k) == [
        -1 if distance is None else distance for distance in expected
    ]
    return expected


FIRST_HIT_LENGTHS = [1, 2, 63, 64, 65, 100, 127, 128, 129, 256, 257, 300]


@pytest.mark.parametrize("m", FIRST_HIT_LENGTHS)
def test_first_hit_answers_at_k_and_one_past_it_match_pure(m):
    """For each k, lane partners at distance k and k + 1 (capped at m), in
    both lanes, and k - 2 beside k + 1: an odd k puts k on a pass's low row
    and k + 1 on its high row, an even k puts k + 1 on the next pass's low
    row, and an odd k - 2 hits on both rows of its pass."""
    rng = random.Random(m)
    for k in sorted({0, 1, 2, 5, 10, m - 1, m, m + 5}):
        at, past, near = min(k, m), min(k + 1, m), min(max(k - 2, 0), m)
        distances = [at, past, past, at, near, past]
        pairs = [exact_pair(rng, m, distance) for distance in distances]
        expected = assert_distances_match_pure(pairs, k)
        assert expected == [d if d <= k else None for d in distances]
        shorter = [
            exact_pair(rng, m, distance, flank=0, shorter=True)
            for distance in distances
        ]
        assert_distances_match_pure(shorter, k)


def first_hit_pool(seed, count):
    """Pairs of three shapes that repeat, so that neighbours often share
    text length and word count, at distances 0-8 around k = 5."""
    rng = random.Random(seed)
    shapes = [(100, 3), (100, 3), (60, 2), (130, 4)]
    return [
        exact_pair(rng, m, rng.randint(0, 8), flank)
        for m, flank in (rng.choice(shapes) for _ in range(count))
    ]


FIRST_HIT_POOL = first_hit_pool(42, 17)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("count", [1, 2, 3, 16, 17])
def test_first_hit_batches_match_pure(count, reverse):
    pairs = FIRST_HIT_POOL[:count]
    assert_distances_match_pure(pairs[::-1] if reverse else pairs, 5)


def test_first_hit_lane_partners_around_odd_pairs_match_pure():
    """Neighbours of unequal text length or word count, and an empty text
    between two pairs that can share a sweep: every pair answers as it does
    alone. A foreign pattern code among them refuses the batch."""
    rng = random.Random(43)

    def trimmed(text, pattern):  # one flank symbol fewer: n - 1
        return text[:-1], pattern

    pairs = [
        exact_pair(rng, 100, 4, flank=3),
        exact_pair(rng, 100, 2, flank=4),  # n two longer
        exact_pair(rng, 64, 6, flank=3),
        trimmed(*exact_pair(rng, 65, 1, flank=3)),  # n of the 64, two words
        trimmed(*exact_pair(rng, 65, 3, flank=3)),  # its partner
        exact_pair(rng, 120, 5, flank=3),
        ("", "ACGTACGT"),
        exact_pair(rng, 120, 6, flank=3),
        exact_pair(rng, 90, 3, flank=3),
        exact_pair(rng, 90, 5, flank=3),
        exact_pair(rng, 90, 0, flank=3),
    ]
    assert_distances_match_pure(pairs, 5)
    assert kernels.native_edit_distance_many(pairs, 5) == [
        kernels.native_edit_distance_many([pair], 5)[0] for pair in pairs
    ]
    foreign = pairs[:9] + [("ACGTACGT", "ACG#ACG")] + pairs[9:]
    assert kernels.native_edit_distance_many(foreign, 5) is None


# ----------------------------------------------------------------------
# The pieces pass
# ----------------------------------------------------------------------

# Before a pair takes a lane, scan_many and edit_distance_many look for
# each of the k + 1 pieces of its pattern in its text, exactly; a pair with
# none cannot hold an alignment within k edits and is answered there. The
# pigeonhole cases (cases.py) put exactly k edits in all pieces but one,
# or k + 1 in all of them, with the survivor first, last or across the
# word boundary, over texts and patterns with wildcards.

PIGEONHOLE_BY_K: dict[int, list[tuple[str, str]]] = {}
for _case in PIGEONHOLE_CASES:
    PIGEONHOLE_BY_K.setdefault(_case.k, []).append((_case.text, _case.pattern))


@pytest.mark.parametrize("k", sorted(PIGEONHOLE_BY_K))
def test_pigeonhole_edges_match_pure(k):
    pairs = PIGEONHOLE_BY_K[k]
    distances = assert_distances_match_pure(pairs, k)
    assert any(distance is None for distance in distances)
    assert any(distance == k for distance in distances)
    for first in (False, True):
        assert kernels.native_scan_many(pairs, k, first_match_only=first) == (
            PURE.scan_batch(pairs, k, first_match_only=first)
        )


def pigeonhole_pairs(m, k, edits):
    return [
        (case.text, case.pattern) for case in PIGEONHOLE_CASES
        if case.name.startswith(f"pieces_m{m}_k{k}_")
        and case.name.endswith(f"_S_{edits}")
    ]


def test_pairs_the_pieces_pass_answers_take_no_lane():
    """Rejects between survivors of one text length and word count: one,
    two in a row, one of another text length, and one first and last. A
    reject neither flushes the pair waiting for a partner nor builds its
    masks over that pair's, so every pair answers as it does alone."""
    survivors = pigeonhole_pairs(100, 5, "k") + pigeonhole_pairs(128, 5, "k")
    rejects = pigeonhole_pairs(100, 5, "k+1") + pigeonhole_pairs(128, 5, "k+1")
    assert len(survivors) == len(rejects) == 6
    s, r = survivors, rejects
    batch = [
        r[0], s[0], r[1], s[1], r[2], r[3], s[2], r[4], s[3], s[4],
        r[5], s[5], r[0],
    ]
    for pairs in (batch, batch[::-1], batch[1:]):
        distances = assert_distances_match_pure(pairs, 5)
        assert distances == [5 if pair in s else None for pair in pairs]
        assert kernels.native_edit_distance_many(pairs, 5) == [
            kernels.native_edit_distance_many([pair], 5)[0] for pair in pairs
        ]
        for first in (False, True):
            scans = kernels.native_scan_many(pairs, 5, first_match_only=first)
            assert scans == PURE.scan_batch(pairs, 5, first_match_only=first)
            assert scans == [
                kernels.native_scan_many([pair], 5,
                                         first_match_only=first)[0]
                for pair in pairs
            ]


@pytest.mark.parametrize("threshold", [4, 5])
def test_map_many_filters_at_its_threshold_like_the_staged_path(
    mapping_genome, threshold
):
    """Reads with exactly ``threshold`` substitutions map and reads with one
    more are filtered out, on map_many's one-lane sweep and on the staged
    path alike; at threshold 5 the one past it sits on a pass's high row."""
    sequence = mapping_genome.sequence
    reads = []
    for i, edits in enumerate([threshold, threshold + 1] * 3):
        start = 500 + 900 * i
        read = list(sequence[start : start + 100])
        for position in range(8, 8 + 12 * edits, 12):
            read[position] = "A" if read[position] != "A" else "C"
        reads.append((f"r{i}", "".join(read)))
    one_call = ReadMapper(
        genome=mapping_genome,
        index=KmerIndex.build(mapping_genome, k=11),
        prefilter=GenAsmFilter(threshold),
        engine="native",
    )
    staged = one_call.with_engine("pure")
    assert one_call.maps_in_one_call() and not staged.maps_in_one_call()
    results = one_call.map_reads(reads)
    assert results == staged.map_reads(reads)
    assert one_call.stats == staged.stats
    assert [result.record.is_mapped for result in results] == [True, False] * 3
    assert one_call.stats.filtered_out >= 3


def test_a_read_with_a_foreign_character_stages_the_whole_batch(
    mapping_genome,
):
    """A read holding a character outside the alphabet (here one that is
    not latin-1) makes map_many refuse the batch: the staged path maps all
    64 reads, and every result is the pure staged path's. The odd read has
    a '€' every tenth symbol, so it seeds nowhere and the staged path
    answers it (unmapped) instead of raising."""
    sequence = mapping_genome.sequence
    reads = [
        (f"r{i}", sequence[40 + 90 * i : 140 + 90 * i]) for i in range(64)
    ]
    odd = "".join(
        "\u20ac" if j % 10 == 5 else symbol
        for j, symbol in enumerate(reads[17][1])
    )
    reads[17] = ("euro", odd)
    one_call = ReadMapper(
        genome=mapping_genome,
        index=KmerIndex.build(mapping_genome, k=11),
        prefilter=GenAsmFilter(4),
        engine="native",
    )
    staged = one_call.with_engine("pure")
    batches = []
    map_staged = one_call._map_staged
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            one_call, "_map_staged",
            lambda batch: batches.append(len(batch)) or map_staged(batch),
        )
        results = one_call.map_reads(reads)
        assert batches == [64]
        assert one_call.map_reads(reads[:17] + reads[18:]) == (
            staged.map_reads(reads[:17] + reads[18:])
        )
        assert batches == [64]  # without the odd read: the one C call
    assert results == staged.map_reads(reads)
    assert not results[17].record.is_mapped
    assert sum(result.record.is_mapped for result in results) == 63
    for name in ("reads", "candidates", "filtered_out", "alignments_run",
                 "mapped"):
        assert getattr(one_call.stats, name) == getattr(staged.stats, name)


# ----------------------------------------------------------------------
# Whole-batch parity over mixed batches
# ----------------------------------------------------------------------

# ASCII symbols and the wildcard N; é (latin-1: the sentinel in a text,
# foreign in a pattern); € (not latin-1); empty sides.
MIXED_SYMBOLS = "ACGTN\xe9\u20ac"
mixed_pair_st = st.tuples(
    st.one_of(
        st.text(alphabet="ACGT", max_size=90),
        st.text(alphabet=MIXED_SYMBOLS, max_size=90),
    ),
    st.one_of(
        st.text(alphabet="ACGTN", min_size=1, max_size=70),
        st.text(alphabet="ACGT", min_size=1, max_size=70),
        st.text(alphabet=MIXED_SYMBOLS, max_size=70),
    ),
)


def outcome(call, *args, **kwargs):
    """``call``'s result, or the type and message of what it raised."""
    try:
        return call(*args, **kwargs)
    except ValueError as error:
        return type(error), str(error)


def answerable(pairs):
    """The pairs the pure kernels answer rather than raise for: a mixed
    batch seldom has none that raise, so parity is also asserted on these."""
    return [pair for pair in pairs if pair[1] and set(pair[1]) <= set("ACGTN")]


def assert_whole_batch(answers, pairs, expected, *, sweep):
    """C answered None exactly when some pattern is foreign (or, for a
    sweep, empty); otherwise the whole batch, equal to ``expected()``."""
    refused = any(
        not set(pattern) <= set("ACGTN") or (sweep and not pattern)
        for _, pattern in pairs
    )
    if refused:
        assert answers is None
    else:
        assert answers == expected()


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(mixed_pair_st, max_size=10),
    k=st.integers(min_value=0, max_value=8),
    first=st.booleans(),
)
def test_mixed_scan_and_distance_batches_answer_whole_like_pure(
    pairs, k, first
):
    kept = answerable(pairs)
    assert NATIVE.scan_batch(kept, k, first_match_only=first) == (
        PURE.scan_batch(kept, k, first_match_only=first)
    )
    assert NATIVE.edit_distance_batch(kept, k) == (
        PURE.edit_distance_batch(kept, k)
    )
    assert outcome(
        NATIVE.scan_batch, pairs, k, first_match_only=first
    ) == outcome(PURE.scan_batch, pairs, k, first_match_only=first)
    assert outcome(NATIVE.edit_distance_batch, pairs, k) == outcome(
        PURE.edit_distance_batch, pairs, k
    )
    assert_whole_batch(
        kernels.native_scan_many(pairs, k, first_match_only=first),
        pairs,
        lambda: PURE.scan_batch(pairs, k, first_match_only=first),
        sweep=True,
    )
    assert_whole_batch(
        kernels.native_edit_distance_many(pairs, k),
        pairs,
        lambda: [
            -1 if distance is None else distance
            for distance in PURE.edit_distance_batch(pairs, k)
        ],
        sweep=True,
    )


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(mixed_pair_st, max_size=8))
def test_mixed_align_batches_answer_whole_like_pure(pairs):
    kept = answerable(pairs)
    assert NATIVE.align_batch(kept, **GEOMETRY) == PURE.align_batch(
        kept, **GEOMETRY
    )
    assert outcome(NATIVE.align_batch, pairs, **GEOMETRY) == outcome(
        PURE.align_batch, pairs, **GEOMETRY
    )
    config = GEOMETRY["config"]
    assert_whole_batch(
        kernels.native_align_many(
            pairs, window_size=64, overlap=24,
            program=_compile_order(config.order, config.affine),
        ),
        pairs,
        lambda: [
            (alignment.cigar.ops, alignment.text_consumed,
             alignment.edit_distance)
            for alignment in PURE.align_batch(pairs, **GEOMETRY)
        ],
        sweep=False,
    )


def test_a_huge_k_is_capped_per_pair_in_c(monkeypatch):
    """C caps k per pair and answers a batch with a non-latin-1 text
    itself: the pure path is never asked."""
    pairs = [
        ("ACGTACGTAC", "ACG"),
        ("AC\u20acGTACGTTT", "ACGTA"),
        ("TTTT", "ACGTACGTACGTAC"),
    ]
    huge = (10**9, 10**30)
    expected = {
        (k, first): PURE.scan_batch(pairs, k, first_match_only=first)
        for k in huge
        for first in (False, True)
    }
    distances = {k: PURE.edit_distance_batch(pairs, k) for k in huge}

    def unreachable(*args, **kwargs):
        raise AssertionError("the pure scan ran")

    monkeypatch.setattr(PurePythonEngine, "scan_batch", unreachable)
    for k in huge:
        assert NATIVE.edit_distance_batch(pairs, k) == distances[k]
        for first in (False, True):
            assert NATIVE.scan_batch(pairs, k, first_match_only=first) == (
                expected[k, first]
            )
    with pytest.raises(ValueError, match="k must be non-negative"):
        NATIVE.edit_distance_batch(pairs, -1)
    with pytest.raises(ValueError, match="k must be non-negative"):
        NATIVE.scan_batch(pairs, -1)


# ----------------------------------------------------------------------
# Direct calls with malformed arguments
# ----------------------------------------------------------------------

def q(*values):
    return array("q", values)


# Two pairs and the DNA codec's tables, as kernels.py hands them over.
PAIRS = [("ACGT", "AC"), ("GG", "T")]
TEXT_TABLE, PATTERN_TABLE, _ = kernels._codec(DNA)
PROGRAM = bytes([0, 1, 2, 3])
GEOMETRY = {"window_size": 64, "overlap": 24, "config": TracebackConfig()}


def pure_scans(first_match_only):
    return [
        [(match.start, match.distance) for match in matches]
        for matches in PURE.scan_batch(
            PAIRS, 1, first_match_only=first_match_only
        )
    ]


def pure_distances():
    """``edit_distance_many``'s answers: -1 where no distance <= 1 hits."""
    return [
        -1 if distance is None else distance
        for distance in PURE.edit_distance_batch(PAIRS, 1)
    ]


def pure_alignments():
    return [
        (alignment.cigar.ops, alignment.text_consumed, alignment.edit_distance)
        for alignment in PURE.align_batch(PAIRS, **GEOMETRY)
    ]


def with_code(table, character, code):
    """A copy of a codec ``table`` that codes ``character`` as ``code``."""
    changed = bytearray(table)
    changed[ord(character)] = code
    return bytes(changed)


def batch_arguments(**overrides):
    arguments = dict(
        pairs=PAIRS,
        text_table=TEXT_TABLE,
        pattern_table=PATTERN_TABLE,
        n_symbols=4,
    )
    arguments.update(overrides)
    return tuple(arguments.values())


def test_well_formed_direct_calls_answer():
    """The fixture the malformed cases each break in one place."""
    native = kernels._native
    assert native.scan_many(*batch_arguments(), 1, False) == pure_scans(False)
    assert native.edit_distance_many(*batch_arguments(), 1) == pure_distances()
    assert native.align_many(*batch_arguments(), 64, 24, PROGRAM) == (
        pure_alignments()
    )
    empty = batch_arguments(pairs=[])
    assert native.scan_many(*empty, 1, False) == []
    assert native.edit_distance_many(*empty, 1) == []
    assert native.align_many(*empty, 64, 24, PROGRAM) == []
    # Pairs may be lists, and the batch any sequence or iterable.
    for pairs in ([list(pair) for pair in PAIRS], tuple(PAIRS), iter(PAIRS)):
        assert native.edit_distance_many(
            *batch_arguments(pairs=pairs), 1
        ) == pure_distances()


# align_many's lane edges, called directly: one lane idle from the start,
# both lanes busy, a pair left alone at the end, one-symbol windows, and a
# pattern shorter than W beside a full-width window.
ALIGN_EDGES = {
    "one_pair": (edited_pairs(42, 1, 150), 64, 24),
    "two_pairs": (edited_pairs(43, 2, 150), 64, 24),
    "three_pairs": (edited_pairs(44, 3, 150), 64, 24),
    "one_symbol_windows": (edited_pairs(45, 3, 40), 1, 0),
    "short_pattern_beside_a_full_window": (
        edited_pairs(46, 1, 150) + [("ACGTTACGAC", "ACGTAC")], 64, 24
    ),
}


@pytest.mark.parametrize("case", ALIGN_EDGES)
def test_well_formed_align_many_lane_edges_answer(case):
    pairs, window_size, overlap = ALIGN_EDGES[case]
    config = TracebackConfig()
    expected = [
        (alignment.cigar.ops, alignment.text_consumed, alignment.edit_distance)
        for alignment in PURE.align_batch(
            pairs, window_size=window_size, overlap=overlap, config=config
        )
    ]
    assert kernels._native.align_many(
        *batch_arguments(pairs=pairs), window_size, overlap,
        bytes(_compile_order(config.order, config.affine)),
    ) == expected


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.text(alphabet="ACGTN", max_size=150),
            st.text(alphabet="ACGTN", min_size=1, max_size=150),
        ),
        max_size=8,
    ),
)
def test_align_many_counts_the_edits_it_emits(pairs):
    """The third element is what ``Alignment.from_ops`` would have counted,
    trailing insertions past the end of the text included."""
    aligned = kernels.native_align_many(
        pairs, window_size=64, overlap=24, program=PROGRAM
    )
    for ops, _, edits in aligned:
        assert edits == len(ops) - ops.count("M")


def test_the_kernels_write_only_msid_ops():
    """``Cigar.from_kernel`` wraps align_many's and map_many's ops without
    ``Cigar.__post_init__``'s check, so their op alphabet is pinned here:
    every corpus pair aligned under every program, and every corpus case
    mapped from a reference built of the case texts (both strands)."""
    pairs = [(case.text, case.pattern) for case in CORPUS]
    for config in PROGRAM_CONFIGS:
        aligned = kernels.native_align_many(
            pairs, window_size=64, overlap=24,
            program=_compile_order(config.order, config.affine),
        )
        assert len(aligned) == len(pairs)
        for ops, _, _ in aligned:
            assert set(ops) <= set("MSID")
    rng = random.Random(71)
    pieces = []
    for case in CORPUS:
        pieces += ["".join(rng.choice("ACGT") for _ in range(150)), case.text]
    genome = Genome("corpus", "".join(pieces))
    reads = [
        (case.name + strand, read)
        for case in CORPUS
        for strand, read in (("", case.pattern),
                             ("/rc", DNA.reverse_complement(case.pattern)))
    ]
    mapper = make_genasm_mapper(
        genome, seed_length=8, error_rate=0.10, engine="native"
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mapper, "_map_staged", None)  # C must answer
        results = mapper.map_reads(reads)
    mapped = [result for result in results if result.alignment is not None]
    assert len(mapped) > len(reads) // 2
    for result in mapped:
        assert set(result.alignment.cigar.ops) <= set("MSID")
    with pytest.raises(ValueError):
        Cigar("MX")  # any other caller's ops are still checked


def test_the_budget_argument_is_gone_from_the_abi():
    """A caller built against the old arity gets TypeError, not a crash."""
    native = kernels._native
    with pytest.raises(TypeError):
        native.align_many(*batch_arguments(), 64, 24, 8, PROGRAM)
    with pytest.raises(TypeError):
        native.dc_window(b"\x00\x01", b"\x00\x01", 4, 8)
    with pytest.raises(TypeError):
        native.dc_window(b"\x00\x01", b"\x00\x01")
    with pytest.raises(TypeError):
        native.align_many(*batch_arguments(), 64, 24)
    assert native.dc_window(b"\x00\x01", b"\x00\x01", 4) == (
        0,
        b"".join(value.to_bytes(8, "little") for value in (1, 2, 3)),
    )


def test_the_offset_arrays_are_gone_from_the_abi():
    """A caller that still packs code buffers and offsets gets TypeError."""
    native = kernels._native
    packed = (bytes([0, 1, 2, 3, 2, 2]), q(0, 4, 6), bytes([0, 1, 3]),
              q(0, 2, 3), 4)
    with pytest.raises(TypeError):
        native.scan_many(*packed, 1, False)
    with pytest.raises(TypeError):
        native.edit_distance_many(*packed, 1)
    with pytest.raises(TypeError):
        native.align_many(*packed, 64, 24, PROGRAM)


# Each breaks one thing the list ABI checks: the batch and its items as C
# codes them, the tables and n_symbols once a call.
MALFORMED_BATCHES = {
    "batch_not_a_sequence": (TypeError, dict(pairs=5)),
    "batch_none": (TypeError, dict(pairs=None)),
    "item_not_a_pair": (TypeError, dict(pairs=[PAIRS[0], "GG"])),
    "item_of_three": (TypeError, dict(pairs=[("ACGT", "AC", "A")])),
    "item_of_one": (TypeError, dict(pairs=[("ACGT",)])),
    "item_a_set": (TypeError, dict(pairs=[{"ACGT", "AC"}])),
    "text_bytes": (TypeError, dict(pairs=[(b"ACGT", "AC")])),
    "pattern_bytes": (TypeError, dict(pairs=[("ACGT", b"AC")])),
    "pattern_none": (TypeError, dict(pairs=[("ACGT", None)])),
    "bad_side_after_good_pairs": (
        TypeError, dict(pairs=PAIRS * 20 + [("ACGT", bytearray(b"AC"))])
    ),
    "text_table_one_short": (ValueError, dict(text_table=TEXT_TABLE[:-1])),
    "text_table_one_long": (ValueError, dict(text_table=TEXT_TABLE + b"\x00")),
    "pattern_table_one_short": (
        ValueError, dict(pattern_table=PATTERN_TABLE[:-1])
    ),
    "pattern_table_empty": (ValueError, dict(pattern_table=b"")),
    "table_a_str": (TypeError, dict(text_table="\x04" * 256)),
    "text_table_entry_above_n_symbols": (
        ValueError, dict(text_table=with_code(TEXT_TABLE, "G", 5))
    ),
    "text_table_entry_255": (
        ValueError, dict(text_table=with_code(TEXT_TABLE, "\x00", 255))
    ),
    "n_symbols_zero": (ValueError, dict(n_symbols=0)),
    "n_symbols_negative": (ValueError, dict(n_symbols=-1)),
    "n_symbols_255": (ValueError, dict(n_symbols=255)),
}


@pytest.mark.parametrize("case", MALFORMED_BATCHES)
def test_malformed_batches_raise(case):
    error, overrides = MALFORMED_BATCHES[case]
    arguments = batch_arguments(**overrides)
    with pytest.raises(error):
        kernels._native.scan_many(*arguments, 1, False)
    with pytest.raises(error):
        kernels._native.edit_distance_many(*arguments, 1)
    with pytest.raises(error):
        kernels._native.align_many(*arguments, 64, 24, PROGRAM)


def test_scan_many_rejects_negative_k():
    with pytest.raises(ValueError, match="non-negative"):
        kernels._native.scan_many(*batch_arguments(), -1, False)


def test_edit_distance_many_rejects_negative_k():
    with pytest.raises(ValueError, match="non-negative"):
        kernels._native.edit_distance_many(*batch_arguments(), -1)


def test_edit_distance_many_takes_no_first_match_flag():
    with pytest.raises(TypeError):
        kernels._native.edit_distance_many(*batch_arguments(), 1, False)
    with pytest.raises(TypeError):
        kernels._native.edit_distance_many(*batch_arguments())


@pytest.mark.parametrize(
    "window_size, overlap",
    [(0, 0), (65, 24), (-1, 0), (8, 8), (8, 9), (8, -1)],
)
def test_align_many_rejects_bad_window_geometry(window_size, overlap):
    with pytest.raises(ValueError, match="window_size|overlap"):
        kernels._native.align_many(
            *batch_arguments(), window_size, overlap, PROGRAM
        )


BAD_PROGRAMS = [bytes([9, 0, 1, 2, 3]), bytes([0, 1, 2, 3, 6]), bytes([255])]


@pytest.mark.parametrize("program", BAD_PROGRAMS)
def test_align_many_rejects_an_opcode_above_5(program):
    """Such an opcode used to act as DELETION_EXTEND."""
    with pytest.raises(ValueError, match="opcode at position"):
        kernels._native.align_many(*batch_arguments(), 64, 24, program)
    with pytest.raises(ValueError, match="opcode at position"):
        kernels.native_align_many(
            [("ACGTTACG", "ACGTACG")], window_size=64, overlap=24,
            program=program,
        )


# Pairs C does not answer, each beside one it does: C answers None for the
# batch, and the engine runs it whole on the pure path, which raises (or,
# for an empty text or pattern, aligns) exactly as the pure backend does.
# An empty pattern aligns to an empty CIGAR, so only the sweeps refuse it.
REFUSED = {
    "foreign_pattern_character": ("ACGT", "A#"),
    "latin_1_pattern_character": ("ACGT", "A\xe9"),
    "non_latin_1_pattern": ("ACGT", "A\u20ac"),
    "non_latin_1_pattern_of_4_bytes": ("ACGT", "A\U0001F9EC"),
    "empty_text_foreign_pattern": ("", "A#"),
    "empty_pattern": ("ACGT", ""),
    "both_empty": ("", ""),
}


@pytest.mark.parametrize("case", REFUSED)
@pytest.mark.parametrize("first", [False, True])
def test_a_pair_c_does_not_answer_refuses_the_batch(case, first):
    pair = REFUSED[case]
    for pairs in ([pair, PAIRS[1]], [PAIRS[1], pair]):
        arguments = batch_arguments(pairs=pairs)
        assert kernels._native.scan_many(*arguments, 1, first) is None
        assert kernels._native.edit_distance_many(*arguments, 1) is None
        aligned = kernels._native.align_many(*arguments, 64, 24, PROGRAM)
        if pair[1]:
            assert aligned is None
        else:
            assert aligned[pairs.index(pair)] == ("", 0, 0)
        assert outcome(NATIVE.scan_batch, pairs, 1, first_match_only=first) == (
            outcome(PURE.scan_batch, pairs, 1, first_match_only=first)
        )
        assert outcome(NATIVE.align_batch, pairs, **GEOMETRY) == (
            outcome(PURE.align_batch, pairs, **GEOMETRY)
        )


class StrSubclass(str):
    """A str subclass: CPython keeps its characters apart from the object,
    where C must find them too."""


# Texts C reads at 2 and 4 bytes a character, the odd character first,
# last, alone or in a run (U+0141 and U+1F943 end in the bytes of "A" and
# "C", so a coder that kept only the low byte would match them); 1-character
# sides; str subclasses on both sides.
WIDE_PAIRS = [
    (text, pattern)
    for odd in ("\u20ac", "\u0141", "\U0001F9EC", "\U0001F943")
    for text in (odd + "ACGTACGT", "ACGTACGT" + odd, odd, "AC" + odd * 3 + "GT")
    for pattern in ("ACGT", "A", "GTN")
] + [
    ("A", "A"),
    ("C", "A"),
    ("A", "ACGT"),
    ("\xe9", "T"),
    (StrSubclass("ACGT\u20acACGT"), StrSubclass("CGTA")),
    (StrSubclass("ACGTACGT"), "A"),
    ("TTACG\U0001F9EC", StrSubclass("ACG")),
    (StrSubclass(""), StrSubclass("G")),
]


def test_texts_of_every_width_are_answered_in_c():
    """C answers these batches itself, equal to pure, whatever the order."""
    for pairs in (WIDE_PAIRS, WIDE_PAIRS[::-1]):
        for first in (False, True):
            assert kernels.native_scan_many(pairs, 2, first_match_only=first) == (
                PURE.scan_batch(pairs, 2, first_match_only=first)
            )
        assert kernels.native_edit_distance_many(pairs, 2) == [
            -1 if distance is None else distance
            for distance in PURE.edit_distance_batch(pairs, 2)
        ]
        config = TracebackConfig()
        for window_size, overlap in ((64, 24), (4, 1), (1, 0)):
            assert kernels.native_align_many(
                pairs, window_size=window_size, overlap=overlap,
                program=_compile_order(config.order, config.affine),
            ) == [
                (alignment.cigar.ops, alignment.text_consumed,
                 alignment.edit_distance)
                for alignment in PURE.align_batch(
                    pairs, window_size=window_size, overlap=overlap,
                    config=config,
                )
            ]


def test_foreign_pattern_code_refuses_the_batch():
    """A pattern table may code past the wildcard: that marks the pattern
    foreign, C answers None for the batch, and the engine runs the batch on
    the pure path, which raises."""
    arguments = batch_arguments(pattern_table=with_code(PATTERN_TABLE, "C", 5))
    assert kernels._native.edit_distance_many(*arguments, 1) is None
    with pytest.raises(ValueError, match="not in alphabet"):
        NATIVE.edit_distance_batch([("ACGT", "A#")], 1)


def test_every_entry_point_rejects_a_text_code_above_n_symbols():
    """Such a code indexes a mask row ``build_masks`` never wrote: the
    batch entry points refuse a text table that holds one, ``dc_window``
    a text that does."""
    native = kernels._native
    bad = batch_arguments(text_table=with_code(TEXT_TABLE, "\x00", 255))
    with pytest.raises(ValueError, match="text table entry 0 out of"):
        native.scan_many(*bad, 1, False)
    with pytest.raises(ValueError, match="text table entry 0 out of"):
        native.edit_distance_many(*bad, 1)
    with pytest.raises(ValueError, match="text table entry 0 out of"):
        native.align_many(*bad, 64, 24, PROGRAM)
    with pytest.raises(ValueError, match="text table entry 0 out of"):
        native.seed_many(
            *seed_arguments(table=with_code(TEXT_TABLE, "\x00", 255))
        )
    with pytest.raises(ValueError, match="text code at position 0"):
        native.dc_window(b"\xff\x00", b"\x00\x01", 4)


@pytest.mark.parametrize("position", [1, 63, 64, 65, 127, 128, 199])
def test_the_first_code_above_n_symbols_is_found_in_any_block(position):
    """Codes are checked 64 at a time: the text table entry reported is
    still the first, and a foreign pattern code anywhere still refuses the
    batch."""
    native = kernels._native
    table = bytearray(TEXT_TABLE)
    table[position] = 5
    table[-1] = 9
    with pytest.raises(ValueError, match=f"entry {position} out of"):
        native.edit_distance_many(*batch_arguments(text_table=bytes(table)), 1)
    pattern = ["A"] * 200
    pattern[position] = "#"
    assert native.align_many(
        *batch_arguments(pairs=[("A" * 200, "".join(pattern))]), 64, 24,
        PROGRAM,
    ) is None


# ----------------------------------------------------------------------
# kmer_index_build / seed_many / map_many: direct calls with malformed
# arguments
# ----------------------------------------------------------------------

# "ACGTACGTTT" at k = 4: ACGT x2, CGTA, CGTT, GTAC, GTTT, TACG.
REFERENCE = bytes([0, 1, 2, 3, 0, 1, 2, 3, 3, 3])
INDEX_CODES = array("Q", [0x1B, 0x6C, 0x6F, 0xB1, 0xBF, 0xC6])
INDEX_STARTS = q(0, 2, 3, 4, 5, 6, 7)
INDEX_POSITIONS = array("i", [0, 4, 1, 5, 2, 6, 3])


def directory_of(codes):
    """The prefix directory of 8-bit (k = 4, DNA) codes: 2**8 + 1 entries."""
    return array("i", [bisect_left(codes, prefix) for prefix in range(257)])


INDEX_DIRECTORY = directory_of(INDEX_CODES)
EMPTY_DIRECTORY = array("i", [0] * 257)
READS = ["ACGTACGT", "GTTT"]
SEED_OPTIONS = dict(stride=4, max_candidates=8, diagonal_tolerance=0)


def pure_seeds(reads=READS, **options):
    """What the pure seeding loop answers for ``reads``."""
    index = KmerIndex.from_seed_positions(
        4,
        [("ACGT", [0, 4]), ("CGTA", [1]), ("CGTT", [5]), ("GTAC", [2]),
         ("GTTT", [6]), ("TACG", [3])],
        genome_length=len(REFERENCE),
    )
    assert (index.codes, index.starts, index.positions, index.directory) == (
        INDEX_CODES, INDEX_STARTS, INDEX_POSITIONS, INDEX_DIRECTORY
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_native", None)
        return candidate_locations_batch(
            reads, index, **{**SEED_OPTIONS, **options}
        )


SEEDED = ([0, 0, 0, 1], [0, 0, 4, 6], [2, 1, 1, 1])


def seed_arguments(**overrides):
    arguments = dict(
        reads=READS,
        table=TEXT_TABLE,
        n_symbols=4,
        codes=INDEX_CODES,
        starts=INDEX_STARTS,
        positions=INDEX_POSITIONS,
        directory=INDEX_DIRECTORY,
        k=4,
        **SEED_OPTIONS,
    )
    arguments.update(overrides)
    return tuple(arguments.values())


def test_seed_many_codes_a_wide_read_character_as_the_sentinel(
    mapping_genome,
):
    """Reads holding '€' (UCS-2) or an emoji (UCS-4) seed in C, whole batch,
    exactly like the pure seeding loop: the character breaks the k-mers
    around it as any character outside the alphabet does."""
    index = KmerIndex.build(mapping_genome, k=11)
    sequence = mapping_genome.sequence
    reads = [sequence[100 * i : 100 * i + 100] for i in range(1, 9)]
    for i, odd in ((1, "\u20ac"), (3, "\u0141"), (4, "\U0001F9EC"),
                   (6, "\U0001F943")):
        for at in (0, 37, 99):  # first, inside, last
            reads[i] = reads[i][:at] + odd + reads[i][at + 1 :]
    reads += ["\u20ac", "\U0001F9EC" * 30, "\xe9" * 12, StrSubclass(reads[0])]
    options = dict(max_candidates=8, diagonal_tolerance=8, stride=11)
    seeded = kernels.native_seed_many(reads, index, **options)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_native", None)
        assert seeded == candidate_locations_batch(reads, index, **options)
    assert set(seeded[0]) >= {1, 3, 4, 6}  # the odd reads still seed


def test_well_formed_index_and_seed_calls_answer():
    native = kernels._native
    assert native.kmer_index_build(REFERENCE, 4, 4, 128) == (
        INDEX_CODES.tobytes(),
        INDEX_STARTS.tobytes(),
        INDEX_POSITIONS.tobytes(),
        INDEX_DIRECTORY.tobytes(),
        0,
    )
    assert native.kmer_index_build(REFERENCE, 4, 4, 1) == (
        INDEX_CODES[1:].tobytes(),
        q(0, 1, 2, 3, 4, 5).tobytes(),
        array("i", [1, 5, 2, 6, 3]).tobytes(),
        directory_of(INDEX_CODES[1:]).tobytes(),
        1,
    )
    # Shorter than k, empty, and all-wildcard references index nothing.
    for reference in (bytes([0, 1, 2]), b"", bytes([4] * 9)):
        assert native.kmer_index_build(reference, 4, 4, 128) == (
            b"", q(0).tobytes(), b"", EMPTY_DIRECTORY.tobytes(), 0
        )
    # The directory is indexed by the top 16 bits of longer codes.
    assert len(native.kmer_index_build(REFERENCE, 4, 9, 128)[3]) == 4 * (
        2**16 + 1
    )
    assert native.seed_many(*seed_arguments()) == SEEDED == pure_seeds()
    assert native.seed_many(*seed_arguments(reads=[])) == ([], [], [])
    # A read that is not latin-1 seeds in C like any other.
    wide = [*READS, "\u20acACGT", "GTT\U0001F9ECGTTT"]
    assert native.seed_many(*seed_arguments(reads=wide)) == (
        pure_seeds(reads=wide)
    )
    # An empty index answers every read with no candidates.
    assert native.seed_many(
        *seed_arguments(
            codes=b"", starts=q(0), positions=b"", directory=EMPTY_DIRECTORY
        )
    ) == ([], [], [])


def test_seed_many_takes_read_only_and_writable_buffers_alike():
    """The index buffers, that is; the table is bytes, as _codec makes it."""
    native = kernels._native
    as_bytes = seed_arguments(
        codes=INDEX_CODES.tobytes(),
        starts=INDEX_STARTS.tobytes(),
        positions=INDEX_POSITIONS.tobytes(),
        directory=INDEX_DIRECTORY.tobytes(),
    )
    as_bytearrays = tuple(
        bytearray(argument)
        if isinstance(argument, bytes) and argument is not TEXT_TABLE
        else argument
        for argument in as_bytes
    )
    assert native.seed_many(*as_bytes) == SEEDED
    assert native.seed_many(*as_bytearrays) == SEEDED
    assert native.kmer_index_build(bytearray(REFERENCE), 4, 4, 128) == (
        native.kmer_index_build(REFERENCE, 4, 4, 128)
    )


def shifted(buffer):
    """``buffer``'s bytes at an odd address."""
    return memoryview(b"\x00" + buffer.tobytes())[1:]


def test_unaligned_index_buffers_are_read_safely():
    arguments = seed_arguments(
        codes=shifted(INDEX_CODES),
        starts=shifted(INDEX_STARTS),
        positions=shifted(INDEX_POSITIONS),
        directory=shifted(INDEX_DIRECTORY),
    )
    assert kernels._native.seed_many(*arguments) == SEEDED


def with_entries(directory, **entries):
    """A copy of ``directory`` with entries ``e<j>=value`` replaced."""
    changed = array("i", directory)
    for name, value in entries.items():
        changed[int(name[1:])] = value
    return changed


# ACGT (code 0x1B) reads entries 27 and 28, GTTT (0xBF) 191 and 192.
MALFORMED_DIRECTORIES = {
    "directory_one_entry_short": INDEX_DIRECTORY[:-1],
    "directory_one_entry_long": INDEX_DIRECTORY + array("i", [6]),
    "directory_of_8_byte_items": array("q", INDEX_DIRECTORY),
    "directory_of_a_16_bit_prefix_at_k_4": array("i", [0] * 65_536 + [6]),
    "directory_does_not_start_at_0": with_entries(INDEX_DIRECTORY, e0=1),
    "directory_ends_before_the_codes": with_entries(INDEX_DIRECTORY, e256=5),
    "directory_ends_past_the_codes": with_entries(INDEX_DIRECTORY, e256=7),
    "directory_decreases_at_a_seed_that_hits": with_entries(
        INDEX_DIRECTORY, e27=3
    ),
    "directory_negative_at_a_seed_that_hits": with_entries(
        INDEX_DIRECTORY, e27=-1
    ),
    "directory_points_past_the_codes_at_a_seed_that_hits": with_entries(
        INDEX_DIRECTORY, e192=100
    ),
}

MALFORMED_SEED_CALLS = {
    "table_entry_above_n_symbols": dict(table=with_code(TEXT_TABLE, "T", 5)),
    "n_symbols_zero": dict(n_symbols=0),
    "n_symbols_255": dict(n_symbols=255),
    "k_zero": dict(k=0),
    "k_negative": dict(k=-4),
    "k_past_64_bits": dict(k=33),
    "k_huge": dict(k=2**60),
    "stride_zero": dict(stride=0),
    "stride_negative": dict(stride=-1),
    "max_candidates_negative": dict(max_candidates=-1),
    "tolerance_negative": dict(diagonal_tolerance=-1),
    "starts_one_entry_short": dict(starts=q(0, 2, 3, 4, 5, 7)),
    "starts_one_entry_long": dict(starts=q(0, 2, 3, 4, 5, 6, 7, 7)),
    "starts_of_4_byte_items": dict(
        starts=array("i", [0, 2, 3, 4, 5, 6, 7])
    ),
    "starts_do_not_start_at_0": dict(starts=q(1, 2, 3, 4, 5, 6, 7)),
    "starts_end_before_the_positions": dict(starts=q(0, 2, 3, 4, 5, 6, 6)),
    "starts_end_past_the_positions": dict(starts=q(0, 2, 3, 4, 5, 6, 8)),
    "starts_decrease_at_a_seed_that_hits": dict(
        starts=q(0, -2, 3, 4, 5, 6, 7)
    ),
    "starts_pass_the_positions_at_a_seed_that_hits": dict(
        starts=q(0, 2**40, 3, 4, 5, 6, 7)
    ),
    "codes_of_4_byte_items": dict(codes=array("I", [0x1B, 0x6C, 0x6F])),
    "codes_not_a_multiple_of_8_bytes": dict(codes=bytes(47)),
    "positions_of_2_byte_items": dict(
        positions=array("h", [0, 4, 1, 5, 2, 6, 3])
    ),
    **{
        case: dict(directory=directory)
        for case, directory in MALFORMED_DIRECTORIES.items()
    },
}


@pytest.mark.parametrize("case", MALFORMED_SEED_CALLS)
def test_malformed_seed_calls_raise_value_error(case):
    with pytest.raises(ValueError):
        kernels._native.seed_many(*seed_arguments(**MALFORMED_SEED_CALLS[case]))


def test_seed_many_with_a_wrong_but_well_shaped_index_stays_in_bounds():
    """Unsorted codes and far-off positions give wrong answers, not reads
    out of bounds: only the slices a seed reaches are checked, per use."""
    native = kernels._native
    unsorted = array("Q", reversed(INDEX_CODES))
    read_ids, positions, votes = native.seed_many(
        *seed_arguments(codes=unsorted)
    )
    assert len(read_ids) == len(positions) == len(votes)
    far = array("i", [2**31 - 1, -(2**31), 1, 5, 2, 6, 3])
    read_ids, positions, votes = native.seed_many(
        *seed_arguments(positions=far, stride=1, diagonal_tolerance=2**62)
    )
    assert all(position >= 0 for position in positions)
    # A start or directory entry that breaks the rules where no seed lands
    # is never read.
    assert native.seed_many(
        *seed_arguments(starts=q(0, 2, -5, 4, 5, 6, 7))
    ) == SEEDED
    assert native.seed_many(
        *seed_arguments(directory=with_entries(INDEX_DIRECTORY, e100=-5))
    ) == SEEDED
    # seed_core looks seeds up 16 at a time, stage by stage: a bad slice
    # met by a seed that is not its block's first (GTTT after ACGTs, in the
    # first block, as its last seed, and in the second block) still raises
    # before anything reads through it, and so does one met only by a later
    # read of the batch.
    for reads in (
        ["ACGTGTTT"],
        ["ACGT" * 15 + "GTTT"],
        ["ACGT" * 17 + "GTTT"],
        ["ACGTACGT", "ACGT" * 3 + "GTTT" + "ACGT" * 20],
    ):
        for index in (
            dict(starts=q(0, 2, 3, 4, 5, 2**40, 7)),  # GTTT's end
            dict(starts=q(0, 2, 3, 4, 7, 6, 7)),  # GTTT's decreases
            dict(directory=with_entries(INDEX_DIRECTORY, e192=100)),
            dict(directory=with_entries(INDEX_DIRECTORY, e191=6, e192=5)),
        ):
            with pytest.raises(ValueError, match="never decrease"):
                native.seed_many(*seed_arguments(reads=reads, **index))
        assert native.seed_many(*seed_arguments(reads=reads)) == pure_seeds(
            reads=reads
        )
    # A directory that sends every prefix to an empty slot finds nothing.
    nowhere = with_entries(EMPTY_DIRECTORY, e256=6)
    assert native.seed_many(*seed_arguments(directory=nowhere)) == ([], [], [])
    # Huge stride / candidate bounds cannot overflow the seed walk.
    huge = dict(stride=2**62, max_candidates=2**62)
    assert native.seed_many(*seed_arguments(**huge)) == pure_seeds(**huge)


@pytest.mark.parametrize(
    "arguments",
    [
        (REFERENCE, 0, 4, 128),
        (REFERENCE, 255, 4, 128),
        (REFERENCE, 4, 0, 128),
        (REFERENCE, 4, -1, 128),
        (REFERENCE, 4, 33, 128),
        (REFERENCE, 4, 2**60, 128),
        (REFERENCE, 20, 13, 128),  # 5 bits a symbol: 12 is the longest seed
        (bytes([0, 1, 2, 5]), 4, 2, 128),  # a code above the sentinel
    ],
)
def test_malformed_index_builds_raise_value_error(arguments):
    with pytest.raises(ValueError):
        kernels._native.kmer_index_build(*arguments)


def test_index_build_masks_everything_under_a_negative_cap():
    """``len(positions) > max_occurrences`` is the whole rule, as in Python."""
    assert kernels._native.kmer_index_build(REFERENCE, 4, 4, -1) == (
        b"", q(0).tobytes(), b"", EMPTY_DIRECTORY.tobytes(), 6
    )


def built_both_ways(sequence, k, alphabet=DNA):
    """``kmer_index_build`` on ``sequence``, and the pure builder's buffers."""
    text_table, _, n_symbols = kernels._codec(alphabet)
    text_codes = kernels._encode(sequence, text_table)
    built = kernels._native.kmer_index_build(text_codes, n_symbols, k, 128)
    index = KmerIndex(k=k, genome_length=len(sequence), alphabet=alphabet)
    index._pack(_kmer_groups(sequence, k, alphabet))
    pure = (
        index.codes.tobytes(),
        index.starts.tobytes(),
        index.positions.tobytes(),
        index.directory.tobytes(),
        index.masked_seeds,
    )
    return built, pure


@pytest.mark.parametrize(
    "sequence, k",
    [
        ("ACGTACG", 8),  # shorter than k
        ("ACGN" * 40, 4),  # the sentinel breaks every window
        ("ACGTACGTNACGTACGT", 9),  # both runs between sentinels are short
    ],
)
def test_index_build_with_no_hits_matches_the_pure_builder(sequence, k):
    built, pure = built_both_ways(sequence, k)
    assert built == pure
    assert built[0] == built[2] == b""


def test_index_build_at_64_code_bits_matches_the_pure_builder():
    """k = 32 on DNA: the code mask is all ones, the prefix the top 16 bits;
    the T run's all-ones code lands in the directory's last bucket."""
    rng = random.Random(64)
    sequence = "".join(rng.choices("ACGT", k=300)) + "ACGT" * 20 + "T" * 40
    built, pure = built_both_ways(sequence + "N" + sequence[:100], 32)
    assert built == pure
    assert array("Q", built[0])[-1] == 2**64 - 1


@pytest.mark.parametrize(
    "k, alphabet", [(1, DNA), (4, DNA), (7, DNA), (3, AMINO_ACIDS)]
)
def test_index_build_below_16_code_bits_matches_the_pure_builder(k, alphabet):
    """The directory prefix is the whole code: one code a bucket."""
    rng = random.Random(k)
    symbols = alphabet.symbols + alphabet.wildcard
    sequence = "".join(rng.choices(symbols, k=2_000))
    built, pure = built_both_ways(sequence, k, alphabet)
    assert built == pure
    code_bits = k * alphabet.bits_per_symbol
    assert len(built[3]) == 4 * (2**code_bits + 1)


# map_many over the same index: both reads forward, the reverse strand of
# the palindrome ACGTACGT seeds again (three candidates per strand),
# GTTT's reverse strand AAAC finds nothing.
DNA_COMPLEMENT = bytes([3, 2, 1, 0, 4])
MAP_PROGRAM = bytes(_compile_order(TracebackConfig().order, True))
BWA_MEM = (1, -4, -6, -1)


def map_arguments(**overrides):
    arguments = dict(
        reads=READS,
        table=PATTERN_TABLE,
        n_symbols=4,
        complement=DNA_COMPLEMENT,
        reference=REFERENCE,
        codes=INDEX_CODES,
        starts=INDEX_STARTS,
        positions=INDEX_POSITIONS,
        directory=INDEX_DIRECTORY,
        k=4,
        **SEED_OPTIONS,
        region_lengths=q(16, 12),
        threshold=2,
        window_size=64,
        overlap=24,
        program=MAP_PROGRAM,
        scoring=BWA_MEM,
    )
    arguments.update(overrides)
    return tuple(arguments.values())


MAPPED = [(0, False, "M" * 8, 8, 0, 8), (6, False, "MMMM", 4, 0, 4)]


def test_well_formed_map_calls_answer():
    native = kernels._native
    # Regions clamp at the reference's end: read 0's at position 4 holds
    # only "ACGTTT", which the filter rejects on both strands.
    assert native.map_many(*map_arguments()) == (7, 5, MAPPED)
    assert native.map_many(*map_arguments(threshold=-1)) == (7, 7, MAPPED)
    assert native.map_many(*map_arguments(reads=[], region_lengths=b"")) == (
        0, 0, []
    )
    # An empty region (a region length of 0) never passes the filter and
    # aligns as all insertions without it.
    assert native.map_many(*map_arguments(region_lengths=q(0, 0))) == (
        7, 0, [(), ()]
    )
    assert native.map_many(
        *map_arguments(region_lengths=q(0, 0), threshold=-1)
    ) == (7, 7, [(0, False, "I" * 8, 0, 8, -14), (6, False, "IIII", 0, 4, -10)])
    unaligned = map_arguments(
        codes=shifted(INDEX_CODES),
        starts=shifted(INDEX_STARTS),
        positions=shifted(INDEX_POSITIONS),
        directory=shifted(INDEX_DIRECTORY),
        region_lengths=shifted(q(16, 12)),
    )
    assert native.map_many(*unaligned) == (7, 5, MAPPED)
    subclassed = [StrSubclass(read) for read in READS]
    assert native.map_many(*map_arguments(reads=subclassed)) == (7, 5, MAPPED)
    assert native.seed_many(*seed_arguments(reads=subclassed)) == SEEDED


def test_map_many_refuses_a_batch_it_cannot_answer():
    """A read holding a foreign character (coded above n_symbols, or not
    latin-1) or a score past 64 bits: map_many answers None for the whole
    batch."""
    native = kernels._native
    for read in ("GTT#", "GTT\xe9", "GTT\u20ac", "\U0001F9EC"):
        for reads in ([READS[0], read], [read, READS[0]]):
            assert native.map_many(
                *map_arguments(reads=reads)
            ) is None
    foreign_t = with_code(PATTERN_TABLE, "T", 5)
    assert native.map_many(*map_arguments(table=foreign_t)) is None
    huge = (2**62, -4, -6, -1)
    assert native.map_many(*map_arguments(scoring=huge)) is None


MALFORMED_MAP_CALLS = {
    "n_symbols_zero": dict(n_symbols=0),
    "k_zero": dict(k=0),
    "stride_zero": dict(stride=0),
    "starts_decrease_at_a_seed_that_hits": dict(
        starts=q(0, -2, 3, 4, 5, 6, 7)
    ),
    "complement_one_entry_short": dict(complement=DNA_COMPLEMENT[:-1]),
    "complement_one_entry_long": dict(complement=DNA_COMPLEMENT + b"\x00"),
    "complement_code_above_n_symbols": dict(complement=bytes([3, 2, 1, 0, 5])),
    "region_lengths_one_entry_short": dict(region_lengths=q(16)),
    "region_lengths_one_entry_long": dict(region_lengths=q(16, 12, 12)),
    "region_lengths_of_4_byte_items": dict(
        region_lengths=array("i", [16, 12])
    ),
    "region_length_negative": dict(region_lengths=q(16, -1)),
    "reference_code_above_n_symbols": dict(
        reference=bytes([0, 1, 2, 3, 0, 1, 2, 3, 3, 9])
    ),
    "reference_code_far_above_n_symbols": dict(reference=bytes([255] * 10)),
    "window_size_zero": dict(window_size=0),
    "window_size_past_one_word": dict(window_size=65),
    "overlap_negative": dict(overlap=-1),
    "overlap_equal_to_the_window": dict(overlap=64),
    **{
        f"program_opcode_{max(program)}": dict(program=program)
        for program in BAD_PROGRAMS
    },
    **{
        case: dict(directory=directory)
        for case, directory in MALFORMED_DIRECTORIES.items()
    },
}


@pytest.mark.parametrize("case", MALFORMED_MAP_CALLS)
def test_malformed_map_calls_raise_value_error(case):
    with pytest.raises(ValueError):
        kernels._native.map_many(*map_arguments(**MALFORMED_MAP_CALLS[case]))


# The list ABI's cases for the read batches: the reads and the one table.
# map_many's table is a pattern table, so an entry above n_symbols is
# legal there (it marks a foreign read, see above).
MALFORMED_READ_BATCHES = {
    "reads_not_a_sequence": (TypeError, dict(reads=5)),
    "reads_none": (TypeError, dict(reads=None)),
    "read_bytes": (TypeError, dict(reads=[READS[0], b"GTTT"])),
    "read_a_pair": (TypeError, dict(reads=[("ACGT", "AC")])),
    "read_none_after_good_reads": (TypeError, dict(reads=READS * 30 + [None])),
    "table_one_short": (ValueError, dict(table=TEXT_TABLE[:-1])),
    "table_one_long": (ValueError, dict(table=TEXT_TABLE + b"\x00")),
    "table_empty": (ValueError, dict(table=b"")),
    "table_a_str": (TypeError, dict(table="\x00" * 256)),
    "n_symbols_negative": (ValueError, dict(n_symbols=-1)),
    "n_symbols_255": (ValueError, dict(n_symbols=255)),
}


@pytest.mark.parametrize("case", MALFORMED_READ_BATCHES)
def test_malformed_read_batches_raise(case):
    error, overrides = MALFORMED_READ_BATCHES[case]
    with pytest.raises(error):
        kernels._native.seed_many(*seed_arguments(**overrides))
    with pytest.raises(error):
        kernels._native.map_many(*map_arguments(**overrides))


@pytest.mark.parametrize(
    "call, arguments",
    [
        ("seed_many", seed_arguments(reads=b"ACGT")),
        ("seed_many", seed_arguments(codes=[1, 2, 3])),
        ("seed_many", seed_arguments(k="4")),
        ("seed_many", seed_arguments()[:-1]),
        ("kmer_index_build", ("ACGT", 4, 4, 128)),
        ("kmer_index_build", (REFERENCE, 4, 4.0, 128)),
        ("kmer_index_build", (REFERENCE, 4, 4)),
        ("map_many", map_arguments()[:-1]),
        ("map_many", map_arguments(scoring=(1, -4, -6))),
        ("map_many", map_arguments(reference="ACGT")),
    ],
)
def test_wrong_argument_types_raise_type_error(call, arguments):
    with pytest.raises(TypeError):
        getattr(kernels._native, call)(*arguments)
