"""Ground truth for every backend: an oracle that is not the code under test.

The conformance matrix pins the backends to *each other*; this suite pins
them to independent implementations — the quadratic Needleman-Wunsch DP and
Myers' bit-vector algorithm in ``repro.baselines`` — and to the inputs
themselves:

* every CIGAR replays onto its (text, pattern) and its non-match count is
  the alignment's ``edit_distance``;
* that distance is never below the optimal edit distance between the pattern
  and the text prefix the alignment consumed, and equals it whenever a
  single window decides the whole pair (windowing is the only heuristic);
* the pre-alignment filter never rejects a pair whose true semi-global
  distance is within the threshold (Section 10.3's zero false-reject rate);
* an alignment within ``k`` edits that stops short of its text's end is a
  filter accept at ``k``: ``map_many`` skips the filter's sweep on that
  ground.

It runs over the conformance corpus plus seeded mapping-shaped pairs, on
every available backend alone and under a two-thread fan-out.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cases import ALIGN_CORPUS, PIGEONHOLE_CASES, SCAN_CORPUS, ConformanceCase
from repro.baselines.myers import myers_global, myers_semiglobal
from repro.baselines.needleman_wunsch import edit_distance_dp
from repro.core.aligner import DEFAULT_OVERLAP, DEFAULT_WINDOW_SIZE, GenAsmAligner
from repro.core.prefilter import GenAsmFilter
from repro.engine import ShardedEngine, available_engines, get_engine
from repro.sequences.mutate import MutationProfile, mutate

IN_PROCESS = [name for name in available_engines() if name != "sharded"]
BACKENDS = IN_PROCESS + [f"sharded-{name}" for name in IN_PROCESS]
CONSUME_LIMIT = DEFAULT_WINDOW_SIZE - DEFAULT_OVERLAP


def _seeded_pairs() -> list[ConformanceCase]:
    """Mapping-shaped pairs: a mutated read and its region, ``k`` of slack.

    ``k`` is also the filter threshold; it stays small on the long reads
    because scan cost scales with it (they are rejects, rightly).
    """
    rng = random.Random(0x0AC1E)
    cases = []
    for label, length, rate, count, k in (
        ("window_30bp", 30, 0.10, 16, 8),  # one window decides these
        ("read_100bp", 100, 0.05, 6, 8),
        ("read_2kbp", 2_000, 0.15, 3, 24),
    ):
        for index in range(count):
            region = "".join(rng.choice("ACGT") for _ in range(length + k))
            read = mutate(
                region[:length], MutationProfile(error_rate=rate), rng=rng
            ).sequence
            cases.append(ConformanceCase(f"{label}_{index}", region, read, k))
    return cases


SEEDED = _seeded_pairs()
ALIGN_CASES = [case for case in ALIGN_CORPUS if case.pattern] + SEEDED
SCAN_CASES = SCAN_CORPUS + SEEDED


@lru_cache(maxsize=None)
def optimal_distance(text_prefix: str, pattern: str) -> int:
    """Global edit distance, by two implementations where that is cheap."""
    distance = myers_global(text_prefix, pattern)
    if len(text_prefix) * len(pattern) <= 150 * 150 and "N" not in (
        text_prefix + pattern
    ):
        assert distance == edit_distance_dp(text_prefix, pattern)
    return distance


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    kind, _, inner = request.param.partition("-")
    if kind == "sharded":
        with ShardedEngine(workers=2, inner=inner) as engine:
            yield engine
    else:
        yield get_engine(kind)


@pytest.fixture(scope="module")
def alignments(backend):
    pairs = [(case.text, case.pattern) for case in ALIGN_CASES]
    return GenAsmAligner(engine=backend).align_batch(pairs)


def test_cigars_replay_onto_their_inputs(backend, alignments):
    for case, alignment in zip(ALIGN_CASES, alignments):
        ops = alignment.cigar.ops
        assert alignment.edit_distance == len(ops) - ops.count("M"), case.name
        assert alignment.cigar.reference_length == alignment.text_consumed
        assert alignment.cigar.query_length == len(case.pattern), case.name
        if "N" in case.text or "N" in case.pattern:
            continue  # is_valid_for has no wildcard notion
        assert alignment.cigar.is_valid_for(case.text, case.pattern), (
            f"{backend.name}: transcript does not replay on {case.name!r}"
        )


def test_edit_distance_is_never_below_the_optimum(backend, alignments):
    decided_by_one_window = 0
    for case, alignment in zip(ALIGN_CASES, alignments):
        consumed = case.text[: alignment.text_consumed]
        optimum = optimal_distance(consumed, case.pattern)
        assert alignment.edit_distance >= optimum, (
            f"{backend.name}: {case.name!r} reports fewer edits than exist"
        )
        # One window sees the whole pattern, its traceback finishes the
        # pattern before the consume limit, and the text has room to spare
        # (GenASM-DC takes no insertion after the last text character, see
        # the characterisation test below): nothing heuristic happened, so the answer must be optimal — and
        # no shorter or longer text prefix may do better.
        reach = min(len(case.text), DEFAULT_WINDOW_SIZE)
        if (
            len(case.pattern) <= CONSUME_LIMIT
            and alignment.text_consumed < CONSUME_LIMIT
            and reach > len(case.pattern) + alignment.edit_distance
        ):
            decided_by_one_window += 1
            assert alignment.edit_distance == optimum, case.name
            assert alignment.edit_distance == min(
                optimal_distance(case.text[:end], case.pattern)
                for end in range(reach + 1)
            ), case.name
    assert decided_by_one_window >= 16  # the equality must stay exercised


def test_filter_never_rejects_a_pair_within_the_threshold(backend):
    """Over the corpus, the seeded pairs and the pieces pass's adversaries:
    pairs at exactly ``k`` edits with one piece of ``k + 1`` left exact
    (first, last or across the 64-bit word boundary), and at ``k + 1``
    edits with none (``cases.build_pigeonhole_cases``)."""
    by_threshold: dict[int, list[ConformanceCase]] = {}
    for case in SCAN_CASES + PIGEONHOLE_CASES:
        by_threshold.setdefault(case.k, []).append(case)
    within = 0
    for threshold, group in sorted(by_threshold.items()):
        pairs = [(case.text, case.pattern) for case in group]
        genasm_filter = GenAsmFilter(threshold, engine=backend)
        accepted = genasm_filter.accepts_batch(pairs)
        decisions = genasm_filter.decide_batch(pairs)
        for case, accepts, decision in zip(group, accepted, decisions):
            assert accepts == decision.accepted, case.name
            truth = myers_semiglobal(case.text, case.pattern)
            if truth <= threshold:
                within += 1
                assert accepts, (
                    f"{backend.name}: false reject of {case.name!r} "
                    f"(distance {truth} <= {threshold})"
                )
            else:
                # The oracle is semi-global like the scan itself, so the
                # filter cannot find an alignment the oracle did not.
                assert not accepts, case.name
            if decision.distance is not None:
                assert decision.distance >= truth, case.name
    assert within >= 30 + 150  # the pigeonhole pairs at k edits: 181


def test_no_insertion_after_the_last_text_character(backend):
    """A documented GenASM property, pinned so that changing it is a choice.

    Every ``R[d]`` starts all-ones (textbook Bitap starts at ``ones << d``),
    so neither DC nor the filter's scan can put an insertion after the last
    text character: ``"A"`` vs ``"AC"`` costs 2 where the semi-global
    optimum is 1, and a threshold-1 filter rejects a pair within it. Read
    mapping never meets this — candidate regions carry ``k`` characters of
    slack past the read.
    """
    text, pattern = "A", "AC"
    assert myers_semiglobal(text, pattern) == 1
    [window] = backend.run_dc_windows([(text, pattern)])
    assert window.edit_distance == 2
    genasm_filter = GenAsmFilter(1, engine=backend)
    assert genasm_filter.accepts_batch([(text, pattern)]) == [False]
    assert not genasm_filter.decide(text, pattern).accepted


def _assert_alignments_answer_the_filter(backend, cases, alignments) -> int:
    """An alignment with ``e <= k`` edits whose text prefix stops short of
    the text (``text_consumed < len(text)``) is a DC hit of row ``e`` at
    column 0, so ``GenAsmFilter(k)`` accepts the pair: ``map_many`` trusts this
    and runs no filter sweep for such a candidate. Checked at the case's
    ``k`` and at the tightest one, the alignment's own edit distance (for
    reads up to 1 kbp: the pure filter's cost grows with ``k``). Returns
    the number of (pair, k) instances checked."""
    by_threshold: dict[int, list[tuple[ConformanceCase, int]]] = {}
    for case, alignment in zip(cases, alignments):
        if alignment.text_consumed >= len(case.text):
            continue  # the region is used up: map_many runs the filter
        edits = alignment.edit_distance
        thresholds = {case.k}
        if len(case.pattern) <= 1_000:
            thresholds.add(edits)
        for threshold in thresholds:
            if edits <= threshold:
                by_threshold.setdefault(threshold, []).append((case, edits))
    checked = 0
    for threshold, group in sorted(by_threshold.items()):
        pairs = [(case.text, case.pattern) for case, _ in group]
        accepted = GenAsmFilter(threshold, engine=backend).accepts_batch(pairs)
        for (case, edits), accepts in zip(group, accepted):
            assert accepts, (
                f"{backend.name}: {case.name!r} aligns within {edits} <= "
                f"{threshold} edits short of its text's end, but the filter "
                "rejects it"
            )
        checked += len(group)
    return checked


def test_an_alignment_within_k_short_of_the_text_end_passes_the_filter(
    backend, alignments
):
    """Over the corpus and the seeded pairs, then the pigeonhole pairs."""
    checked = _assert_alignments_answer_the_filter(
        backend, ALIGN_CASES, alignments
    )
    pigeonhole = GenAsmAligner(engine=backend).align_batch(
        [(case.text, case.pattern) for case in PIGEONHOLE_CASES]
    )
    checked += _assert_alignments_answer_the_filter(
        backend, PIGEONHOLE_CASES, pigeonhole
    )
    assert checked >= 300  # the premise must keep firing


@st.composite
def clamped_mapping_pairs(draw) -> ConformanceCase:
    """A read with a few edits and the region of its source: the region
    may stop short of the read (clamped at a reference end) or run past
    it, and either may hold the wildcard ``N``."""
    symbols = "ACGTN"
    source = draw(st.text(symbols, min_size=1, max_size=90))
    read = list(source)
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(read) - 1))
        kind = draw(st.sampled_from("SID"))
        if kind == "S":
            read[at] = draw(st.sampled_from(symbols))
        elif kind == "I":
            read.insert(at, draw(st.sampled_from(symbols)))
        elif len(read) > 1:
            del read[at]
    region = source[: draw(st.integers(0, len(source)))] + draw(
        st.text(symbols, max_size=12)
    )
    return ConformanceCase("drawn", region, "".join(read), draw(st.integers(0, 12)))


@settings(max_examples=120, deadline=None)
@given(case=clamped_mapping_pairs())
def test_a_drawn_alignment_short_of_the_text_end_passes_the_filter(
    backend, case
):
    [alignment] = GenAsmAligner(engine=backend).align_batch(
        [(case.text, case.pattern)]
    )
    _assert_alignments_answer_the_filter(backend, [case], [alignment])
