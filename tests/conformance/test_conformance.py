"""Cross-backend conformance matrix: every engine, bit-identical.

One shared corpus (``cases.py``) runs through every available backend;
scans, edit distances, alignments, and located alignments must match the
pure-Python reference *exactly* — same CIGARs, same scores, same match
positions. This is the contract that lets the
registry treat backends as interchangeable: anything observable beyond
throughput is a conformance bug.

The sharded backend runs once per available in-process backend it can fan
out over, with two workers so every corpus batch of four or more jobs is
genuinely cut across threads.
"""

import sys
import threading

import pytest

from cases import ALIGN_CORPUS, SCAN_CORPUS
from repro.core.aligner import GenAsmAligner
from repro.core.scoring import ScoringScheme, TracebackConfig
from repro.engine import (
    PurePythonEngine,
    ShardedEngine,
    available_engines,
    get_engine,
)

REFERENCE = PurePythonEngine()
SCORING = ScoringScheme.bwa_mem()

IN_PROCESS = [name for name in available_engines() if name != "sharded"]
BACKENDS = IN_PROCESS + [f"sharded-{name}" for name in IN_PROCESS]


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    """Every in-process backend, alone and under a 2-thread fan-out."""
    kind, _, inner = request.param.partition("-")
    if kind == "sharded":
        with ShardedEngine(workers=2, inner=inner) as engine:
            yield engine
    else:
        yield get_engine(kind)


def _by_k(corpus):
    """Cases grouped by threshold, so backends get real batches per call."""
    groups = {}
    for case in corpus:
        groups.setdefault(case.k, []).append(case)
    return sorted(groups.items())


K_GROUPS = _by_k(SCAN_CORPUS)


def _reference_scan_map(first_match_only):
    out = {}
    for k, group in K_GROUPS:
        results = REFERENCE.scan_batch(
            [(case.text, case.pattern) for case in group],
            k,
            first_match_only=first_match_only,
        )
        out.update(
            {case.name: res for case, res in zip(group, results)}
        )
    return out


@pytest.fixture(scope="module")
def reference_scans():
    return _reference_scan_map(first_match_only=False)


@pytest.fixture(scope="module")
def reference_first_matches():
    return _reference_scan_map(first_match_only=True)


@pytest.fixture(scope="module")
def reference_alignments():
    aligner = GenAsmAligner(engine=REFERENCE)
    pairs = [(case.text, case.pattern) for case in ALIGN_CORPUS]
    return dict(zip((c.name for c in ALIGN_CORPUS), aligner.align_batch(pairs)))


class TestScanConformance:
    def test_scan_positions_and_distances_match_reference(
        self, backend, reference_scans
    ):
        for k, group in K_GROUPS:
            results = backend.scan_batch(
                [(case.text, case.pattern) for case in group], k
            )
            for case, matches in zip(group, results):
                assert matches == reference_scans[case.name], (
                    f"{backend.name} diverged from reference on scan "
                    f"case {case.name!r} (k={k})"
                )

    def test_first_match_only_agrees_on_acceptance(
        self, backend, reference_first_matches
    ):
        for k, group in K_GROUPS:
            results = backend.scan_batch(
                [(case.text, case.pattern) for case in group],
                k,
                first_match_only=True,
            )
            for case, matches in zip(group, results):
                assert matches == reference_first_matches[case.name], (
                    f"{backend.name} first-match scan diverged "
                    f"on {case.name!r}"
                )

    def test_edit_distances_match_reference(self, backend, reference_scans):
        # The reference distance is the min over the full reference scan —
        # by definition of the engine interface's edit_distance_batch.
        for k, group in K_GROUPS:
            got = backend.edit_distance_batch(
                [(case.text, case.pattern) for case in group], k
            )
            for case, distance in zip(group, got):
                expected = min(
                    (m.distance for m in reference_scans[case.name]),
                    default=None,
                )
                assert distance == expected, (
                    f"{backend.name} edit distance diverged on {case.name!r}"
                )

    @pytest.mark.parametrize("first_match_only", [False, True])
    def test_threshold_beyond_the_pattern_answers_like_k_equals_m(
        self, backend, first_match_only
    ):
        """``k`` arrives unbounded from the wire; rows above ``m`` add nothing.

        Every backend sizes its state by ``k + 1`` rows, so an unclamped
        ``2**60`` is a MemoryError (pure, batched) or a heap overflow
        (the C scan) rather than an answer.
        """
        group = [case for case in SCAN_CORPUS if len(case.pattern) <= 130]
        assert {len(case.pattern) > 64 for case in group} == {False, True}
        pairs = [(case.text, case.pattern) for case in group]
        expected = [
            REFERENCE.scan_batch(
                [pair], len(pair[1]), first_match_only=first_match_only
            )[0]
            for pair in pairs
        ]
        for k in (max(len(pattern) for _, pattern in pairs), 2**60, 2**70):
            got = backend.scan_batch(
                pairs, k, first_match_only=first_match_only
            )
            assert got == expected, f"{backend.name} diverged at k={k}"
        if not first_match_only:
            assert backend.edit_distance_batch(pairs, 2**60) == [
                min((m.distance for m in matches), default=None)
                for matches in expected
            ]

    def test_empty_pattern_rejected_everywhere(self, backend):
        with pytest.raises(ValueError):
            backend.scan_batch([("ACGT", "")], 2)
        with pytest.raises(ValueError):
            backend.edit_distance_batch([("ACGT", "")], 2)

    def test_negative_k_rejected_everywhere_even_for_an_empty_batch(
        self, backend
    ):
        with pytest.raises(ValueError, match="non-negative"):
            backend.scan_batch([], -1)
        with pytest.raises(ValueError, match="non-negative"):
            backend.edit_distance_batch([], -1)


class TestAlignConformance:
    def test_cigars_scores_and_consumption_match_reference(
        self, backend, reference_alignments
    ):
        aligner = GenAsmAligner(engine=backend)
        pairs = [(case.text, case.pattern) for case in ALIGN_CORPUS]
        alignments = aligner.align_batch(pairs)
        for case, alignment in zip(ALIGN_CORPUS, alignments):
            expected = reference_alignments[case.name]
            label = f"{backend.name} diverged from reference on {case.name!r}"
            assert str(alignment.cigar) == str(expected.cigar), label
            assert alignment.edit_distance == expected.edit_distance, label
            assert alignment.score(SCORING) == expected.score(SCORING), label
            assert alignment.text_consumed == expected.text_consumed, label

    def test_cigars_are_valid_transcripts(self, backend):
        aligner = GenAsmAligner(engine=backend)
        for case in ALIGN_CORPUS:
            if "N" in case.text or "N" in case.pattern:
                continue  # is_valid_for has no wildcard notion
            alignment = aligner.align(case.text, case.pattern)
            assert alignment.cigar.is_valid_for(case.text, case.pattern), (
                f"{backend.name} emitted an inconsistent "
                f"transcript on {case.name!r}"
            )


class TestLocatedAlignmentConformance:
    """align_located = scan (positions) + align (CIGAR) in one flow."""

    LOCATE_CASES = [
        case
        for case in SCAN_CORPUS
        if case.k <= 16 and 4 <= len(case.pattern) <= 300
    ]

    def test_located_alignments_match_reference(self, backend):
        reference_aligner = GenAsmAligner(engine=REFERENCE)
        aligner = GenAsmAligner(engine=backend)
        checked = 0
        for case in self.LOCATE_CASES:
            expected = reference_aligner.align_located(
                case.text, case.pattern, case.k
            )
            got = aligner.align_located(case.text, case.pattern, case.k)
            if expected is None:
                assert got is None, f"{backend.name} located {case.name!r}"
                continue
            checked += 1
            assert got is not None, f"{backend.name} missed {case.name!r}"
            assert got.text_start == expected.text_start, case.name
            assert str(got.cigar) == str(expected.cigar), case.name
            assert got.edit_distance == expected.edit_distance, case.name
        assert checked >= 5  # the corpus must keep real locate coverage


class TestSharedInstanceAcrossThreads:
    """One engine instance, many threads: what the sharded fan-out rests on.

    ``ShardedEngine`` (and every serving replica's flush thread next to its
    neighbours') calls one shared in-process engine from several threads at
    once, so no backend may keep per-call state on the instance.
    """

    THREADS = 4  # more than the reference box has cores
    ROUNDS = 3
    CASES = [case for case in SCAN_CORPUS if len(case.pattern) <= 1_000]
    PAIRS = [(case.text, case.pattern) for case in CASES]
    WINDOWS = [(text[:64], pattern[:64]) for text, pattern in PAIRS if text]
    GEOMETRY = {"window_size": 64, "overlap": 24, "config": TracebackConfig()}

    @classmethod
    def _answers(cls, engine, order=(0, 1, 2)):
        calls = [
            lambda: [
                engine.scan_batch(
                    [(case.text, case.pattern) for case in group], k
                )
                for k, group in _by_k(cls.CASES)
            ],
            lambda: engine.align_batch(cls.PAIRS, **cls.GEOMETRY),
            lambda: [
                (window.edit_distance, window.r_rows())
                for window in engine.run_dc_windows(cls.WINDOWS)
            ],
        ]
        answers = [None] * len(calls)
        for index in order:
            answers[index] = calls[index]()
        return answers

    @pytest.mark.parametrize("name", IN_PROCESS)
    def test_concurrent_mixed_calls_equal_the_serial_answers(self, name):
        engine = get_engine(name)
        serial = self._answers(engine)
        assert serial == self._answers(REFERENCE)
        wrong = []

        def worker(offset):
            try:
                for turn in range(self.ROUNDS):
                    order = [(offset + turn + i) % 3 for i in range(3)]
                    if self._answers(engine, order) != serial:
                        wrong.append(f"thread {offset}, round {turn}")
            except Exception as exc:  # noqa: BLE001 - reported below
                wrong.append(f"thread {offset}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, f"{name} diverged under threads: {wrong}"
