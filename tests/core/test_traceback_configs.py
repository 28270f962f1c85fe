"""Traceback-config coverage across window representations.

GenASM-TB's case priority order is configurable (Section 6's partial
support for complex scoring schemes). These tests pin down that every
supported window representation — scalar SENE, scalar edge stores, and the
batched engine's packed uint64 windows — produces identical tracebacks
(ops, consumed counts, errors_used) under non-default orders and both
affine settings, and that full alignments agree for each config between
the pure and batched backends and the hardware model's edge-store loop.
"""

import random

import pytest

from repro.core.aligner import GenAsmAligner
from repro.core.genasm_dc import run_dc_window
from repro.core.genasm_tb import traceback_window
from repro.core.scoring import ScoringScheme, TracebackCase, TracebackConfig
from repro.engine.pure import PurePythonEngine
from repro.hardware.accelerator import GenAsmAccelerator

PURE = PurePythonEngine()

#: Substitution checked dead last — mismatches prefer gap pairs.
GAPS_FIRST = TracebackConfig(
    order=(
        TracebackCase.INSERTION_EXTEND,
        TracebackCase.DELETION_EXTEND,
        TracebackCase.MATCH,
        TracebackCase.INSERTION_OPEN,
        TracebackCase.DELETION_OPEN,
        TracebackCase.SUBSTITUTION,
    )
)

#: Deletion checked before insertion, extensions demoted below opens.
DELETION_LEANING = TracebackConfig(
    order=(
        TracebackCase.MATCH,
        TracebackCase.DELETION_OPEN,
        TracebackCase.INSERTION_OPEN,
        TracebackCase.SUBSTITUTION,
        TracebackCase.DELETION_EXTEND,
        TracebackCase.INSERTION_EXTEND,
    )
)

#: Extend entries present but inert: affine=False compiles them away.
NON_AFFINE = TracebackConfig(affine=False)

CONFIGS = [
    pytest.param(TracebackConfig(), id="default-affine"),
    pytest.param(NON_AFFINE, id="non-affine"),
    pytest.param(GAPS_FIRST, id="substitution-last"),
    pytest.param(DELETION_LEANING, id="deletion-leaning"),
    pytest.param(
        TracebackConfig.from_scoring(ScoringScheme.bwa_mem()), id="bwa-mem"
    ),
    pytest.param(
        TracebackConfig.from_scoring(ScoringScheme.minimap2()), id="minimap2"
    ),
]


def random_jobs(count, seed, text_range=(1, 64), pattern_range=(1, 64)):
    rng = random.Random(seed)
    return [
        (
            "".join(
                rng.choice("ACGTN") for _ in range(rng.randint(*text_range))
            ),
            "".join(
                rng.choice("ACGT") for _ in range(rng.randint(*pattern_range))
            ),
        )
        for _ in range(count)
    ]


def window_variants(jobs):
    """The same DC windows in every representation, keyed for messages."""
    variants = {
        "pure-sene": PURE.run_dc_windows(jobs),
        "pure-edges": [
            run_dc_window(text, pattern, representation="edges")
            for text, pattern in jobs
        ],
    }
    np = pytest.importorskip("numpy", reason="packed windows need NumPy")
    del np
    from repro.engine.batched import BatchedEngine

    variants["batched-packed"] = BatchedEngine(min_batch=1).run_dc_windows(jobs)
    return variants


class TestConfigParityAcrossRepresentations:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_window_tracebacks_identical(self, config):
        jobs = random_jobs(24, seed=0xBADC0DE)
        variants = window_variants(jobs)
        reference = [
            traceback_window(w, consume_limit=40, config=config)
            for w in variants.pop("pure-sene")
        ]
        for name, windows in variants.items():
            for job, expected, window in zip(jobs, reference, windows):
                actual = traceback_window(
                    window, consume_limit=40, config=config
                )
                assert actual.ops == expected.ops, (name, job)
                assert actual.text_consumed == expected.text_consumed, (
                    name,
                    job,
                )
                assert actual.pattern_consumed == expected.pattern_consumed, (
                    name,
                    job,
                )
                assert actual.errors_used == expected.errors_used, (name, job)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_align_batch_identical_across_backends(self, config):
        pytest.importorskip("numpy")
        from repro.engine.batched import BatchedEngine

        pairs = random_jobs(
            12, seed=0xFEED, text_range=(5, 120), pattern_range=(1, 100)
        )
        batched_aligner = GenAsmAligner(
            engine=BatchedEngine(min_batch=1), config=config
        )
        # The hardware model keeps the MICRO edge stores: its own window
        # loop over run_dc_window(representation="edges").
        accelerator = GenAsmAccelerator(tb_config=config, sene_traceback=False)
        expected = GenAsmAligner(engine=PURE, config=config).align_batch(pairs)
        for name, actual in (
            ("batched", batched_aligner.align_batch(pairs)),
            ("edges", [accelerator.align(t, p).alignment for t, p in pairs]),
        ):
            for exp, act in zip(expected, actual):
                assert str(exp.cigar) == str(act.cigar), name
                assert exp.edit_distance == act.edit_distance, name
                assert exp.text_consumed == act.text_consumed, name


class TestAffineSemantics:
    def test_extends_gated_by_prev_op_on_every_representation(self):
        # A 3-base insertion: affine configs must keep the I-run contiguous
        # in every representation, non-affine may split it but all
        # representations must still agree with each other.
        jobs = [("ACGTACGT", "ACGGGGTACGT")]
        for config in (TracebackConfig(), NON_AFFINE):
            results = {
                name: traceback_window(
                    windows[0], consume_limit=1000, config=config
                )
                for name, windows in window_variants(jobs).items()
            }
            baseline = results.pop("pure-sene")
            for name, result in results.items():
                assert result == baseline, (name, config)
        affine_ops = traceback_window(
            window_variants(jobs)["pure-sene"][0],
            consume_limit=1000,
            config=TracebackConfig(),
        ).ops
        first = affine_ops.index("I")
        assert affine_ops[first : first + 3] == "III"

    def test_non_affine_equals_shadowed_extends(self):
        # affine=False compiles the extend entries away. That must be
        # observably identical to an affine config whose extends sit
        # *after* their open counterparts (an open always catches the same
        # zero bit first, so the extends are unreachable).
        shadowed = TracebackConfig(
            order=(
                TracebackCase.MATCH,
                TracebackCase.SUBSTITUTION,
                TracebackCase.INSERTION_OPEN,
                TracebackCase.DELETION_OPEN,
                TracebackCase.INSERTION_EXTEND,
                TracebackCase.DELETION_EXTEND,
            ),
            affine=True,
        )
        jobs = random_jobs(24, seed=0x5EED)
        for window in PURE.run_dc_windows(jobs):
            non_affine = traceback_window(
                window, consume_limit=40, config=NON_AFFINE
            )
            assert non_affine == traceback_window(
                window, consume_limit=40, config=shadowed
            )
