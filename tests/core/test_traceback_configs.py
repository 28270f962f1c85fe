"""Traceback-config coverage across window storages.

GenASM-TB's case priority order is configurable (Section 6's partial
support for complex scoring schemes). Every GenASM-DC window is one type
(``WindowData``) whose subclasses differ only in where the ``R`` history
lives — the pure kernel's lists, the batched engine's packed uint64 view,
the native kernel's bytes — and ``traceback_window`` is one walk over all
of them. These tests pin down that the three storages produce identical
tracebacks (ops, consumed counts, errors_used) under non-default orders and
both affine settings, and that full alignments agree for each config
between the pure and batched backends and the hardware model's own window
loop.
"""

import random

import pytest

from repro.core import kernels
from repro.core.aligner import GenAsmAligner
from repro.core.genasm_dc import WindowData
from repro.core.genasm_tb import traceback_window
from repro.core.scoring import ScoringScheme, TracebackCase, TracebackConfig
from repro.engine import ShardedEngine, available_engines, get_engine
from repro.engine.batched import BatchedEngine
from repro.engine.packing import numpy_available
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


#: The storages compared against the pure kernel's list-backed windows.
STORAGES = [
    pytest.param(
        "batched-packed",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="packed windows need NumPy"
        ),
    ),
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not kernels.native_available(),
            reason="repro.core._native is not built",
        ),
    ),
]


def windows_in(storage, jobs):
    """The DC windows of ``jobs`` as one storage holds them."""
    if storage == "pure":
        return PURE.run_dc_windows(jobs)
    if storage == "batched-packed":
        return BatchedEngine(min_batch=1).run_dc_windows(jobs)
    return [kernels.native_dc_window(text, pattern) for text, pattern in jobs]


class TestOneWindowType:
    @pytest.mark.parametrize(
        "name",
        [name for name in available_engines() if name != "sharded"],
    )
    def test_every_backend_returns_the_one_window_type(self, name):
        # 32 jobs: each of two shards still clears batched's min_batch.
        jobs = random_jobs(32, seed=0x7E57)
        storage = {
            "pure": "SeneWindowBitvectors",
            "batched": "PackedWindowBitvectors",
            "native": "NativeWindow",
        }[name]
        with ShardedEngine(workers=2, inner=name) as sharded:
            for engine in (get_engine(name), sharded):
                for window in engine.run_dc_windows(jobs):
                    assert isinstance(window, WindowData)
                    assert type(window).__name__ == storage
                    # Storage is all a subclass adds; the edge derivation
                    # and the mask table live on the base, once.
                    own = vars(type(window)).keys()
                    assert not own & {"edge_vectors", "_ensure_masks", "_r_row"}


class TestConfigParityAcrossRepresentations:
    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_window_tracebacks_identical(self, config, storage):
        jobs = random_jobs(24, seed=0xBADC0DE)
        reference = [
            traceback_window(w, consume_limit=40, config=config)
            for w in windows_in("pure", jobs)
        ]
        windows = windows_in(storage, jobs)
        for job, expected, window in zip(jobs, reference, windows):
            actual = traceback_window(window, consume_limit=40, config=config)
            assert actual == expected, (storage, job)

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
        # The hardware model runs its own window loop over run_dc_window.
        accelerator = GenAsmAccelerator(tb_config=config)
        expected = GenAsmAligner(engine=PURE, config=config).align_batch(pairs)
        for name, actual in (
            ("batched", batched_aligner.align_batch(pairs)),
            (
                "accelerator",
                [accelerator.align(t, p).alignment for t, p in pairs],
            ),
        ):
            for exp, act in zip(expected, actual):
                assert str(exp.cigar) == str(act.cigar), name
                assert exp.edit_distance == act.edit_distance, name
                assert exp.text_consumed == act.text_consumed, name


class TestAffineSemantics:
    @pytest.mark.parametrize("storage", STORAGES)
    def test_extends_gated_by_prev_op_on_every_representation(self, storage):
        # A 3-base insertion: affine configs must keep the I-run contiguous
        # in every storage, non-affine may split it but all storages must
        # still agree with each other.
        jobs = [("ACGTACGT", "ACGGGGTACGT")]
        pure = windows_in("pure", jobs)[0]
        window = windows_in(storage, jobs)[0]
        for config in (TracebackConfig(), NON_AFFINE):
            assert traceback_window(
                window, consume_limit=1000, config=config
            ) == traceback_window(pure, consume_limit=1000, config=config)
        affine_ops = traceback_window(
            window, consume_limit=1000, config=TracebackConfig()
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
