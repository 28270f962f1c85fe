"""Unit tests for the ``"native"`` engine and its kernel ABI shim.

Parity against the pure reference is owned by the conformance matrix and
the Hypothesis suite in ``tests/conformance/``; this file covers the
engine's *mechanics*: registration and availability gating, the
whole-batch pure fallback, exception parity on invalid inputs, and the
packed-history windows (dataclasses over one ``WindowData`` base, so they
pickle as they are).
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.core import kernels
from repro.core.aligner import GenAsmAligner
from repro.core.genasm_dc import WindowUnalignableError, run_dc_window
from repro.core.genasm_tb import traceback_window
from repro.core.scoring import TracebackConfig
from repro.sequences.alphabet import Alphabet
from repro.engine import (
    ENGINE_ENV_VAR,
    AlignmentEngine,
    NativeEngine,
    PurePythonEngine,
    available_engines,
    default_engine_name,
    engine_info,
    get_engine,
    registered_engines,
)

BUILT = kernels.native_available()


def geometry(window_size, overlap):
    """The keywords GenAsmAligner passes to ``engine.align_batch``."""
    return {
        "window_size": window_size,
        "overlap": overlap,
        "config": TracebackConfig(),
    }


needs_build = pytest.mark.skipif(
    not BUILT, reason="repro.core._native is not built"
)


class TestRegistration:
    def test_native_is_registered(self):
        assert "native" in registered_engines()

    def test_availability_tracks_the_extension(self):
        assert NativeEngine.is_available() == BUILT
        assert ("native" in available_engines()) == BUILT

    def test_unavailable_reason_names_the_build(self, monkeypatch):
        monkeypatch.setattr(kernels, "_native", None)
        monkeypatch.setattr(
            kernels, "_IMPORT_ERROR", "No module named 'repro.core._native'"
        )
        assert not NativeEngine.is_available()
        reason = NativeEngine.unavailable_reason()
        assert "not built" in reason
        assert "build_ext" in reason
        assert "native" not in available_engines()
        info = {i.name: i for i in engine_info()}["native"]
        assert not info.available
        assert "build_ext" in info.reason

    def test_native_is_the_default_then_batched_then_pure(self, monkeypatch):
        from repro.engine.registry import _DEFAULT_PREFERENCE

        assert _DEFAULT_PREFERENCE == ("native", "batched", "pure")
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        expected = [
            name for name in _DEFAULT_PREFERENCE if name in available_engines()
        ]
        for name in expected:
            assert default_engine_name() == name
            monkeypatch.setattr(
                type(get_engine(name)), "is_available", classmethod(lambda cls: False)
            )

    @needs_build
    def test_selected_by_name(self):
        assert get_engine("native").name == "native"


@needs_build
class TestErrorParity:
    """Invalid inputs raise the same types/messages as the pure kernels."""

    def test_scan_rejects_negative_k(self):
        with pytest.raises(ValueError, match="non-negative"):
            get_engine("native").scan_batch([("ACGT", "AC")], -1)

    def test_scan_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="non-empty"):
            get_engine("native").scan_batch([("ACGT", "")], 2)

    def test_scan_rejects_foreign_pattern_symbol(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            get_engine("native").scan_batch([("ACGT", "AZ")], 2)

    def test_dc_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="non-empty"):
            get_engine("native").run_dc_windows([("ACGT", "")])

    def test_dc_rejects_empty_text(self):
        with pytest.raises(WindowUnalignableError, match="empty"):
            get_engine("native").run_dc_windows([("", "ACGT")])

    def test_align_rejects_bad_window_geometry(self):
        # GenAsmAligner validates W/O for every backend; a direct engine
        # call still must not reach the C loop with geometry it cannot index.
        engine = get_engine("native")
        with pytest.raises(ValueError, match="window_size"):
            engine.align_batch([("ACGT", "AC")], **geometry(0, 0))
        with pytest.raises(ValueError, match="overlap"):
            engine.align_batch([("ACGT", "AC")], **geometry(8, 8))


@needs_build
class TestFallbacks:
    def test_sene_windows_are_native(self):
        windows = get_engine("native").run_dc_windows([("ACGT", "ACGT")])
        assert isinstance(windows[0], kernels.NativeWindow)

    def test_oversize_window_pattern_falls_back(self):
        from repro.core.genasm_dc import SeneWindowBitvectors

        windows = get_engine("native").run_dc_windows([("A" * 80, "A" * 80)])
        assert isinstance(windows[0], SeneWindowBitvectors)

    def test_empty_pattern_aligns_to_empty_cigar(self):
        alignment = get_engine("native").align_batch(
            [("ACGT", "")], **geometry(64, 24)
        )[0]
        assert str(alignment.cigar) == ""
        assert alignment.text_consumed == 0

    def test_empty_text_aligns_pattern_as_insertions(self):
        pure = GenAsmAligner(engine="pure").align("", "ACGT")
        native = GenAsmAligner(engine="native").align("", "ACGT")
        assert str(native.cigar) == str(pure.cigar)
        assert "I" in str(native.cigar)

    def test_non_latin1_text_scans_like_pure(self):
        pure = get_engine("pure").scan_batch([("ACΔGT", "ACGT")], 3)
        native = get_engine("native").scan_batch([("ACΔGT", "ACGT")], 3)
        assert native == pure

    def test_batches_c_cannot_take_run_the_base_window_loop(self, monkeypatch):
        """W=65: base loop, native windows where they fit a word. A
        non-latin-1 text is C's like any other."""
        from repro.core.genasm_dc import SeneWindowBitvectors

        engine = NativeEngine()
        seen = []
        run_dc_windows = engine.run_dc_windows

        def spy(jobs, **kwargs):
            windows = run_dc_windows(jobs, **kwargs)
            seen.extend(windows)
            return windows

        monkeypatch.setattr(engine, "run_dc_windows", spy)
        # Full 65-symbol windows exceed a word; the tail window fits.
        wide = {"window_size": 65, "overlap": 24}
        pair = ("ACGT" * 40, "ACGT" * 30)
        native = GenAsmAligner(engine=engine, **wide)
        pure = GenAsmAligner(engine="pure", **wide)
        assert native.align_batch([pair]) == pure.align_batch([pair])
        assert {type(window) for window in seen} == {
            kernels.NativeWindow,
            SeneWindowBitvectors,
        }
        seen.clear()
        pairs = [("ACGTACGT", "ACGAACGT"), ("ACGT" * 20 + "Δ", "ACGT" * 18)]
        assert GenAsmAligner(engine=engine).align_batch(pairs) == (
            GenAsmAligner(engine="pure").align_batch(pairs)
        )
        assert not seen  # the C loop took it: no per-window dispatch

    #: Pairs C answers, of every kind of text.
    MIXED = [
        ("ACGTACGTAC", "ACGTTCGT"),
        ("ACΔGTACGTACGT", "ACGTAC"),  # non-latin-1 text: codable
        ("TTTTACGNACGT", "ACGNAC"),  # wildcard on both sides: codable
        ("ACGT\xe9ACGTx", "GTAC"),  # latin-1, out of alphabet: codable
        ("", "ACGT"),
        ("ACGT" * 40, "ACGA" * 33),  # multiword pattern, several windows
    ]

    def test_mixed_scan_batch_is_one_call_in_input_order(self, monkeypatch):
        calls = []
        scan_many = kernels._native.scan_many
        monkeypatch.setattr(
            kernels,
            "_native",
            SimpleNamespace(
                scan_many=lambda *args: calls.append(1) or scan_many(*args)
            ),
        )
        for first in (False, True):
            native = NativeEngine().scan_batch(
                self.MIXED, 3, first_match_only=first
            )
            pure = get_engine("pure").scan_batch(
                self.MIXED, 3, first_match_only=first
            )
            assert native == pure
        assert len(calls) == 2  # one C call per batch, not per pair

    def test_native_scan_never_builds_masks_in_python(self, monkeypatch):
        import repro.core.bitap
        import repro.core.genasm_dc

        expected = get_engine("pure").scan_batch(self.MIXED, 3)

        def unreachable(*args):
            raise AssertionError("pattern_bitmasks called on the native path")

        monkeypatch.setattr(repro.core.bitap, "pattern_bitmasks", unreachable)
        monkeypatch.setattr(
            repro.core.genasm_dc, "pattern_bitmasks", unreachable
        )
        assert NativeEngine().scan_batch(self.MIXED, 3) == expected

    @pytest.mark.parametrize(
        "offenders",
        [
            [("ACGT", "AZ"), ("ACGT", "")],
            [("ACGT", ""), ("ACGT", "AZ")],
            [("ACΔT", "AQ"), ("ACGT", "AZ")],
        ],
    )
    def test_scan_raises_what_pure_raises_first(self, offenders):
        pairs = [self.MIXED[0], offenders[0], self.MIXED[1], offenders[1]]
        with pytest.raises(ValueError) as pure:
            get_engine("pure").scan_batch(pairs, 2)
        with pytest.raises(ValueError) as native:
            NativeEngine().scan_batch(pairs, 2)
        assert type(native.value) is type(pure.value)
        assert str(native.value) == str(pure.value)

    @pytest.mark.parametrize("window_size", [64, 65])
    def test_mixed_align_batch_matches_pure(self, window_size):
        pairs = self.MIXED + [("ACGT", "")]  # empty pattern: empty CIGAR
        geometry_kwargs = geometry(window_size, 24)
        assert NativeEngine().align_batch(pairs, **geometry_kwargs) == (
            get_engine("pure").align_batch(pairs, **geometry_kwargs)
        )

    def test_align_raises_what_pure_raises_first(self):
        # Windows advance in lock step, so the first window holding a
        # foreign symbol raises — "Q" in round one, not "Z" in round two.
        pairs = [
            self.MIXED[0],
            ("ACGT" * 30, "ACGT" * 20 + "Z"),
            self.MIXED[1],
            ("ACGT", "AQ"),
        ]
        with pytest.raises(ValueError) as pure:
            get_engine("pure").align_batch(pairs, **geometry(64, 24))
        with pytest.raises(ValueError) as native:
            NativeEngine().align_batch(pairs, **geometry(64, 24))
        assert "'Q'" in str(pure.value)
        assert str(native.value) == str(pure.value)
        lowest = pairs[:2]
        with pytest.raises(ValueError, match="'Z'"):
            NativeEngine().align_batch(lowest, **geometry(64, 24))

    def test_a_refused_sweep_finds_its_bad_pattern_without_a_pure_scan(
        self, monkeypatch
    ):
        """The patterns are checked in batch order before the pure scan
        runs, and the distance's fallback never calls ``scan_many``."""
        pairs = [("ACGT" * 200, "ACGTACGA")] * 6 + [("ACGT", "AC#T")]
        with pytest.raises(ValueError) as pure:
            get_engine("pure").edit_distance_batch(pairs, 3)

        def unreachable(*args, **kwargs):
            raise AssertionError("a pure scan over the whole batch")

        monkeypatch.setattr(PurePythonEngine, "scan_batch", unreachable)
        for call in (NativeEngine().scan_batch, NativeEngine().edit_distance_batch):
            with pytest.raises(ValueError) as native:
                call(pairs, 3)
            assert str(native.value) == str(pure.value)

    def test_a_refused_distance_batch_is_not_offered_to_c_again(
        self, monkeypatch
    ):
        wide = Alphabet("wide", "AC\u20ac")  # no byte codec: C refuses it
        pairs = [("ACA\u20acC", "AC"), ("CCCC", "A\u20ac")]
        expected = get_engine("pure").edit_distance_batch(pairs, 1, alphabet=wide)
        calls = []
        scan_many = kernels.native_scan_many
        monkeypatch.setattr(
            kernels,
            "native_scan_many",
            lambda *args, **kwargs: calls.append(1) or scan_many(*args, **kwargs),
        )
        assert NativeEngine().edit_distance_batch(pairs, 1, alphabet=wide) == (
            expected
        )
        assert not calls

    def test_a_refused_align_batch_runs_its_foreign_pairs_first(
        self, monkeypatch
    ):
        """Once C answers the other pairs, the window loop runs the foreign
        ones alone, and the whole batch only when they answer."""
        good = [self.MIXED[0], self.MIXED[5]]
        raising = good + [("ACGT" * 30, "ACGT" * 20 + "Z")]
        answering = good + [("", "AC#T")]  # the loop never meets the '#'
        expected = get_engine("pure").align_batch(answering, **geometry(64, 24))
        sizes = []
        window_loop = AlignmentEngine.align_batch

        def spy(engine, pairs, **kwargs):
            sizes.append(len(pairs))
            return window_loop(engine, pairs, **kwargs)

        monkeypatch.setattr(AlignmentEngine, "align_batch", spy)
        with pytest.raises(ValueError, match="'Z'"):
            NativeEngine().align_batch(raising, **geometry(64, 24))
        assert sizes == [1]
        sizes.clear()
        assert NativeEngine().align_batch(answering, **geometry(64, 24)) == (
            expected
        )
        assert sizes == [1, 3]

    def test_mixed_batch_keeps_input_order(self):
        pairs = [
            ("ACGTACGT", "ACGT"),
            ("ACGT", ""),  # empty pattern: the empty CIGAR
            ("ACΔGT" * 10, "ACGT"),  # non-latin-1 text
            ("", "GGGG"),  # text exhausted immediately
        ]
        pure = GenAsmAligner(engine="pure").align_batch(pairs)
        native = GenAsmAligner(engine="native").align_batch(pairs)
        assert [str(a.cigar) for a in native] == [
            str(a.cigar) for a in pure
        ]
        assert [a.text_consumed for a in native] == [
            a.text_consumed for a in pure
        ]


@needs_build
class TestNativeWindow:
    def test_window_pickles_and_traces_after_round_trip(self):
        window = kernels.native_dc_window("ACGTACGT", "ACGAACGT")
        clone = pickle.loads(pickle.dumps(window))
        original = traceback_window(window, consume_limit=8)
        restored = traceback_window(clone, consume_limit=8)
        assert restored == original

    def test_stored_bits_matches_sene_accounting(self):
        pure = run_dc_window("ACGTACG", "ACGTAAG")
        native = kernels.native_dc_window("ACGTACG", "ACGTAAG")
        assert native.stored_bits() == pure.stored_bits()
