"""Unit tests for the ``"native"`` engine and its kernel ABI shim.

Parity against the pure reference is owned by the conformance matrix and
the Hypothesis suite in ``tests/conformance/``; this file covers the
engine's *mechanics*: registration and availability gating, the per-job
pure fallback, exception parity on invalid inputs, and the packed-history
windows (dataclasses over one ``WindowData`` base, so they pickle as they
are).
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.core import kernels
from repro.core.aligner import GenAsmAligner
from repro.core.genasm_dc import WindowUnalignableError, run_dc_window
from repro.core.genasm_tb import traceback_window
from repro.core.scoring import TracebackConfig
from repro.engine import (
    ENGINE_ENV_VAR,
    NativeEngine,
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

    def test_non_latin1_text_falls_back_to_pure_scan(self):
        pure = get_engine("pure").scan_batch([("ACΔGT", "ACGT")], 3)
        native = get_engine("native").scan_batch([("ACΔGT", "ACGT")], 3)
        assert native == pure

    def test_pairs_c_cannot_take_run_the_base_window_loop(self, monkeypatch):
        """W=65 and non-latin-1 pairs: base loop, native windows where codable."""
        from repro.core.genasm_dc import SeneWindowBitvectors

        engine = NativeEngine()
        seen = []
        run_dc_windows = engine.run_dc_windows

        def spy(jobs, **kwargs):
            windows = run_dc_windows(jobs, **kwargs)
            seen.extend(windows)
            return windows

        monkeypatch.setattr(engine, "run_dc_windows", spy)
        wide = {"window_size": 65, "overlap": 24}
        cases = [
            # Full 65-symbol windows exceed a word; the tail window fits.
            (wide, ("ACGT" * 40, "ACGT" * 30)),
            # The first window is plain DNA; later ones hold the "Δ".
            ({}, ("ACGT" * 20 + "Δ", "ACGT" * 18)),
        ]
        for geometry_kwargs, pair in cases:
            seen.clear()
            native = GenAsmAligner(engine=engine, **geometry_kwargs)
            pure = GenAsmAligner(engine="pure", **geometry_kwargs)
            assert native.align_batch([pair]) == pure.align_batch([pair])
            assert {type(window) for window in seen} == {
                kernels.NativeWindow,
                SeneWindowBitvectors,
            }
        seen.clear()
        GenAsmAligner(engine=engine).align_batch([("ACGTACGT", "ACGAACGT")])
        assert not seen  # the C loop took it: no per-window dispatch

    #: Codable pairs interleaved with ones only the pure path can answer.
    MIXED = [
        ("ACGTACGTAC", "ACGTTCGT"),
        ("ACΔGTACGTACGT", "ACGTAC"),  # non-latin-1 text
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

        codable = [pair for pair in self.MIXED if "Δ" not in pair[0]]
        expected = get_engine("pure").scan_batch(codable, 3)

        def unreachable(*args):
            raise AssertionError("pattern_bitmasks called on the native path")

        monkeypatch.setattr(repro.core.bitap, "pattern_bitmasks", unreachable)
        monkeypatch.setattr(
            repro.core.genasm_dc, "pattern_bitmasks", unreachable
        )
        assert NativeEngine().scan_batch(codable, 3) == expected

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

    def test_mixed_batch_keeps_input_order(self):
        pairs = [
            ("ACGTACGT", "ACGT"),
            ("ACGT", ""),  # empty pattern: handled without the C loop
            ("ACΔGT" * 10, "ACGT"),  # non-latin-1: generic loop
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
