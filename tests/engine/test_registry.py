"""Unit tests for the backend registry and engine resolution."""

import asyncio
import random
import warnings

import pytest

from repro.core.aligner import GenAsmAligner
from repro.engine import (
    ENGINE_ENV_VAR,
    AlignmentEngine,
    BatchedEngine,
    EngineInfo,
    PurePythonEngine,
    UnknownEngineError,
    available_engines,
    default_engine_name,
    engine_info,
    get_engine,
    register_engine,
    registered_engines,
)
from repro.mapping.pipeline import make_genasm_mapper
from repro.sequences.genome import synthesize_genome
from repro.sequences.read_simulator import illumina_profile, simulate_reads
from repro.serving import AlignmentServer, RequestContext, Trace


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = registered_engines()
        assert "pure" in names
        assert "batched" in names

    def test_pure_always_available(self):
        assert "pure" in available_engines()

    def test_get_engine_by_name(self):
        assert type(get_engine("pure")) is PurePythonEngine

    def test_get_engine_caches_instances(self):
        assert get_engine("pure") is get_engine("pure")

    def test_instance_passes_through(self):
        engine = PurePythonEngine()
        assert get_engine(engine) is engine

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownEngineError):
            get_engine("definitely-not-a-backend")

    def test_default_is_the_first_available_of_native_batched_pure(
        self, monkeypatch
    ):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        expected = next(
            name
            for name in ("native", "batched", "pure")
            if name in available_engines()
        )
        assert default_engine_name() == expected

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "pure")
        assert default_engine_name() == "pure"
        assert type(get_engine()) is PurePythonEngine

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_engine(PurePythonEngine)

    def test_custom_backend_registration(self):
        class NullEngine(PurePythonEngine):
            name = "null-test-backend"

        try:
            register_engine(NullEngine)
            assert "null-test-backend" in registered_engines()
            assert isinstance(get_engine("null-test-backend"), NullEngine)
        finally:
            from repro.engine import registry

            registry._REGISTRY.pop("null-test-backend", None)
            registry._INSTANCES.pop("null-test-backend", None)

    def test_abstract_name_rejected(self):
        class Anonymous(PurePythonEngine):
            name = AlignmentEngine.name

        with pytest.raises(ValueError):
            register_engine(Anonymous)

    def test_unavailable_backend_rejected(self):
        class Ghost(PurePythonEngine):
            name = "ghost-test-backend"

            @classmethod
            def is_available(cls):
                return False

        try:
            register_engine(Ghost)
            assert "ghost-test-backend" not in available_engines()
            with pytest.raises(UnknownEngineError):
                get_engine("ghost-test-backend")
        finally:
            from repro.engine import registry

            registry._REGISTRY.pop("ghost-test-backend", None)


class TestEnvVarValidation:
    """A bad REPRO_ENGINE degrades with a warning instead of a late error."""

    @pytest.fixture(autouse=True)
    def fresh_env_memo(self):
        """Each test sees an un-memoized env resolution (warn-once memo)."""
        from repro.engine import registry

        registry._ENV_RESOLUTIONS.clear()
        yield
        registry._ENV_RESOLUTIONS.clear()

    def test_bogus_env_value_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "definitely-not-a-backend")
        with pytest.warns(RuntimeWarning, match="registered"):
            name = default_engine_name()
        assert name in available_engines()

    def test_bogus_env_value_get_engine_still_works(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "definitely-not-a-backend")
        with pytest.warns(RuntimeWarning):
            engine = get_engine()
        assert isinstance(engine, AlignmentEngine)

    def test_unavailable_env_value_falls_back_with_reason(self, monkeypatch):
        class Broken(PurePythonEngine):
            name = "broken-test-backend"

            @classmethod
            def is_available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "synthetic test failure"

        from repro.engine import registry

        try:
            register_engine(Broken)
            monkeypatch.setenv(ENGINE_ENV_VAR, "broken-test-backend")
            with pytest.warns(RuntimeWarning, match="synthetic test failure"):
                name = default_engine_name()
            assert name in available_engines()
        finally:
            registry._REGISTRY.pop("broken-test-backend", None)

    def test_valid_env_value_no_warning(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "pure")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_engine_name() == "pure"

    def test_explicit_bogus_name_still_raises(self, monkeypatch):
        # Only the ambient env default degrades; explicit specs stay strict.
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        with pytest.raises(UnknownEngineError):
            get_engine("definitely-not-a-backend")

    def test_fallback_warning_fires_once_per_env_value(self, monkeypatch):
        """Regression: the env-fallback warning is memoized, not per-call."""
        monkeypatch.setenv(ENGINE_ENV_VAR, "definitely-not-a-backend")
        with pytest.warns(RuntimeWarning, match="registered"):
            first = default_engine_name()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Every later resolution (and get_engine) is silent and stable.
            assert default_engine_name() == first
            assert isinstance(get_engine(), AlignmentEngine)

    def test_memo_invalidated_by_new_registration(self, monkeypatch):
        """Registering the named backend revalidates the env value."""
        from repro.engine import registry

        monkeypatch.setenv(ENGINE_ENV_VAR, "late-test-backend")
        with pytest.warns(RuntimeWarning):
            default_engine_name()

        class Late(PurePythonEngine):
            name = "late-test-backend"

        try:
            register_engine(Late)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert default_engine_name() == "late-test-backend"
        finally:
            registry._REGISTRY.pop("late-test-backend", None)
            registry._INSTANCES.pop("late-test-backend", None)


class TestEngineInfo:
    def test_info_covers_all_registered(self):
        infos = {info.name: info for info in engine_info()}
        assert set(infos) == set(registered_engines())

    def test_available_info_has_workers_and_no_reason(self):
        infos = {info.name: info for info in engine_info()}
        pure = infos["pure"]
        assert pure.available and pure.reason is None and pure.workers == 1

    def test_available_engines_are_the_available_infos(self):
        infos = engine_info()
        assert all(isinstance(info, EngineInfo) for info in infos)
        assert available_engines() == [
            info.name for info in infos if info.available
        ]

    def test_unavailable_backend_reports_reason(self):
        class Ghost(PurePythonEngine):
            name = "ghost-info-backend"

            @classmethod
            def is_available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "haunted"

        from repro.engine import registry

        try:
            register_engine(Ghost)
            infos = {info.name: info for info in engine_info()}
            ghost = infos["ghost-info-backend"]
            assert not ghost.available
            assert ghost.reason == "haunted"
            assert ghost.workers == 0
            assert "ghost-info-backend" not in available_engines()
        finally:
            registry._REGISTRY.pop("ghost-info-backend", None)


class TestAllBackendsUnavailable:
    """Registry behavior when nothing can run (satellite coverage)."""

    @pytest.fixture
    def empty_world(self, monkeypatch):
        class Dead(PurePythonEngine):
            name = "dead-test-backend"

            @classmethod
            def is_available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "simulated outage"

        from repro.engine import registry

        monkeypatch.setattr(registry, "_REGISTRY", {"dead-test-backend": Dead})
        monkeypatch.setattr(registry, "_INSTANCES", {})
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)

    def test_default_engine_name_raises_with_reasons(self, empty_world):
        with pytest.raises(UnknownEngineError, match="simulated outage"):
            default_engine_name()

    def test_available_engines_empty(self, empty_world):
        assert available_engines() == []
        assert not any(info.available for info in engine_info())

    def test_env_fallback_also_raises(self, empty_world, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "bogus")
        with pytest.raises(UnknownEngineError):
            default_engine_name()


class TestTwoMethodBackend:
    """``scan_batch`` + ``run_dc_windows`` are a complete backend.

    Everything else on :class:`AlignmentEngine` has a base-class default,
    and those defaults are the in-process behaviour: the same bits as
    ``"pure"`` through the aligner, the mapper and the server.
    """

    NAME = "two-method-test-backend"

    @pytest.fixture
    def minimal(self):
        pure = PurePythonEngine()

        class TwoMethods(AlignmentEngine):
            name = self.NAME

            def scan_batch(self, pairs, k, **kwargs):
                return pure.scan_batch(pairs, k, **kwargs)

            def run_dc_windows(self, jobs, **kwargs):
                return pure.run_dc_windows(jobs, **kwargs)

        from repro.engine import registry

        register_engine(TwoMethods)
        try:
            yield self.NAME
        finally:
            registry._REGISTRY.pop(self.NAME, None)
            registry._INSTANCES.pop(self.NAME, None)

    def test_aligner_matches_pure(self, minimal):
        rng = random.Random(0xA11)
        pairs = [
            (
                "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 200))),
                "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 180))),
            )
            for _ in range(16)
        ]
        assert GenAsmAligner(engine=minimal).align_batch(pairs) == (
            GenAsmAligner(engine="pure").align_batch(pairs)
        )

    def test_mapper_matches_pure(self, minimal):
        genome = synthesize_genome(20_000, seed=21)
        reads = [
            (read.name, read.sequence)
            for read in simulate_reads(
                genome,
                count=12,
                read_length=100,
                profile=illumina_profile(0.05),
                seed=22,
            )
        ]

        def sam_lines(engine):
            mapper = make_genasm_mapper(
                genome, seed_length=13, error_rate=0.10, engine=engine
            )
            return [
                result.record.to_line()
                for result in mapper.map_reads(reads)
            ]

        assert sam_lines(minimal) == sam_lines("pure")

    def test_server_aligns_and_traces_without_shards(self, minimal):
        text, pattern = "ACGTTGCAACGTACGTTTGACC" * 6, "ACGTTGCATCGTACGTTGACC" * 5

        async def main():
            async with AlignmentServer(engine=minimal) as server:
                ctx = RequestContext(trace=Trace())
                return await server.align(text, pattern, ctx=ctx), ctx.trace

        alignment, trace = asyncio.run(main())
        assert alignment == GenAsmAligner(engine="pure").align(text, pattern)
        engine_spans = [span for span in trace.spans if span.name == "engine"]
        assert engine_spans
        assert all("shards" not in span.attrs for span in engine_spans)


class TestEditDistanceBatchAcrossBackends:
    """Direct coverage of edit_distance_batch for every registered backend."""

    CASES = [
        ("ACGTACGTACGT", "ACGTACGT"),  # clean prefix match
        ("ACGTACGT", "TTTTTTTT"),  # hopeless pair
        ("ACGT", "ACGTACGTACGT"),  # pattern longer than text
        ("A" * 70 + "CGT" * 10, "A" * 68 + "CGT" * 10),  # multi-word
    ]

    @pytest.mark.parametrize("name", available_engines())
    def test_matches_pure_reference(self, name):
        engine = get_engine(name)
        expected = PurePythonEngine().edit_distance_batch(self.CASES, 6)
        assert engine.edit_distance_batch(self.CASES, 6) == expected

    @pytest.mark.parametrize("name", available_engines())
    def test_randomized_batch_matches_pure(self, name):
        rng = random.Random(0xED17)
        pairs = [
            (
                "".join(rng.choice("ACGT") for _ in range(rng.randint(5, 90))),
                "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 80))),
            )
            for _ in range(24)
        ]
        engine = get_engine(name)
        for k in (0, 4, 11):
            assert engine.edit_distance_batch(pairs, k) == (
                PurePythonEngine().edit_distance_batch(pairs, k)
            )

    @pytest.mark.parametrize("name", available_engines())
    def test_none_above_threshold(self, name):
        engine = get_engine(name)
        distances = engine.edit_distance_batch(
            [("AAAAAAAA", "TTTTTTTT")] * 9, 2
        )
        assert distances == [None] * 9

    @pytest.mark.parametrize("name", available_engines())
    def test_empty_batch(self, name):
        assert get_engine(name).edit_distance_batch([], 3) == []


class TestBatchedConstruction:
    def test_min_batch_validated(self):
        pytest.importorskip("numpy")
        with pytest.raises(ValueError):
            BatchedEngine(min_batch=0)

    def test_negative_k_rejected(self):
        pytest.importorskip("numpy")
        with pytest.raises(ValueError):
            BatchedEngine().scan_batch([("ACGT", "ACGT")] * 4, -1)
