"""Backend registry and the common :class:`AlignmentEngine` interface.

A compute backend implements two methods:

* :meth:`AlignmentEngine.scan_batch` — Bitap distance scans over many
  (text, pattern) pairs (the pre-alignment filter primitive);
* :meth:`AlignmentEngine.run_dc_windows` — GenASM-DC bitvector generation
  for many windows at once (the aligner's hot inner step).

Everything else has a base-class default built on those two:
:meth:`AlignmentEngine.edit_distance_batch` is derived from the scan,
:meth:`AlignmentEngine.align_batch` is the canonical lock-step window loop
(Algorithm 2) over ``run_dc_windows``, and ``pop_shard_timings`` answers
for an engine that does not fan out. Backends override a default only when
they have a faster route to the same bits (one C call per batch, a
pair-level thread fan-out).

Backends register themselves by class (``name`` attribute) and declare
availability, so optional dependencies degrade gracefully: without the
compiled extension the default falls back to the NumPy backend, without
NumPy to the pure-Python one. Callers pick a backend per call site
(``engine="batched"``), per process (the ``REPRO_ENGINE`` environment
variable), or not at all (the best available backend wins: ``native``,
then ``batched``, then ``pure``).
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Sequence

from repro.core.bitap import BitapMatch
from repro.core.genasm_dc import WindowData
from repro.core.genasm_tb import TracebackError, traceback_window
from repro.core.scoring import TracebackConfig
from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aligner import Alignment

#: Environment variable naming the process-wide default backend.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Preference order when no backend is named anywhere.
_DEFAULT_PREFERENCE = ("native", "batched", "pure")


class UnknownEngineError(KeyError):
    """Raised when a requested backend is not registered or unavailable."""


@dataclass(frozen=True)
class EngineInfo:
    """Capability metadata for one registered backend.

    Attributes
    ----------
    name:
        Registry key.
    available:
        Whether the backend can run right now.
    reason:
        Why the backend is unavailable (None when available).
    workers:
        Degree of intra-engine parallelism — 1 for single-threaded
        backends, the thread count for the sharded backend.
    """

    name: str
    available: bool
    reason: str | None
    workers: int


class AlignmentEngine(ABC):
    """Common interface every alignment compute backend implements.

    All methods are *batch-first*: they take sequences of jobs and return
    per-job results in the same order. Backends must be bit-identical to the
    pure-Python reference kernels (:func:`repro.core.bitap.bitap_scan` and
    :func:`repro.core.genasm_dc.run_dc_window`) — parity is enforced by
    randomized tests, not trusted.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        """Why :meth:`is_available` is False (None when available)."""
        if cls.is_available():
            return None
        return "missing optional dependency"

    @classmethod
    def default_worker_count(cls) -> int:
        """Parallel workers a default-constructed instance would use."""
        return 1

    @staticmethod
    def clamp_k(k: int, pairs: Sequence[tuple[str, str]]) -> int:
        """Validate a scan threshold and cap it at the longest pattern.

        Row ``m`` of the Bitap state has MSB 0 after the first text
        character, so no reported match changes for ``k > m`` — but every
        backend sizes its state by ``k + 1`` rows, and ``k`` arrives
        unbounded from the wire. The native engine's C caps it per pair.
        """
        if k < 0:
            raise ValueError("edit distance threshold k must be non-negative")
        return min(k, max((len(pattern) for _, pattern in pairs), default=0))

    @abstractmethod
    def scan_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
        first_match_only: bool = False,
    ) -> list[list[BitapMatch]]:
        """Run a Bitap scan for every (text, pattern) pair in ``pairs``."""

    @abstractmethod
    def run_dc_windows(
        self,
        jobs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
    ) -> list[WindowData]:
        """Run GenASM-DC for every (sub_text, sub_pattern) window job.

        Every window is a :class:`~repro.core.genasm_dc.WindowData`: only
        the ``R[d]`` history is kept (SENE, after Scrooge) and traceback
        edges are derived on demand by the base class. A backend picks
        where the history lives (a ``WindowData`` subclass implementing
        ``r_rows``), but the history and the edit distance must stay
        bit-identical to the reference kernel's.
        """

    def edit_distance_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
    ) -> list[int | None]:
        """Minimum semi-global edit distance per pair (None above ``k``)."""
        scans = self.scan_batch(pairs, k, alphabet=alphabet)
        return [
            min((match.distance for match in matches), default=None)
            for matches in scans
        ]

    def align_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
        window_size: int,
        overlap: int,
        config: TracebackConfig,
    ) -> list["Alignment"]:
        """Windowed DC + TB alignment of every pair (Algorithm 2).

        The window loops of all pairs advance in lock-step rounds: each
        round collects every still-active pair's current window, hands the
        whole set to :meth:`run_dc_windows` (one vectorized pass on the
        batched backend), then runs the cheap per-window traceback
        sequentially. This is the one window loop in the package; backends
        that override this method must return the same bits in the same
        order. ``window_size`` / ``overlap`` are validated by
        :class:`~repro.core.aligner.GenAsmAligner`, the caller.
        """
        from repro.core.aligner import Alignment

        pairs = list(pairs)
        consume_limit = window_size - overlap
        cur_text = [0] * len(pairs)
        cur_pattern = [0] * len(pairs)
        parts: list[list[str]] = [[] for _ in pairs]
        pending = [idx for idx, (_, pattern) in enumerate(pairs) if pattern]

        while pending:
            jobs: list[tuple[str, str]] = []
            owners: list[int] = []
            for idx in pending:
                text, pattern = pairs[idx]
                sub_text = text[cur_text[idx] : cur_text[idx] + window_size]
                if not sub_text:
                    # Text exhausted: every remaining pattern character is
                    # an insertion relative to the reference.
                    parts[idx].append("I" * (len(pattern) - cur_pattern[idx]))
                    cur_pattern[idx] = len(pattern)
                    continue
                sub_pattern = pattern[
                    cur_pattern[idx] : cur_pattern[idx] + window_size
                ]
                jobs.append((sub_text, sub_pattern))
                owners.append(idx)
            windows = (
                self.run_dc_windows(jobs, alphabet=alphabet) if jobs else []
            )
            pending = []
            for idx, window in zip(owners, windows):
                tb = traceback_window(
                    window, consume_limit=consume_limit, config=config
                )
                if tb.pattern_consumed == 0 and tb.text_consumed == 0:
                    raise TracebackError(
                        "window made no progress "
                        f"(curText={cur_text[idx]}, "
                        f"curPattern={cur_pattern[idx]})"
                    )
                parts[idx].append(tb.ops)
                cur_pattern[idx] += tb.pattern_consumed
                cur_text[idx] += tb.text_consumed
                if cur_text[idx] > len(pairs[idx][0]):
                    raise TracebackError(
                        "window consumed past the end of the text"
                    )
                if cur_pattern[idx] < len(pairs[idx][1]):
                    pending.append(idx)

        return [
            Alignment.from_ops("".join(ops), consumed)
            for ops, consumed in zip(parts, cur_text)
        ]

    def pop_shard_timings(self) -> list[dict[str, Any]] | None:
        """Per-shard timings of the last call; None without a fan-out."""
        return None


_REGISTRY: dict[str, type[AlignmentEngine]] = {}
_INSTANCES: dict[str, AlignmentEngine] = {}
#: Memoized ``REPRO_ENGINE`` resolutions: env value -> backend name. The
#: fallback RuntimeWarning for a bogus value fires once per value, not once
#: per call — default_engine_name() sits on every engine-less construction
#: path (aligners, filters, servers), and a per-call warning floods logs.
_ENV_RESOLUTIONS: dict[str, str] = {}


def register_engine(
    engine_cls: type[AlignmentEngine], *, overwrite: bool = False
) -> type[AlignmentEngine]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    name = engine_cls.name
    if not name or name == AlignmentEngine.name:
        raise ValueError(f"{engine_cls.__name__} must define a concrete name")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"engine {name!r} is already registered")
    _REGISTRY[name] = engine_cls
    _INSTANCES.pop(name, None)
    # A new registration can change what an env value resolves to (the
    # value may now name a real backend); drop the memoized resolutions.
    _ENV_RESOLUTIONS.clear()
    return engine_cls


def registered_engines() -> list[str]:
    """All registered backend names, available or not."""
    return sorted(_REGISTRY)


def available_engines() -> list[str]:
    """Sorted names of the backends whose dependencies are satisfied now."""
    return [name for name in sorted(_REGISTRY) if _REGISTRY[name].is_available()]


def engine_info() -> list[EngineInfo]:
    """Capability metadata for every registered backend, available or not."""
    infos = []
    for name in sorted(_REGISTRY):
        cls = _REGISTRY[name]
        available = cls.is_available()
        infos.append(
            EngineInfo(
                name=name,
                available=available,
                reason=None if available else cls.unavailable_reason(),
                workers=cls.default_worker_count() if available else 0,
            )
        )
    return infos


def _best_available_name() -> str:
    """Best backend by preference order, then any available one."""
    for name in _DEFAULT_PREFERENCE:
        cls = _REGISTRY.get(name)
        if cls is not None and cls.is_available():
            return name
    for name in sorted(_REGISTRY):
        if _REGISTRY[name].is_available():
            return name
    reasons = "; ".join(
        f"{info.name}: {info.reason or 'unavailable'}"
        for info in engine_info()
    )
    raise UnknownEngineError(
        "no alignment engine is available"
        + (f" ({reasons})" if reasons else " (none registered)")
    )


def default_engine_name() -> str:
    """Resolve the default backend: validated env override, then best available.

    A ``REPRO_ENGINE`` value that names an unregistered or unavailable
    backend is diagnosed here — at resolution time — with a
    :class:`RuntimeWarning` naming the registered engines, and the best
    available backend is used instead. (Explicitly passing a bogus name to
    :func:`get_engine` still raises; only the ambient env default degrades.)
    The validated resolution is memoized per env value, so the warning
    fires once rather than on every call; registering a new backend
    invalidates the memo.
    """
    env = os.environ.get(ENGINE_ENV_VAR)
    if env:
        cls = _REGISTRY.get(env)
        if cls is not None and cls.is_available():
            return env
        cached = _ENV_RESOLUTIONS.get(env)
        if cached is not None and _is_usable(cached):
            return cached
        fallback = _best_available_name()
        if cls is None:
            problem = (
                f"does not name a registered engine "
                f"(registered: {', '.join(registered_engines())})"
            )
        else:
            problem = (
                f"is registered but unavailable "
                f"({cls.unavailable_reason() or 'missing optional dependency'})"
            )
        warnings.warn(
            f"{ENGINE_ENV_VAR}={env!r} {problem}; "
            f"falling back to {fallback!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        _ENV_RESOLUTIONS[env] = fallback
        return fallback
    return _best_available_name()


def _is_usable(name: str) -> bool:
    """Whether ``name`` is registered and available right now."""
    cls = _REGISTRY.get(name)
    return cls is not None and cls.is_available()


def _resolve_available_class(name: str) -> type[AlignmentEngine]:
    """``name`` -> registered, available backend class (or raise)."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise UnknownEngineError(
            f"unknown engine {name!r}; registered engines: {registered_engines()}"
        )
    if not cls.is_available():
        raise UnknownEngineError(
            f"engine {name!r} is registered but unavailable "
            f"({cls.unavailable_reason() or 'missing optional dependency'})"
        )
    return cls


def get_engine(
    spec: AlignmentEngine | str | None = None,
) -> AlignmentEngine:
    """Resolve ``spec`` to a live backend instance.

    ``spec`` may be an engine instance (returned as-is), a registered name,
    or None — meaning the ``REPRO_ENGINE`` environment variable if set, else
    the best available backend. Instances are cached per name, so repeated
    lookups share state-free singletons.
    """
    if isinstance(spec, AlignmentEngine):
        return spec
    name = spec if spec is not None else default_engine_name()
    cls = _resolve_available_class(name)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = cls()
        _INSTANCES[name] = instance
    return instance


def create_engine(
    spec: AlignmentEngine | str | None = None, **kwargs: object
) -> AlignmentEngine:
    """Construct a **fresh** backend instance — never the shared singleton.

    Replicated servers need one engine *instance* per replica (a sharded
    backend's thread pool and shard timings, and any future device handle,
    must not be shared across replicas that flush concurrently from
    different worker threads), but :func:`get_engine` deliberately memoizes
    one instance per name. This is the per-replica construction hook:
    ``spec`` resolves exactly like :func:`get_engine` (instance /
    registered name / None for the environment default), but a name
    resolves to a brand-new instance, with ``kwargs`` forwarded to the
    constructor. An engine *instance* passed as ``spec`` is returned as-is
    — the caller already chose its sharing.
    """
    if isinstance(spec, AlignmentEngine):
        if kwargs:
            raise ValueError(
                "pass constructor kwargs only with an engine name, "
                "not a ready instance"
            )
        return spec
    name = spec if spec is not None else default_engine_name()
    return _resolve_available_class(name)(**kwargs)
