"""Content-addressed alignment result cache (LRU + byte budget).

At millions-of-users scale the read distribution is heavily repeated —
popular loci, shared panels, retried uploads — so the same
``(task, text, pattern, k, config)`` request arrives over and over, and
every arrival pays the full alignment cost. Engine calls are pure
functions of their payload (the conformance suite pins every backend
bit-identical), which makes their results *content-addressable*: a
digest of the request's full content names its result forever, exactly
like ASMCap's content-addressable match memory names a pattern's
alignment in hardware.

:func:`request_digest` builds that name — a BLAKE2b digest over
length-prefixed request parts, so ``("AB", "C")`` and ``("A", "BC")``
can never collide — and :class:`AlignmentCache` maps digests to results
under two simultaneous budgets:

* ``max_entries`` — a count bound (the LRU axis: recency ordering via an
  ``OrderedDict``), and
* ``max_bytes`` — a memory bound using :func:`approx_size`'s recursive
  ``sys.getsizeof`` estimate, so a handful of 100 kbp alignments cannot
  silently hold the memory of a million short scans.

Either budget overflowing evicts from the least-recently-used end until
both hold. A single value larger than the whole byte budget is *rejected*
(never stored) rather than evicting the entire cache for one entry.

The cache is lock-guarded: gets run on the event loop, puts on the event
loop after worker-thread flushes, and stats reads can come from anywhere.

Replica affinity
----------------
Each :class:`~repro.serving.server.AlignmentServer` replica owns a
private cache, so a cluster would naively hold every hot key N times and
hit only 1/N of the time. The ``consistent_hash`` routing policy
(:class:`~repro.serving.cluster.ConsistentHashPolicy`) fixes that: it
routes each request by the same digest the cache keys on, so a given
key's entry lives on exactly one replica — the cluster's aggregate cache
behaves like one cache of N times the budget, and draining a replica
remaps (and re-warms) only that replica's arc of the hash ring.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from hashlib import blake2b
from typing import Any, Iterable

from repro.serving.observability import StatsBlock, counted, derived

#: Sentinel distinguishing "no cached value" from a cached ``None``
#: (``edit_distance`` legitimately caches ``None`` for "above k").
MISS = object()

#: Recursion bound for :func:`approx_size`: deep enough for Alignment ->
#: Cigar -> operation lists, shallow enough to stay O(1)-ish per put.
_SIZE_DEPTH = 5

#: Per-container item bound for :func:`approx_size`; beyond this the
#: sampled mean is extrapolated instead of walking millions of elements.
_SIZE_SAMPLE = 64


def request_digest(task: str, *parts: object) -> str:
    """Stable content digest of one request: task name plus every part.

    Parts are folded as length-prefixed ``repr`` bytes, so adjacent
    strings cannot merge into a colliding stream (``("AB", "C")`` vs
    ``("A", "BC")``), and tuples/ints/bools/None all serialize
    unambiguously. The 16-byte BLAKE2b digest is wide enough that
    accidental collisions are not a practical concern for a cache.
    """
    hasher = blake2b(digest_size=16)
    for part in (task, *parts):
        data = repr(part).encode()
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)
    return hasher.hexdigest()


def approx_size(value: Any, _depth: int = _SIZE_DEPTH) -> int:
    """Recursive ``sys.getsizeof`` estimate of one cached value, bytes.

    Containers and object attributes are walked to a bounded depth with
    a bounded per-container sample (large homogeneous lists extrapolate
    from the sampled mean). This is a budget estimate, not an exact
    accounting — its job is keeping eviction honest about big values.
    """
    size = sys.getsizeof(value, 64)
    if _depth <= 0:
        return size
    items: Iterable[Any] = ()
    length = 0
    if isinstance(value, (str, bytes, bytearray, int, float, bool)):
        return size
    if isinstance(value, dict):
        items = [x for kv in value.items() for x in kv]
        length = len(items)
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
        length = len(value)
    elif hasattr(value, "__dict__"):
        items = list(vars(value).values())
        length = len(items)
    elif hasattr(value, "__slots__"):
        items = [
            getattr(value, slot)
            for slot in value.__slots__
            if hasattr(value, slot)
        ]
        length = len(items)
    if not length:
        return size
    sampled = 0
    for count, item in enumerate(items):
        if count >= _SIZE_SAMPLE:
            # Extrapolate the unwalked tail from the sampled mean.
            size += (sampled // _SIZE_SAMPLE) * (length - _SIZE_SAMPLE)
            break
        sampled += approx_size(item, _depth - 1)
    size += sampled
    return size


class CacheStats(StatsBlock):
    """Hit/miss/eviction counters plus the current occupancy."""

    hits = counted("genasm_cache_events_total", kind="hit")
    misses = counted("genasm_cache_events_total", kind="miss")

    @derived
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    evictions = counted("genasm_cache_events_total", kind="eviction")
    insertions = counted("genasm_cache_events_total", kind="insertion")
    rejected = counted("genasm_cache_events_total", kind="rejected")
    entries = counted("genasm_cache_entries")
    bytes = counted("genasm_cache_bytes")


class AlignmentCache:
    """LRU + byte-budget map from request digests to engine results.

    Parameters
    ----------
    max_entries:
        Most entries held at once; the least recently *used* (read or
        written) entry is evicted first.
    max_bytes:
        Budget for the summed :func:`approx_size` of held values. Both
        bounds apply simultaneously; a value bigger than the whole byte
        budget on its own is rejected rather than stored.
    """

    def __init__(
        self,
        *,
        max_entries: int = 4096,
        max_bytes: int = 32 * 1024 * 1024,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        """Current summed size estimate of held values."""
        return self.stats.bytes

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`.

        A hit refreshes the entry's recency (true LRU, not FIFO).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; False when rejected as oversize.

        Replacing an existing key releases its old size before the new
        one is charged; either budget overflowing evicts from the LRU end
        until both hold again.
        """
        size = approx_size(value)
        with self._lock:
            if size > self.max_bytes:
                self.stats.rejected += 1
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.bytes -= old[1]
            self._entries[key] = (value, size)
            self.stats.bytes += size
            self.stats.insertions += 1
            while self._entries and (
                len(self._entries) > self.max_entries
                or self.stats.bytes > self.max_bytes
            ):
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self.stats.bytes -= evicted_size
                self.stats.evictions += 1
            self.stats.entries = len(self._entries)
            return True

    def clear(self) -> None:
        """Drop every entry (counters other than occupancy are kept)."""
        with self._lock:
            self._entries.clear()
            self.stats.entries = 0
            self.stats.bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlignmentCache(entries={len(self._entries)}/"
            f"{self.max_entries}, bytes={self.stats.bytes}/{self.max_bytes})"
        )


def make_cache(
    spec: "AlignmentCache | bool | None",
) -> AlignmentCache | None:
    """Resolve a cache construction knob: instance, True (defaults), or off.

    ``True`` builds a private default-sized cache — what each replica of
    a cluster wants, so hot keys live once per ring arc instead of being
    shared (and contended) across replicas. Passing an instance shares
    it; the lock makes that safe, but it defeats replica affinity.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return AlignmentCache()
    if isinstance(spec, AlignmentCache):
        return spec
    raise ValueError(
        "cache must be an AlignmentCache, True for defaults, or None/False"
    )
