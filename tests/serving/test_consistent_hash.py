"""Consistent-hash routing: affinity, minimal rebalance, cache synergy."""

import asyncio

from repro.engine import PurePythonEngine
from repro.serving import (
    AlignmentCluster,
    ConsistentHashPolicy,
    Replica,
    make_policy,
)
from repro.serving.server import AlignmentServer


def run(coro):
    return asyncio.run(coro)


def replicas(n):
    return [
        Replica(f"replica-{i}", AlignmentServer(engine=PurePythonEngine()))
        for i in range(n)
    ]


def keys(n):
    return [f"key-{i:05d}" for i in range(n)]


class TestRingProperties:
    def test_registered_by_name(self):
        assert isinstance(make_policy("consistent_hash"), ConsistentHashPolicy)
        assert ConsistentHashPolicy.needs_key is True

    def test_same_key_same_replica(self):
        policy = ConsistentHashPolicy()
        pool = replicas(4)
        for key in keys(50):
            owner = policy.select_keyed(pool, key)
            for _ in range(5):
                assert policy.select_keyed(pool, key) is owner

    def test_keys_spread_across_replicas(self):
        policy = ConsistentHashPolicy()
        pool = replicas(4)
        owners = {policy.select_keyed(pool, key).name for key in keys(200)}
        assert owners == {r.name for r in pool}

    def test_removal_only_remaps_the_lost_arc(self):
        """Dropping one replica must move only the keys it owned — every
        other key keeps its replica (the property that preserves warm
        caches through a drain)."""
        policy = ConsistentHashPolicy()
        pool = replicas(4)
        before = {key: policy.select_keyed(pool, key).name for key in keys(300)}
        lost, survivors = pool[1], pool[:1] + pool[2:]
        after = {
            key: policy.select_keyed(survivors, key).name for key in keys(300)
        }
        for key, owner in before.items():
            if owner != lost.name:
                assert after[key] == owner
        moved = [key for key, owner in before.items() if owner == lost.name]
        assert moved  # the lost replica owned *something*
        for key in moved:
            assert after[key] != lost.name

    def test_addition_only_steals_for_the_new_arc(self):
        policy = ConsistentHashPolicy()
        pool = replicas(3)
        before = {key: policy.select_keyed(pool, key).name for key in keys(300)}
        grown = pool + replicas(4)[3:]  # add "replica-3"
        after = {key: policy.select_keyed(grown, key).name for key in keys(300)}
        for key in keys(300):
            assert after[key] in (before[key], "replica-3")

    def test_keyless_requests_fall_back_to_rotation(self):
        policy = ConsistentHashPolicy()
        pool = replicas(3)
        picked = [policy.select_keyed(pool, None).name for _ in range(6)]
        assert set(picked) == {r.name for r in pool}  # round-robin spread

    def test_more_vnodes_balance_better(self):
        coarse = ConsistentHashPolicy(vnodes=1)
        fine = ConsistentHashPolicy(vnodes=256)
        pool = replicas(4)

        def imbalance(policy):
            counts = {r.name: 0 for r in pool}
            for key in keys(2000):
                counts[policy.select_keyed(pool, key).name] += 1
            return max(counts.values()) - min(counts.values())

        assert imbalance(fine) < imbalance(coarse)


class CountingEngine(PurePythonEngine):
    def __init__(self):
        self.batch_calls = 0

    def scan_batch(self, pairs, k, **kwargs):
        self.batch_calls += 1
        return super().scan_batch(pairs, k, **kwargs)


def texts_for(n):
    texts = []
    for i in range(n):
        # Base-4 encode i so every text is genuinely distinct.
        tag = "".join("ACGT"[(i >> shift) & 3] for shift in (0, 2, 4, 6))
        texts.append(tag + "ACGTACGTACGT")
    return texts


class TestClusterAffinity:
    def test_each_key_cached_on_exactly_one_replica(self):
        """With consistent_hash + per-replica caches, a repeated key hits
        the same replica's cache every time — the aggregate behaves like
        one big cache instead of N copies of the hot set."""

        async def main():
            engines = [CountingEngine() for _ in range(3)]
            cluster = AlignmentCluster(
                replicas=3,
                engine_factory=lambda i: engines[i],
                policy="consistent_hash",
                batch_size=1,
                flush_interval=0.001,
                cache=True,
            )
            async with cluster:
                for text in texts_for(6):
                    first = await cluster.scan(text, "ACGT", 1)
                    for _ in range(4):
                        assert await cluster.scan(text, "ACGT", 1) == first
                stats = cluster.cache_stats
                # 6 distinct keys, each computed once then hit 4 times.
                assert stats.misses == 6
                assert stats.hits == 24
                assert sum(e.batch_calls for e in engines) == 6

        run(main())

    def test_rebalance_after_drain_stays_correct(self):
        """Draining a replica remaps its keys to survivors; evicted-arc
        keys recompute to identical answers, other keys keep hitting."""

        async def main():
            engines = [CountingEngine() for _ in range(3)]
            cluster = AlignmentCluster(
                replicas=3,
                engine_factory=lambda i: engines[i],
                policy="consistent_hash",
                batch_size=1,
                flush_interval=0.001,
                cache=True,
            )
            async with cluster:
                texts = texts_for(8)
                before = {t: await cluster.scan(t, "ACGT", 1) for t in texts}
                calls_before = sum(e.batch_calls for e in engines)
                await cluster.drain_replica(1)
                after = {t: await cluster.scan(t, "ACGT", 1) for t in texts}
                assert after == before
                recomputed = sum(e.batch_calls for e in engines) - calls_before
                # Only the drained replica's arc recomputes; the rest hit
                # their still-warm owners.
                drained_calls = engines[1].batch_calls
                assert recomputed <= drained_calls
                assert recomputed < len(texts)

        run(main())

    def test_works_without_caches_too(self):
        async def main():
            cluster = AlignmentCluster(
                replicas=2,
                engine="pure",
                policy="consistent_hash",
                batch_size=1,
                flush_interval=0.001,
            )
            async with cluster:
                result = await cluster.scan("ACGTACGTACGT", "ACGT", 1)
                assert result
                assert cluster.cache_stats is None
                assert "cache" not in cluster.stats_payload()

        run(main())
