"""Control-loop tests for the cluster autoscaler.

Every rule is driven synchronously with an injected clock — no sleeping
through real cooldowns — and actions are observed on the cluster itself
(replica count, draining states), not just in the decision log.
"""

import asyncio
import time

import pytest

from repro.engine import PurePythonEngine
from repro.serving import (
    AlignmentCluster,
    AlignmentServer,
    ClusterAutoscaler,
    LatencyHistogram,
    MetricFamily,
    MetricsRegistry,
)


def run(coro):
    return asyncio.run(coro)


def make_cluster(**kwargs):
    kwargs.setdefault("replicas", 1)
    kwargs.setdefault("engine", "pure")
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("flush_interval", 0.001)
    return AlignmentCluster(**kwargs)


def live_count(cluster):
    return sum(1 for r in cluster.replicas if r.live)


class TestScaleUpTriggers:
    def test_shedding_adds_a_replica(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, max_replicas=4, cooldown=0.0
                )
                cluster.shed += 1  # one shed request in the window
                decision = await scaler.step()
                assert decision.action == "scale_up"
                assert "shed" in decision.reason
                assert live_count(cluster) == 2

        run(main())

    def test_shed_tolerance_suppresses_the_trigger(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, shed_tolerance=5, cooldown=0.0
                )
                cluster.shed += 5  # at, not over, tolerance
                decision = await scaler.step()
                assert decision.action == "hold"

        run(main())

    def test_shed_counter_is_windowed_not_lifetime(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, max_replicas=8, cooldown=0.0
                )
                cluster.shed += 3
                assert (await scaler.step()).action == "scale_up"
                # Lifetime shed is still 3, but the *window* saw none:
                # the old burst must not trigger again forever.
                decision = await scaler.step()
                assert decision.shed_delta == 0
                assert decision.action != "scale_up"

        run(main())

    def test_window_p99_over_target_scales_up(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster,
                    target_p99_ms=50.0,
                    cooldown=0.0,
                    scale_down_utilization=0.0,  # rule disabled
                )
                # Inject a slow window directly into the merged stream.
                for _ in range(20):
                    cluster.replicas[0].server.stats.latency.record(0.2)
                decision = await scaler.step()
                assert decision.action == "scale_up"
                assert "p99" in decision.reason
                assert decision.window_p99_ms > 50.0
                # Next window has no new samples: latency rule is quiet.
                decision = await scaler.step()
                assert decision.action == "hold"

        run(main())

    def test_utilization_over_threshold_scales_up(self):
        async def main():
            # A server whose queue we can fill without it flushing.
            server = AlignmentServer(
                engine=PurePythonEngine(),
                batch_size=10,
                flush_interval=60.0,
                max_pending=10,
            )
            cluster = AlignmentCluster(servers=[server])
            async with cluster:
                scaler = ClusterAutoscaler(
                    cluster,
                    scale_up_utilization=0.5,
                    utilization_smoothing=1.0,  # react on one sample
                    cooldown=0.0,
                )
                tasks = [
                    asyncio.ensure_future(
                        cluster.scan("ACGTACGTACGT", "ACGT", 1)
                    )
                    for _ in range(9)
                ]
                await asyncio.sleep(0.02)  # all nine queued
                decision = scaler.evaluate()
                assert decision.utilization > 0.5
                # The trigger fired; a servers= cluster has no recipe to
                # grow from, so the loop logs the refusal and holds.
                assert decision.action == "hold"
                assert "cannot scale up" in decision.reason
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        run(main())


class TestBoundsAndCooldown:
    def test_never_grows_past_max_replicas(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, max_replicas=2, cooldown=0.0
                )
                cluster.shed += 1
                assert (await scaler.step()).action == "scale_up"
                cluster.shed += 1
                decision = await scaler.step()
                assert decision.action == "hold"
                assert "max_replicas" in decision.reason
                assert live_count(cluster) == 2

        run(main())

    def test_never_drains_below_min_replicas(self):
        async def main():
            async with make_cluster(replicas=2) as cluster:
                scaler = ClusterAutoscaler(
                    cluster,
                    min_replicas=2,
                    scale_down_utilization=0.9,
                    scale_up_utilization=0.95,
                    cooldown=0.0,
                )
                for _ in range(5):
                    decision = await scaler.step()
                    assert decision.action == "hold"
                assert live_count(cluster) == 2

        run(main())

    def test_cooldown_separates_actions(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, max_replicas=8, cooldown=10.0
                )
                now = time.monotonic()
                cluster.shed += 1
                assert (await scaler.step(now)).action == "scale_up"
                cluster.shed += 1  # still under pressure
                decision = await scaler.step(now + 1.0)
                assert decision.action == "hold"
                assert "cooldown" in decision.reason
                cluster.shed += 1
                decision = await scaler.step(now + 11.0)
                assert decision.action == "scale_up"
                assert live_count(cluster) == 3

        run(main())


class TestScaleDown:
    def test_idle_cluster_drains_to_min(self):
        async def main():
            async with make_cluster(replicas=3) as cluster:
                scaler = ClusterAutoscaler(
                    cluster,
                    min_replicas=1,
                    scale_down_utilization=0.25,
                    cooldown=0.0,
                )
                actions = [(await scaler.step()).action for _ in range(4)]
                assert actions.count("scale_down") == 2
                assert live_count(cluster) == 1
                # Drained replicas really stopped serving.
                assert sum(1 for r in cluster.replicas if r.stopped) == 2

        run(main())

    def test_drain_picks_the_least_loaded_replica(self):
        async def main():
            async with make_cluster(replicas=2) as cluster:
                cluster.replicas[0].dispatched = 50
                # Fake load on replica 0 via its real queue: occupy it.
                scaler = ClusterAutoscaler(
                    cluster, min_replicas=1, cooldown=0.0
                )
                decision = await scaler.step()
                assert decision.action == "scale_down"
                # Both idle -> either is "least loaded"; the drained one
                # is out of rotation, the survivor still serves.
                result = await cluster.scan("ACGTACGTACGT", "ACGT", 1)
                assert result is not None

        run(main())


class TestLifecycleAndIntrospection:
    def test_decision_log_surfaces_in_cluster_stats(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, max_replicas=4, cooldown=0.0, decision_log_size=2
                )
                cluster.shed += 1
                await scaler.step()
                await scaler.step()
                await scaler.step()
                payload = cluster.stats_payload()
                block = payload["autoscaler"]
                assert block["scale_ups"] == 1
                assert len(block["decisions"]) == 2  # bounded log
                assert {"action", "reason", "at", "replicas"} <= set(
                    block["decisions"][-1]
                )

        run(main())

    def test_decision_counter_outlives_the_bounded_log(self):
        """``genasm_autoscaler_decisions_total`` is a counter: it counts
        every tick and never decreases, however short the retained log."""

        def by_action(cluster):
            (family,) = [
                f
                for f in cluster.collect_metrics()
                if f.name == "genasm_autoscaler_decisions_total"
            ]
            assert family.kind == "counter"
            return {labels["action"]: n for labels, n in family.samples}

        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, max_replicas=4, cooldown=0.0, decision_log_size=2
                )
                scrapes = [by_action(cluster)]
                cluster.shed += 1  # tick 1 scales up; 2..5 hold or drain
                for _ in range(5):
                    await scaler.step()
                    scrapes.append(by_action(cluster))
                assert len(scaler.decisions) == 2  # the log stayed bounded
                return scrapes

        scrapes = run(main())
        assert set(scrapes[0]) == {"scale_up", "scale_down", "hold"}
        assert sum(scrapes[-1].values()) == 5
        for before, after in zip(scrapes, scrapes[1:]):
            assert all(after[action] >= before[action] for action in before)

    def test_background_loop_scales_up_and_stops(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster, interval=0.01, max_replicas=4, cooldown=0.0
                )
                scaler.start()
                scaler.start()  # idempotent
                cluster.shed += 1
                for _ in range(100):
                    if live_count(cluster) == 2:
                        break
                    await asyncio.sleep(0.01)
                assert live_count(cluster) == 2
                await scaler.stop()
                await scaler.stop()  # idempotent
                assert cluster.stats_payload()["autoscaler"]["running"] is False

        run(main())

    def test_add_replica_requires_a_recipe(self):
        async def main():
            server = AlignmentServer(engine=PurePythonEngine())
            cluster = AlignmentCluster(servers=[server])
            async with cluster:
                with pytest.raises(RuntimeError, match="add_replica"):
                    cluster.add_replica()
                # Explicit server still works.
                replica = cluster.add_replica(
                    server=AlignmentServer(engine=PurePythonEngine())
                )
                assert replica.live
                assert len(cluster.replicas) == 2

        run(main())

    def test_new_replica_serves_real_traffic(self):
        async def main():
            async with make_cluster(policy="round_robin") as cluster:
                before = await cluster.scan("ACGTACGTACGT", "ACGT", 1)
                replica = cluster.add_replica()
                for _ in range(4):
                    assert (
                        await cluster.scan("ACGTACGTACGT", "ACGT", 1) == before
                    )
                assert replica.completed > 0  # rotation reached it

        run(main())

    def test_knob_validation(self):
        async def main():
            async with make_cluster() as cluster:
                with pytest.raises(ValueError):
                    ClusterAutoscaler(cluster, min_replicas=0)
                with pytest.raises(ValueError):
                    ClusterAutoscaler(cluster, min_replicas=3, max_replicas=2)
                with pytest.raises(ValueError):
                    ClusterAutoscaler(cluster, interval=0.0)
                with pytest.raises(ValueError):
                    ClusterAutoscaler(cluster, cooldown=-1.0)
                with pytest.raises(ValueError):
                    ClusterAutoscaler(cluster, utilization_smoothing=0.0)
                with pytest.raises(ValueError):
                    ClusterAutoscaler(
                        cluster,
                        scale_up_utilization=0.2,
                        scale_down_utilization=0.3,
                    )

        run(main())


class TestPerEndpointSignals:
    """The registry-backed latency signal: per-endpoint p99, worst wins.

    The failure mode this guards: endpoints sharing one histogram let a
    flood of cheap fast requests (``/v1/scan``) statistically bury a
    degraded expensive endpoint (``/v1/align``) — the merged p99 stays
    under target while align users suffer. With a registry attached the
    autoscaler windows each endpoint's series separately.
    """

    @staticmethod
    def _mixed_load(scan_hist, align_hist, cluster=None):
        # 1000 fast scans vs 10 slow aligns: merged, the p99 sits in the
        # fast mass; per-endpoint, align's p99 is unmistakably degraded.
        merged = (
            cluster.replicas[0].server.stats.latency
            if cluster is not None
            else None
        )
        for _ in range(1000):
            scan_hist.record(0.001)
            if merged is not None:
                merged.record(0.001)
        for _ in range(10):
            align_hist.record(0.4)
            if merged is not None:
                merged.record(0.4)

    @staticmethod
    def _endpoint_registry(scan_hist, align_hist):
        registry = MetricsRegistry()
        registry.add_collector(
            lambda: [
                MetricFamily(
                    "genasm_http_request_duration_seconds", "histogram"
                )
                .add_histogram(scan_hist, endpoint="/v1/scan")
                .add_histogram(align_hist, endpoint="/v1/align")
            ]
        )
        return registry

    def test_scan_burst_cannot_mask_a_degraded_align_p99(self):
        async def main():
            scan_hist, align_hist = LatencyHistogram(), LatencyHistogram()
            async with make_cluster() as cluster:
                registry = self._endpoint_registry(scan_hist, align_hist)
                scaler = ClusterAutoscaler(
                    cluster,
                    registry=registry,
                    target_p99_ms=50.0,
                    max_replicas=4,
                    cooldown=0.0,
                    scale_down_utilization=0.0,
                )
                self._mixed_load(scan_hist, align_hist, cluster)
                decision = await scaler.step()
                assert decision.action == "scale_up"
                assert decision.p99_endpoint == "/v1/align"
                assert "/v1/align" in decision.reason
                assert decision.window_p99_ms > 50.0
                # The window advanced per endpoint: no new samples means
                # the same burst cannot trigger again forever.
                decision = await scaler.step()
                assert decision.action == "hold"

        run(main())

    def test_the_same_load_is_masked_without_a_registry(self):
        """Contrast case proving the masking is real: the identical
        traffic through the merged cluster-wide histogram stays under
        target, so the fallback signal holds."""

        async def main():
            scan_hist, align_hist = LatencyHistogram(), LatencyHistogram()
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster,
                    target_p99_ms=50.0,
                    max_replicas=4,
                    cooldown=0.0,
                    scale_down_utilization=0.0,
                )
                self._mixed_load(scan_hist, align_hist, cluster)
                decision = await scaler.step()
                assert decision.action == "hold"
                assert decision.window_p99_ms < 50.0

        run(main())

    def test_registry_without_series_falls_back_to_cluster_histogram(self):
        async def main():
            async with make_cluster() as cluster:
                scaler = ClusterAutoscaler(
                    cluster,
                    registry=MetricsRegistry(),  # no collectors yet
                    target_p99_ms=50.0,
                    max_replicas=4,
                    cooldown=0.0,
                    scale_down_utilization=0.0,
                )
                for _ in range(20):
                    cluster.replicas[0].server.stats.latency.record(0.2)
                decision = await scaler.step()
                assert decision.action == "scale_up"
                assert decision.p99_endpoint is None

        run(main())
