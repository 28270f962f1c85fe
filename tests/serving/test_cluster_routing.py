"""Unit tests of the cluster router's one routing rule and its retries:
fewest requests in flight wins, ties are taken in turn, a half-open probe
goes out when every replica cools down, a request tries each replica at
most once, and a replica cools down only when another one answers the
request it failed.

Most tests put recording fakes behind ``servers=``, so in-flight depth,
saturation, cooldowns and engine failures are set directly and the test
reads off which replica the router picked. ``TestAnswers`` runs real
engines to pin that the choice of replica never changes an answer.
"""

import asyncio
import time

import pytest

from repro.engine import PurePythonEngine
from repro.serving import (
    AlignmentCluster,
    AlignmentServer,
    ClusterSaturatedError,
    Replica,
    ServerClosedError,
    ServingStats,
)
from repro.serving.cluster import FAILURE_COOLDOWN

PAIRS = [
    ("ACGTACGTAC", "ACGTTCGTAC"),
    ("GGGGCCCCAA", "GGGGCCCAA"),
    ("TTTTTTTTTT", "TTTTATTTTT"),
    ("ACACACACAC", "CACACACACA"),
]


def run(coro):
    return asyncio.run(coro)


class FakeServer:
    """Recording stand-in for an ``AlignmentServer`` behind ``servers=``.

    ``edit_distance`` and ``map_read`` answer ``label`` (so a test can
    see which replica served it) or raise ``fail`` when one is set. The
    load surface the router reads — ``in_flight``, ``saturated``,
    ``mapper`` — is plain attributes the test sets.
    """

    engine_name = "fake"
    pending = 0
    max_pending = 8

    def __init__(
        self, label, *, fail=None, in_flight=0, saturated=False, mapper=None
    ):
        self.name = "server"
        self.label = label
        self.fail = fail
        self.in_flight = in_flight
        self.saturated = saturated
        self.mapper = mapper
        self.retry_after = 0.5 + label if isinstance(label, int) else 0.5
        self.stats = ServingStats()
        self.calls = 0
        self.stopped = False

    async def edit_distance(self, text, pattern, k, *, ctx=None):
        return self._answer()

    async def map_read(self, name, read, *, ctx=None):
        return self._answer()

    def _answer(self):
        self.calls += 1
        if self.fail is not None:
            raise self.fail
        return self.label

    def suggested_retry_after(self):
        return self.retry_after

    async def stop(self):
        self.stopped = True


def fakes(count, **kwargs):
    return [FakeServer(index, **kwargs) for index in range(count)]


async def picks(cluster, requests):
    """Which replica answered each of ``requests`` sequential calls."""
    return [
        await cluster.edit_distance("ACGT", "ACGT", 0)
        for _ in range(requests)
    ]


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
#: id -> (constructor kwargs factory, error message fragment)
def mapped(*has_mapper):
    """Fakes where replica ``i`` has a mapper iff ``has_mapper[i]``."""
    return [
        FakeServer(index, mapper=object() if has else None)
        for index, has in enumerate(has_mapper)
    ]


_REJECTED = {
    "replicas=0": (lambda: dict(replicas=0, engine="pure"), "replicas"),
    "replicas=-2": (lambda: dict(replicas=-2, engine="pure"), "replicas"),
    "shared engine instance": (
        lambda: dict(replicas=2, engine=PurePythonEngine()),
        "servers",
    ),
    "no servers": (lambda: dict(servers=[]), "non-empty"),
    "servers and engine": (
        lambda: dict(servers=fakes(2), engine="pure"),
        "not both",
    ),
    "servers and mapper": (
        lambda: dict(servers=fakes(2), mapper=object()),
        "not both",
    ),
    "servers and server kwargs": (
        lambda: dict(servers=fakes(2), batch_size=4),
        "server kwargs",
    ),
    # A mapper-less replica could only fail a map_read it was routed.
    "mapper on the first server only": (
        lambda: dict(servers=mapped(True, False)),
        "mapper",
    ),
    "mapper on the last server only": (
        lambda: dict(servers=mapped(False, True)),
        "mapper",
    ),
    "one of three servers without a mapper": (
        lambda: dict(servers=mapped(True, False, True)),
        "mapper",
    ),
    "one of three servers with a mapper": (
        lambda: dict(servers=mapped(False, False, True)),
        "mapper",
    ),
}


class TestConstruction:
    @pytest.mark.parametrize("case", list(_REJECTED))
    def test_rejected(self, case):
        make_kwargs, message = _REJECTED[case]
        with pytest.raises(ValueError, match=message):
            AlignmentCluster(**make_kwargs())

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    @pytest.mark.parametrize("has_mapper", [True, False])
    def test_servers_that_agree_on_a_mapper_are_accepted(
        self, replicas, has_mapper
    ):
        cluster = AlignmentCluster(servers=mapped(*[has_mapper] * replicas))
        assert (cluster.mapper is not None) is has_mapper


# ----------------------------------------------------------------------
# The routing rule: fewest in flight, ties in turn
# ----------------------------------------------------------------------
class TestLeastInFlight:
    @pytest.mark.parametrize("replicas", [1, 2, 3, 4, 5])
    def test_ties_rotate_over_every_replica(self, replicas):
        cluster = AlignmentCluster(servers=fakes(replicas))
        served = run(picks(cluster, 3 * replicas))
        assert served == [i % replicas for i in range(3 * replicas)]
        assert [r.dispatched for r in cluster.replicas] == [3] * replicas

    @pytest.mark.parametrize(
        "depths, chosen",
        [([2, 0, 1], 1), ([0, 3, 3], 0), ([5, 4, 1, 2], 2), ([1, 1, 0], 2)],
    )
    def test_shallowest_replica_takes_every_request(self, depths, chosen):
        servers = [FakeServer(i, in_flight=d) for i, d in enumerate(depths)]
        cluster = AlignmentCluster(servers=servers)
        assert run(picks(cluster, 4)) == [chosen] * 4

    @pytest.mark.parametrize(
        "depths, order",
        [([0, 1, 0], [0, 2, 0, 2]), ([1, 0, 0, 1], [1, 2, 1, 2]),
         ([2, 1, 1, 1], [1, 2, 3, 1])],
    )
    def test_ties_rotate_among_the_shallowest_only(self, depths, order):
        servers = [FakeServer(i, in_flight=d) for i, d in enumerate(depths)]
        cluster = AlignmentCluster(servers=servers)
        assert run(picks(cluster, len(order))) == order

    @pytest.mark.parametrize("full", [0, 1, 2])
    def test_saturated_replica_is_skipped(self, full):
        servers = fakes(3)
        servers[full].saturated = True
        cluster = AlignmentCluster(servers=servers)
        served = run(picks(cluster, 6))
        assert full not in served
        assert sorted(set(served)) == [i for i in range(3) if i != full]
        assert servers[full].calls == 0

    @pytest.mark.parametrize("flag", ["draining", "stopped"])
    def test_replica_out_of_rotation_is_skipped(self, flag):
        cluster = AlignmentCluster(servers=fakes(2))
        setattr(cluster.replicas[0], flag, True)
        assert run(picks(cluster, 4)) == [1] * 4


# ----------------------------------------------------------------------
# Cooldown and the half-open probe
# ----------------------------------------------------------------------
class TestHalfOpenProbe:
    @pytest.mark.parametrize("soonest", [0, 1, 2])
    def test_probe_goes_to_the_soonest_cooldown(self, soonest):
        cluster = AlignmentCluster(servers=fakes(3))
        now = time.monotonic()
        for index, replica in enumerate(cluster.replicas):
            replica.cooldown_until = now + (30.0 if index == soonest else 60.0)
        assert run(picks(cluster, 1)) == [soonest]
        # A successful probe ends that replica's cooldown, not the others'.
        states = [r.state for r in cluster.replicas]
        assert states == [
            "up" if i == soonest else "cooldown" for i in range(3)
        ]

    def test_eligible_replica_beats_a_shallower_cooling_one(self):
        servers = [FakeServer(0), FakeServer(1, in_flight=3)]
        cluster = AlignmentCluster(servers=servers)
        cluster.replicas[0].cooldown_until = time.monotonic() + 60.0
        assert run(picks(cluster, 3)) == [1, 1, 1]

    def test_saturated_cooling_replicas_are_not_probed(self):
        cluster = AlignmentCluster(servers=fakes(2, saturated=True))
        for replica in cluster.replicas:
            replica.cooldown_until = time.monotonic() + 60.0
        with pytest.raises(ClusterSaturatedError):
            run(picks(cluster, 1))
        assert cluster.shed == 1


# ----------------------------------------------------------------------
# Retries, and which failures cool a replica down
# ----------------------------------------------------------------------
class TestRetries:
    @pytest.mark.parametrize("replicas", [1, 2, 3, 4])
    def test_failing_request_tries_every_replica_once(self, replicas):
        error = RuntimeError("engine died")
        servers = fakes(replicas, fail=error)
        cluster = AlignmentCluster(servers=servers)
        with pytest.raises(RuntimeError) as caught:
            run(picks(cluster, 1))
        # The engine's own error surfaces: not a shed, never a 503.
        assert caught.value is error
        assert [s.calls for s in servers] == [1] * replicas
        assert [r.failed for r in cluster.replicas] == [1] * replicas
        assert cluster.retries == replicas - 1
        assert cluster.shed == 0

    @pytest.mark.parametrize("healthy", [0, 1, 2])
    def test_retry_reaches_the_one_healthy_replica(self, healthy):
        servers = fakes(3, fail=RuntimeError("engine died"))
        servers[healthy].fail = None
        cluster = AlignmentCluster(servers=servers)
        # Every request is answered, and once the failing replicas cool
        # down the healthy one takes the rest at the first attempt.
        assert run(picks(cluster, 4)) == [healthy] * 4
        failed = [r.failed for r in cluster.replicas]
        assert failed[healthy] == 0
        assert sum(failed) == cluster.retries <= 2
        assert cluster.replicas[healthy].completed == 4
        # The healthy replica answered what the others failed: they sit
        # out, it does not.
        assert [r.state for r in cluster.replicas] == [
            "up" if i == healthy else "cooldown" for i in range(3)
        ]

    @pytest.mark.parametrize("requests", [1, 3, 10])
    def test_an_error_every_replica_reproduces_benches_none(self, requests):
        servers = fakes(2, fail=RuntimeError("poison payload"))
        cluster = AlignmentCluster(servers=servers)
        for _ in range(requests):
            with pytest.raises(RuntimeError, match="poison"):
                run(picks(cluster, 1))
        # Each failure is counted, but none is a replica's fault: no
        # cooldown, and no failure streak to lengthen a later one.
        assert [r.failed for r in cluster.replicas] == [requests] * 2
        assert [r.state for r in cluster.replicas] == ["up", "up"]
        assert [r.consecutive_failures for r in cluster.replicas] == [0, 0]

    def test_a_failure_then_a_stopped_replica_benches_none(self):
        servers = [
            FakeServer(0, fail=RuntimeError("engine died")),
            FakeServer(1, fail=ServerClosedError("server is stopped")),
        ]
        cluster = AlignmentCluster(servers=servers)
        with pytest.raises(RuntimeError, match="engine died"):
            run(picks(cluster, 1))
        # Nobody answered, so the failure is not held against replica-0.
        assert cluster.replicas[0].state == "up"
        assert cluster.replicas[1].state == "stopped"


POISON = ("ACGTACGTAC", "GGGG")


class PoisonEngine(PurePythonEngine):
    """A real engine that raises for one payload, whoever computes it."""

    def edit_distance_batch(self, pairs, k, **kwargs):
        if POISON in pairs:
            raise RuntimeError("poison payload")
        return super().edit_distance_batch(pairs, k, **kwargs)


class TestRequestFaultBenchesNoReplica:
    @pytest.mark.parametrize("replicas", [2, 3, 4])
    def test_healthy_load_still_spreads_after_a_poison_request(
        self, replicas
    ):
        async def main():
            servers = [
                AlignmentServer(
                    engine=PoisonEngine(), batch_size=1, flush_interval=0.0
                )
                for _ in range(replicas)
            ]
            async with AlignmentCluster(servers=servers) as cluster:
                with pytest.raises(RuntimeError, match="poison"):
                    await cluster.edit_distance(*POISON, 2)
                states = [r.state for r in cluster.replicas]
                before = [r.dispatched for r in cluster.replicas]
                answers = await asyncio.gather(
                    *(
                        cluster.edit_distance(*PAIRS[i % 4], 4)
                        for i in range(20)
                    )
                )
                after = [r.dispatched for r in cluster.replicas]
            return states, [b - a for a, b in zip(before, after)], answers

        states, received, answers = run(main())
        assert states == ["up"] * replicas
        assert sum(received) == 20
        assert min(received) >= 5
        assert None not in answers


# ----------------------------------------------------------------------
# Shedding and terminal refusals
# ----------------------------------------------------------------------
class TestShedding:
    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_sheds_when_every_replica_is_saturated(self, replicas):
        servers = fakes(replicas, saturated=True)
        cluster = AlignmentCluster(servers=servers)
        with pytest.raises(ClusterSaturatedError) as caught:
            run(picks(cluster, 1))
        assert cluster.shed == 1
        assert all(s.calls == 0 for s in servers)
        # The hint is the soonest any replica expects to free a slot.
        assert caught.value.retry_after == 0.5

    def test_every_replica_stopped_is_not_a_shed(self):
        cluster = AlignmentCluster(servers=fakes(2))
        for replica in cluster.replicas:
            replica.stopped = True
        with pytest.raises(ServerClosedError, match="draining or stopped"):
            run(picks(cluster, 1))
        assert cluster.shed == 0

    def test_map_read_without_any_mapper_is_refused(self):
        cluster = AlignmentCluster(servers=fakes(2))
        with pytest.raises(RuntimeError, match="mapper"):
            run(cluster.map_read("r", "ACGT"))
        assert cluster.shed == 0


# ----------------------------------------------------------------------
# Per-replica bookkeeping
# ----------------------------------------------------------------------
class TestReplicaBookkeeping:
    @pytest.mark.parametrize(
        "failures, factor", [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16), (6, 16)]
    )
    def test_cooldown_doubles_per_failure_up_to_16x(self, failures, factor):
        replica = Replica("r", FakeServer(0))
        for _ in range(failures):
            replica.cool_down(100.0)
        assert replica.consecutive_failures == failures
        assert replica.cooldown_until == 100.0 + FAILURE_COOLDOWN * factor

    def test_success_clears_the_failure_streak(self):
        replica = Replica("r", FakeServer(0))
        for _ in range(3):
            replica.cool_down(100.0)
        replica.record_success(0.01)
        assert replica.consecutive_failures == 0
        assert replica.cooldown_until == 0.0
        assert replica.completed == 1
        # A new failure starts the backoff over at 1x.
        replica.cool_down(200.0)
        assert replica.cooldown_until == 200.0 + FAILURE_COOLDOWN

    @pytest.mark.parametrize(
        "setup, state",
        [
            (lambda r: None, "up"),
            (lambda r: setattr(r.server, "saturated", True), "saturated"),
            (lambda r: r.cool_down(time.monotonic()), "cooldown"),
            (lambda r: setattr(r, "draining", True), "draining"),
            (lambda r: setattr(r, "stopped", True), "stopped"),
        ],
        ids=["up", "saturated", "cooldown", "draining", "stopped"],
    )
    def test_state(self, setup, state):
        replica = Replica("r", FakeServer(0))
        setup(replica)
        assert replica.state == state
        assert replica.live is (state not in ("draining", "stopped"))
        assert replica.eligible(time.monotonic()) is (state == "up")

    def test_default_named_server_takes_the_replica_name(self):
        server = FakeServer(0)
        Replica("replica-7", server)
        assert server.name == "replica-7"

    def test_explicitly_named_server_keeps_its_name(self):
        server = FakeServer(0)
        server.name = "east"
        Replica("replica-7", server)
        assert server.name == "east"


# ----------------------------------------------------------------------
# Addressing replicas and draining one
# ----------------------------------------------------------------------
class TestDrainByAddress:
    @pytest.mark.parametrize(
        "which, drained", [(0, 0), (1, 1), ("replica-0", 0), ("replica-1", 1)]
    )
    def test_drain_by_index_or_name(self, which, drained):
        servers = fakes(2)
        cluster = AlignmentCluster(servers=servers)
        run(cluster.drain_replica(which))
        replica = cluster.replicas[drained]
        assert (replica.draining, replica.stopped) == (True, True)
        assert servers[drained].stopped
        assert not servers[1 - drained].stopped
        assert run(picks(cluster, 3)) == [1 - drained] * 3

    @pytest.mark.parametrize("which", [-1, 2, "replica-2", "east"])
    def test_unknown_replica_is_a_key_error(self, which):
        cluster = AlignmentCluster(servers=fakes(2))
        with pytest.raises(KeyError):
            run(cluster.drain_replica(which))
        assert all(r.live for r in cluster.replicas)


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------
class TestStatsSurface:
    def test_homogeneous_engine_name(self):
        cluster = AlignmentCluster(servers=fakes(3))
        assert cluster.engine_name == "cluster(3x fake)"

    def test_heterogeneous_engine_name(self):
        servers = fakes(2)
        servers[1].engine_name = "other"
        cluster = AlignmentCluster(servers=servers)
        assert cluster.engine_name == "cluster(fake, other)"

    def test_cluster_block(self):
        servers = fakes(2)
        servers[0].fail = RuntimeError("engine died")
        cluster = AlignmentCluster(servers=servers)
        run(picks(cluster, 2))
        block = cluster.stats_payload()["cluster"]
        assert block == {
            "replicas": 2,
            "live": 2,
            "shed": 0,
            "retries": 1,
            # The router never sends a duplicate request.
            "hedges": 0,
        }

    @pytest.mark.parametrize("key", ["policy", "hedge_wins", "hedging", "cache"])
    def test_no_block_for_a_feature_the_router_lacks(self, key):
        async def main():
            async with AlignmentCluster(replicas=2, engine="pure") as cluster:
                await cluster.edit_distance(*PAIRS[0], 4)
                return cluster.stats_payload()

        payload = run(main())
        assert key not in payload
        assert key not in payload["cluster"]
        assert all(key not in replica for replica in payload["replicas"])

    def test_health_payload_lists_replica_states(self):
        cluster = AlignmentCluster(servers=fakes(3))
        cluster.replicas[1].draining = True
        cluster.replicas[2].server.saturated = True
        health = cluster.health_payload()
        assert [r["state"] for r in health["replicas"]] == [
            "up", "draining", "saturated"
        ]
        assert health["saturated"] is False


# ----------------------------------------------------------------------
# Answers do not depend on the replica
# ----------------------------------------------------------------------
async def _reference(method, pairs):
    async with AlignmentServer(engine="pure", batch_size=1) as server:
        return [await _call(server, method, t, p) for t, p in pairs]


async def _call(target, method, text, pattern):
    if method == "align":
        return await target.align(text, pattern)
    return await getattr(target, method)(text, pattern, 4)


class TestAnswers:
    @pytest.mark.parametrize("replicas", [1, 2, 3])
    @pytest.mark.parametrize("method", ["scan", "edit_distance", "align"])
    def test_concurrent_answers_match_one_server(self, method, replicas):
        pairs = PAIRS * 3

        async def main():
            async with AlignmentCluster(
                replicas=replicas,
                engine="pure",
                batch_size=4,
                flush_interval=0.002,
            ) as cluster:
                answers = await asyncio.gather(
                    *(_call(cluster, method, t, p) for t, p in pairs)
                )
                dispatched = [r.dispatched for r in cluster.replicas]
            return answers, dispatched, await _reference(method, pairs)

        answers, dispatched, reference = run(main())
        assert answers == reference
        assert sum(dispatched) == len(pairs)
        assert min(dispatched) > 0
