"""Hypothesis properties for the serving layer.

The server's core contract is *transparency*: whatever the batch size,
flush deadline, submission order, or request mix, every request resolves
to exactly what a direct engine call returns. These
tests let Hypothesis pick the traffic and the flush policy, then assert
the batching was unobservable.
"""

import asyncio
import time

from hypothesis import given, settings, strategies as st

from repro.core.aligner import GenAsmAligner
from repro.engine import PurePythonEngine
from repro.serving import AlignmentServer, RequestContext

PURE = PurePythonEngine()
ALIGNER = GenAsmAligner(engine=PURE)

dna = st.text(alphabet="ACGT", min_size=1, max_size=32)
texts = st.text(alphabet="ACGTN", min_size=0, max_size=48)

pair = st.tuples(texts, dna)

flush_policies = st.fixed_dictionaries(
    {
        "batch_size": st.sampled_from([1, 2, 3, 8, 64]),
        "flush_interval": st.sampled_from([0.0, 0.0005, 0.003]),
    }
)


@settings(max_examples=15, deadline=None)
@given(
    pairs=st.lists(pair, min_size=1, max_size=10),
    k=st.integers(min_value=0, max_value=6),
    policy=flush_policies,
)
def test_edit_distances_independent_of_flush_policy(pairs, k, policy):
    expected = PURE.edit_distance_batch(pairs, k)

    async def main():
        async with AlignmentServer(engine="pure", **policy) as server:
            return list(
                await asyncio.gather(
                    *(server.edit_distance(t, p, k) for t, p in pairs)
                )
            )

    assert asyncio.run(main()) == expected


@settings(max_examples=12, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.sampled_from(["scan", "edit_distance", "align"]), pair),
        min_size=1,
        max_size=8,
    ),
    k=st.integers(min_value=0, max_value=5),
    policy=flush_policies,
    order=st.randoms(use_true_random=False),
)
def test_mixed_interleavings_match_direct_calls(requests, k, policy, order):
    """Submission order and request mix never change any single result."""
    expected = []
    for op, (text, pattern) in requests:
        if op == "scan":
            expected.append(PURE.scan_batch([(text, pattern)], k)[0])
        elif op == "edit_distance":
            expected.append(PURE.edit_distance_batch([(text, pattern)], k)[0])
        else:
            alignment = ALIGNER.align(text, pattern)
            expected.append(
                (str(alignment.cigar), alignment.edit_distance)
            )

    submission_order = list(range(len(requests)))
    order.shuffle(submission_order)

    async def main():
        async with AlignmentServer(engine="pure", **policy) as server:
            tasks: dict[int, asyncio.Task] = {}
            for index in submission_order:
                op, (text, pattern) = requests[index]
                if op == "scan":
                    coro = server.scan(text, pattern, k)
                elif op == "edit_distance":
                    coro = server.edit_distance(text, pattern, k)
                else:
                    coro = server.align(text, pattern)
                tasks[index] = asyncio.create_task(coro)
                if order.random() < 0.3:
                    await asyncio.sleep(0)  # vary how submissions interleave
            return [
                await tasks[index] for index in range(len(requests))
            ]

    results = asyncio.run(main())
    for (op, _), got, want in zip(requests, results, expected):
        if op == "align":
            assert (str(got.cigar), got.edit_distance) == want
        else:
            assert got == want


FATES = ("served", "failed", "cancelled", "expired_queued", "expired_on_arrival")


@settings(max_examples=15, deadline=None)
@given(fates=st.lists(st.sampled_from(FATES), min_size=1, max_size=12))
def test_every_received_request_ends_in_exactly_one_outcome(fates):
    """``requests`` bounds the terminal outcomes: on an idle server
    ``requests == served + failed + cancelled + expired``, whatever mix of
    fates the traffic met."""

    async def main():
        # Nothing flushes before stop(): every fate is settled by then.
        server = AlignmentServer(
            engine="pure", batch_size=64, flush_interval=60.0
        )
        now = time.monotonic()
        tasks = []
        for fate in fates:
            if fate == "failed":
                coro = server.scan("ACGT", "AC", -1)  # the engine refuses k < 0
            elif fate == "expired_queued":
                ctx = RequestContext(deadline=now + 0.002)
                coro = server.edit_distance("ACGT", "AC", 1, ctx=ctx)
            elif fate == "expired_on_arrival":
                ctx = RequestContext(deadline=now - 1.0)
                coro = server.edit_distance("ACGT", "AC", 1, ctx=ctx)
            else:
                coro = server.edit_distance("ACGT", "AC", 1)
            tasks.append(asyncio.create_task(coro))
        await asyncio.sleep(0)  # let them enqueue (or be refused)
        for fate, task in zip(fates, tasks):
            if fate == "cancelled":
                task.cancel()
        await asyncio.sleep(0.01)  # the queued deadlines pass
        await server.stop()
        await asyncio.gather(*tasks, return_exceptions=True)
        return server.stats

    stats = asyncio.run(main())
    assert stats.requests == len(fates)
    assert stats.served == fates.count("served")
    assert stats.failed == fates.count("failed")
    assert stats.cancelled == fates.count("cancelled")
    assert stats.expired == fates.count("expired_queued") + fates.count(
        "expired_on_arrival"
    )
    assert stats.requests == (
        stats.served + stats.failed + stats.cancelled + stats.expired
    )
