"""The coalescer algebra, pinned with property tests.

The contract: N concurrent same-bucket requests cost exactly one
designer call and every waiter receives the *same* result object (hence
byte-identical once serialized); buckets never mix; designer failures
reach exactly the waiters of the failing bucket.  Over the real engine,
the order of arrivals within a window never changes a reply.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AmppmDesigner
from repro.obs import MetricsRegistry
from repro.serve import (
    AdaptCoalescer,
    AdaptEngine,
    AdaptRequest,
    encode,
    ok_response,
)


def bucket8(dimming: float) -> int:
    return round(dimming * 8)


class CountingDesigner:
    """A fake engine: unique result object per call, full call log."""

    def __init__(self, fail_buckets=()):
        self.calls: list[float] = []
        self.fail_buckets = set(fail_buckets)

    def __call__(self, dimming: float) -> object:
        self.calls.append(dimming)
        if bucket8(dimming) in self.fail_buckets:
            raise RuntimeError(f"bucket {bucket8(dimming)} broken")
        return ("design", bucket8(dimming), len(self.calls))


dimming_lists = st.lists(
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=40)


class TestAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(dimmings=dimming_lists)
    def test_one_call_per_bucket_and_identical_fanout(self, dimmings):
        designer = CountingDesigner()

        async def run():
            coalescer = AdaptCoalescer(designer, bucket8, window_s=0.005,
                                       max_batch=1000)
            return await asyncio.gather(
                *(coalescer.submit(d) for d in dimmings)), coalescer

        results, coalescer = asyncio.run(run())
        buckets = {bucket8(d) for d in dimmings}
        # Exactly one designer call per unique bucket.
        assert len(designer.calls) == len(buckets)
        assert {bucket8(d) for d in designer.calls} == buckets
        # Every waiter of a bucket got the *same* object; no cross-bucket
        # leaks (each call returns a distinct object carrying its bucket).
        by_bucket = {}
        for dimming, result in zip(dimmings, results):
            key = bucket8(dimming)
            assert result[1] == key
            assert by_bucket.setdefault(key, result) is result
        # Lifetime accounting matches.
        assert coalescer.requests == len(dimmings)
        assert coalescer.designer_calls == len(buckets)
        assert coalescer.coalesce_ratio == pytest.approx(
            len(dimmings) / len(buckets))

    @settings(max_examples=20, deadline=None)
    @given(dimmings=dimming_lists)
    def test_failures_stay_in_their_bucket(self, dimmings):
        fail_key = bucket8(dimmings[0])
        designer = CountingDesigner(fail_buckets={fail_key})

        async def run():
            coalescer = AdaptCoalescer(designer, bucket8, window_s=0.005,
                                       max_batch=1000)
            return await asyncio.gather(
                *(coalescer.submit(d) for d in dimmings),
                return_exceptions=True)

        results = asyncio.run(run())
        for dimming, result in zip(dimmings, results):
            if bucket8(dimming) == fail_key:
                assert isinstance(result, RuntimeError)
            else:
                assert not isinstance(result, Exception)
                assert result[1] == bucket8(dimming)


class TestTriggers:
    def test_max_batch_flushes_before_the_deadline(self):
        designer = CountingDesigner()

        async def run():
            loop = asyncio.get_running_loop()
            # A 10 s window would stall the test; the size trigger must
            # fire instead.
            coalescer = AdaptCoalescer(designer, bucket8, window_s=10.0,
                                       max_batch=4)
            started = loop.time()
            await asyncio.gather(*(coalescer.submit(d)
                                   for d in (0.1, 0.3, 0.5, 0.7)))
            assert loop.time() - started < 1.0
            assert coalescer.flushes == 1

        asyncio.run(run())

    def test_zero_window_disables_batching(self):
        designer = CountingDesigner()

        async def run():
            coalescer = AdaptCoalescer(designer, bucket8, window_s=0.0)
            results = [await coalescer.submit(0.5) for _ in range(3)]
            assert coalescer.designer_calls == 3
            assert coalescer.pending == 0
            # Distinct objects: nothing was deduped.
            assert len({id(r) for r in results}) == 3

        asyncio.run(run())

    def test_drain_flushes_the_parked_batch(self):
        designer = CountingDesigner()

        async def run():
            coalescer = AdaptCoalescer(designer, bucket8, window_s=30.0,
                                       max_batch=100)
            waiter = asyncio.ensure_future(coalescer.submit(0.5))
            await asyncio.sleep(0)
            assert coalescer.pending == 1
            await coalescer.drain()
            assert coalescer.pending == 0
            assert (await waiter)[1] == bucket8(0.5)

        asyncio.run(run())

    def test_sequential_submissions_each_flush(self):
        designer = CountingDesigner()

        async def run():
            coalescer = AdaptCoalescer(designer, bucket8, window_s=0.001)
            for _ in range(3):
                await coalescer.submit(0.5)
            assert coalescer.designer_calls == 3
            assert coalescer.flushes == 3

        asyncio.run(run())

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptCoalescer(lambda d: d, bucket8, window_s=-1.0)
        with pytest.raises(ValueError):
            AdaptCoalescer(lambda d: d, bucket8, max_batch=0)


class TestInstrumentation:
    def test_metrics_flow_into_the_registry(self):
        registry = MetricsRegistry()
        designer = CountingDesigner()

        async def run():
            coalescer = AdaptCoalescer(designer, bucket8, window_s=0.005,
                                       max_batch=1000, registry=registry)
            await asyncio.gather(*(coalescer.submit(d)
                                   for d in (0.5, 0.5, 0.5, 0.9)))

        asyncio.run(run())
        assert registry.counter(
            "repro_serve_adapt_requests_total").value() == 4
        assert registry.counter(
            "repro_serve_designer_calls_total").value() == 2
        batch = registry.get("repro_serve_coalesce_batch")
        assert batch.count() == 1
        assert batch.sum() == 4


async def _serve_window(engine: AdaptEngine, requests: list) -> dict:
    """Replies, by id, to ``requests`` coalesced into one window.

    The window is flushed explicitly once every request is parked, so
    the test never depends on the wall clock.
    """
    coalescer = AdaptCoalescer(engine.design, engine.bucket,
                               window_s=3600.0, max_batch=len(requests) + 1)
    waiters = [asyncio.ensure_future(coalescer.submit(r.dimming))
               for r in requests]
    await asyncio.sleep(0)
    assert coalescer.pending == len(requests)
    coalescer.flush()
    designs = await asyncio.gather(*waiters)
    return {r.id: encode(ok_response("adapt", engine.result(r, d), r.id))
            for r, d in zip(requests, designs)}


# Requests packed into a handful of neighbouring buckets, so windows
# hold several requests per bucket at different offsets.
window_requests = st.lists(
    st.tuples(st.integers(150, 154), st.floats(-0.49, 0.49),
              st.floats(0.0, 1.0), st.floats(0.5, 6.0)),
    min_size=1, max_size=16)


class TestWindowPermutation:
    @settings(max_examples=10, deadline=None)
    @given(drawn=window_requests, rnd=st.randoms(use_true_random=False))
    def test_permuted_arrivals_get_byte_identical_replies(self, engine,
                                                          drawn, rnd):
        tau = engine.config.tau_perceived
        requests = [AdaptRequest(round((key + offset) * tau, 9),
                                 ambient=ambient, distance_m=distance,
                                 id=f"r{i}")
                    for i, (key, offset, ambient, distance)
                    in enumerate(drawn)]
        permuted = list(requests)
        rnd.shuffle(permuted)
        # The shared engine's memo is warm with earlier windows; the
        # permuted window runs on a freshly built designer.
        fresh = AdaptEngine(engine.config, AmppmDesigner(engine.config))
        assert asyncio.run(_serve_window(fresh, permuted)) == \
            asyncio.run(_serve_window(engine, requests))
