"""The adapt seam, pinned with property tests.

The contract: every admitted request is designed on arrival, never
parked.  Requests of one bucket get the *same* design object from the
designer's memo (hence byte-identical once serialized); buckets never
mix; designer failures reach exactly the requests of the failing
bucket.  Over the real engine, the order of arrivals never changes a
reply.
"""

import asyncio

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


def submit_all(coalescer: AdaptCoalescer, dimmings) -> list:
    """Concurrent submissions; exceptions are returned, not raised."""
    async def run():
        return await asyncio.gather(*(coalescer.submit(d) for d in dimmings),
                                    return_exceptions=True)

    return asyncio.run(run())


class TestAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(dimmings=dimming_lists)
    def test_one_call_per_bucket_and_identical_fanout(self, config,
                                                      dimmings):
        # A freshly built designer composes each bucket on its first
        # request and answers the rest from its memo.
        engine = AdaptEngine(config, AmppmDesigner(config))
        coalescer = AdaptCoalescer(engine.design)
        results = submit_all(coalescer, dimmings)
        by_bucket = {}
        for dimming, result in zip(dimmings, results):
            key = engine.bucket(dimming)
            assert by_bucket.setdefault(key, result) is result
        # One design object per unique bucket: buckets never share one.
        assert len({id(r) for r in results}) == len(by_bucket)
        assert coalescer.requests == len(dimmings)

    @settings(max_examples=20, deadline=None)
    @given(dimmings=dimming_lists)
    def test_failures_stay_in_their_bucket(self, dimmings):
        fail_key = bucket8(dimmings[0])
        designer = CountingDesigner(fail_buckets={fail_key})
        results = submit_all(AdaptCoalescer(designer), dimmings)
        for dimming, result in zip(dimmings, results):
            if bucket8(dimming) == fail_key:
                assert isinstance(result, RuntimeError)
            else:
                assert not isinstance(result, Exception)
                assert result[1] == bucket8(dimming)


class TestTriggers:
    """A request's arrival is the only trigger: no timer, no size."""

    def test_submit_answers_on_its_first_step(self, engine):
        """No timer, no future: the coroutine finishes on its first
        ``send``, without a running event loop."""
        for dimming in (0.05, 0.337, 0.5, 0.9):
            step = AdaptCoalescer(engine.design).submit(dimming)
            try:
                step.send(None)
            except StopIteration as done:
                assert done.value is engine.design(dimming)
            else:
                step.close()
                raise AssertionError("submit parked instead of answering")

    def test_zero_window_disables_batching(self):
        # Answering on arrival is the old zero-window path: each request
        # is its own designer call, and nothing is deduped above the
        # designer.
        designer = CountingDesigner()
        coalescer = AdaptCoalescer(designer)
        results = submit_all(coalescer, [0.5] * 3)
        assert len(designer.calls) == 3
        assert len({id(r) for r in results}) == 3


class TestInstrumentation:
    def test_metrics_flow_into_the_registry(self):
        registry = MetricsRegistry()
        coalescer = AdaptCoalescer(CountingDesigner(), registry=registry)
        submit_all(coalescer, (0.5, 0.5, 0.5, 0.9))
        # The benchmark harness reads both counters, one per request.
        assert registry.counter(
            "repro_serve_adapt_requests_total").value() == 4
        assert registry.counter(
            "repro_serve_designer_calls_total").value() == 4


async def _serve_in_order(engine: AdaptEngine, requests: list) -> dict:
    """Replies, by id, to ``requests`` submitted one after another."""
    coalescer = AdaptCoalescer(engine.design)
    return {r.id: encode(ok_response(
                "adapt", engine.result(r, await coalescer.submit(r.dimming)),
                r.id))
            for r in requests}


# Requests packed into a handful of neighbouring buckets, so each
# bucket is asked for several times at different offsets.
bucket_requests = st.lists(
    st.tuples(st.integers(150, 154), st.floats(-0.49, 0.49),
              st.floats(0.0, 1.0), st.floats(0.5, 6.0)),
    min_size=1, max_size=16)


class TestArrivalOrder:
    @settings(max_examples=10, deadline=None)
    @given(drawn=bucket_requests, rnd=st.randoms(use_true_random=False))
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
        # The shared engine's memo is warm with earlier requests; the
        # permuted arrivals run on a freshly built designer.
        fresh = AdaptEngine(engine.config, AmppmDesigner(engine.config))
        assert asyncio.run(_serve_in_order(fresh, permuted)) == \
            asyncio.run(_serve_in_order(engine, requests))
