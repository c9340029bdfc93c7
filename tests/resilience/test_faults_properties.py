"""Property tests for how a FaultSchedule combines overlapping faults.

Hypothesis generates arbitrary schedules (overlapping windows included
— overlap is the interesting case) and checks the law the by-time
queries promise: each folds the active windows with an
order-independent reduction (max for loss and scale, any for outages),
and the room ambient that ``ScheduledAmbient`` makes of the schedule's
steps takes the latest and then brightest step, so permuting the fault
tuple changes no answer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lighting import ScheduledAmbient, StaticAmbient
from repro.resilience import (
    AckLossBurst,
    AdcBlinding,
    AmbientStep,
    FaultSchedule,
    NodeDowntime,
    UplinkOutage,
)

# All times live on a dyadic grid (multiples of 1/1024, bounded by 64):
# such values are exact in binary floating point, so boundary
# comparisons never flip — the property is about the reductions, not
# about rounding.
GRID = 1024


def dyadic(lo: float, hi: float):
    return st.integers(int(lo * GRID), int(hi * GRID)).map(
        lambda i: i / GRID)


windows = st.tuples(dyadic(0.0, 30.0), dyadic(0.05, 10.0)).map(
    lambda pair: (pair[0], pair[0] + pair[1]))

outages = windows.map(lambda w: UplinkOutage(*w))
ack_bursts = st.tuples(
    windows, st.floats(min_value=0.0, max_value=1.0)
).map(lambda t: AckLossBurst(*t[0], loss_probability=round(t[1], 3)))
blindings = st.tuples(
    windows, st.floats(min_value=0.01, max_value=1.0)
).map(lambda t: AdcBlinding(*t[0], severity=round(t[1], 3)))
steps = st.tuples(
    dyadic(0.0, 30.0), st.floats(min_value=0.0, max_value=1.0),
).map(lambda t: AmbientStep(t[0], round(t[1], 3)))
downtimes = st.tuples(
    windows, st.sampled_from(["node-00", "node-01"])
).map(lambda t: NodeDowntime(t[1], *t[0]))

# Steps on a coarse grid, so that several often land at one instant
# with different levels.
tied_steps = st.tuples(
    st.sampled_from([2.0, 3.0]), st.sampled_from([0.2, 0.5, 0.8]),
).map(lambda t: AmbientStep(*t))

faults = st.one_of(outages, ack_bursts, blindings, steps, downtimes)
fault_lists = st.lists(faults, max_size=6)
times = dyadic(0.0, 45.0)


def queries(schedule: FaultSchedule, t: float) -> tuple:
    """Every by-time observable at one instant, as one comparable value."""
    return (schedule.uplink_outage_at(t),
            schedule.ack_loss_at(t),
            schedule.error_scale_at(t),
            ScheduledAmbient(StaticAmbient(0.4),
                             schedule.ambient_steps()).intensity(t))


class TestCombineAlgebra:
    """How overlapping faults combine into one answer per query."""

    @given(a=fault_lists, b=fault_lists, t=times, order=st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_overlap_takes_the_max(self, a, b, t, order):
        """Overlapping windows reduce with max / any, never sum, and the
        order of the faults changes no query."""
        both = FaultSchedule(tuple(a + b))
        permuted = list(both.faults)
        order.shuffle(permuted)
        assert queries(FaultSchedule(tuple(permuted)), t) == queries(both, t)
        one, other = FaultSchedule(tuple(a)), FaultSchedule(tuple(b))
        assert both.error_scale_at(t) == max(one.error_scale_at(t),
                                             other.error_scale_at(t))
        assert both.uplink_outage_at(t) == (one.uplink_outage_at(t)
                                            or other.uplink_outage_at(t))
        assert both.ack_loss_at(t) == max(one.ack_loss_at(t),
                                          other.ack_loss_at(t))

    @given(faults=st.lists(st.one_of(tied_steps, faults), max_size=6),
           t=times)
    @settings(max_examples=150, deadline=None)
    def test_room_ambient_is_the_latest_then_brightest_step(self, faults, t):
        """Of the steps at or before ``t``, the latest holds; of several
        at that instant, the brightest; with none, the base."""
        landed = [f for f in faults if isinstance(f, AmbientStep)
                  and f.at_s <= t]
        latest = max((f.at_s for f in landed), default=None)
        expected = max((f.level for f in landed if f.at_s == latest),
                       default=0.4)
        assert queries(FaultSchedule(tuple(faults)), t)[3] == expected
