"""``merge_series_columns`` (the array-fed merge) == ``merge_series``.

The component search merges its per-component traces from flat columns
read out of the result regions.  These properties pin that merge to
``merge_series`` over ``Series`` objects and to an independent oracle —
the sort-and-``groupby`` sweep ``merge_series`` was before it gained a
column form — on the same points, the same time floats and the same
``record_final`` totals.
"""

import functools
import itertools
import math
import operator

from hypothesis import given, settings, strategies as st

from repro.obs.events import Series, SeriesPoint, merge_series, merge_series_columns


def oracle_merge(traces, label=""):
    merged = Series(label)
    if not traces:
        return merged
    entries = [
        (point.time, index, point.cost)
        for index, trace in enumerate(traces)
        for point in trace.points
    ]
    entries.sort(key=operator.itemgetter(0))
    bests = [math.inf] * len(traces)
    undefined = len(traces)
    for timestamp, group in itertools.groupby(entries, key=operator.itemgetter(0)):
        for _, index, cost in group:
            best = bests[index]
            if cost < best:
                undefined += math.isinf(cost) - math.isinf(best)
                bests[index] = cost
        if not undefined:
            merged.record_final(timestamp, functools.reduce(operator.add, bests, 0.0))
    return merged


def columns(traces):
    times, owners, costs = [], [], []
    for index, trace in enumerate(traces):
        for point in trace.points:
            times.append(point.time)
            owners.append(index)
            costs.append(point.cost)
    return times, owners, costs


def as_tuples(series):
    return [(p.time, p.cost, p.flips) for p in series.points]


# A small pool of timestamps, so that components share them often.
SHARED_TIMES = [0.0, 1e-05, 2e-05, 3.0000000000000004e-05, 0.5, 1.25]
times = st.one_of(
    st.sampled_from(SHARED_TIMES),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
costs = st.one_of(
    st.just(math.inf),
    st.sampled_from([0.0, 0.1, 0.2, 0.7, 1e16, 1.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def trace_sets(draw, min_traces=0, max_traces=6):
    count = draw(st.integers(min_value=min_traces, max_value=max_traces))
    traces = []
    for index in range(count):
        trace = Series(f"component-{index}")
        points = draw(st.lists(st.tuples(times, costs), max_size=6))
        for flips, (time, cost) in enumerate(points):
            trace.points.append(SeriesPoint(time, cost, flips))
        traces.append(trace)
    return traces


class TestMergeSeriesColumns:
    @settings(max_examples=300, deadline=None)
    @given(trace_sets())
    def test_columns_equal_series_and_oracle(self, traces):
        times, owners, costs = columns(traces)
        merged = merge_series_columns(times, owners, costs, len(traces), "tuffy")
        assert merged.label == "tuffy"
        assert as_tuples(merged) == as_tuples(merge_series(traces, "tuffy"))
        assert as_tuples(merged) == as_tuples(oracle_merge(traces, "tuffy"))

    @settings(max_examples=100, deadline=None)
    @given(trace_sets(min_traces=1, max_traces=1))
    def test_single_component(self, traces):
        times, owners, costs = columns(traces)
        merged = merge_series_columns(times, owners, costs, 1)
        assert as_tuples(merged) == as_tuples(oracle_merge(traces))

    def test_empty_trace_keeps_the_merge_undefined(self):
        full = Series(points=[SeriesPoint(0.0, 3.0), SeriesPoint(1.0, 2.0)])
        traces = [full, Series()]
        merged = merge_series_columns(*columns(traces), 2)
        assert merged.points == [] == oracle_merge(traces).points

    def test_no_traces(self):
        assert merge_series_columns([], [], [], 0, "x").points == []

    def test_shared_timestamps_sum_left_to_right(self):
        traces = [
            Series(points=[SeriesPoint(0.0, 1e16)]),
            Series(points=[SeriesPoint(0.0, 1.0)]),
            Series(points=[SeriesPoint(0.0, 1.0), SeriesPoint(2e-05, 0.0)]),
        ]
        merged = merge_series_columns(*columns(traces), 3)
        fold = functools.reduce(operator.add, [1e16, 1.0, 1.0], 0.0)
        assert as_tuples(merged) == [(0.0, fold, 0), (2e-05, 1e16 + 1.0, 0)]
        assert as_tuples(merged) == as_tuples(oracle_merge(traces))

    def test_infinite_costs_leave_a_component_undefined(self):
        traces = [
            Series(points=[SeriesPoint(0.0, math.inf), SeriesPoint(1.0, 4.0)]),
            Series(points=[SeriesPoint(0.5, 1.0)]),
        ]
        merged = merge_series_columns(*columns(traces), 2)
        assert as_tuples(merged) == [(1.0, 5.0, 0)]
        assert as_tuples(merged) == as_tuples(oracle_merge(traces))
