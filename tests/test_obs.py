"""Unit tests for the observability subsystem (:mod:`repro.obs`).

Tracer semantics (ambient nesting, post-hoc stitching, request
attribution), metrics registry aggregates, the Chrome trace-event /
metrics exporters, and the one-sweep ``merge_series`` against its
quadratic reference.  The dynamic non-perturbation guarantee — tracing on
vs off is bit-identical — lives in ``tests/test_obs_parity.py``.
"""

import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.events import Series, merge_series
from repro.obs.tracer import _NULL_SPAN


class TestNullTracer:
    def test_everything_is_a_shared_noop(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.now() == 0.0
        assert tracer.span("x") is _NULL_SPAN
        assert tracer.record_span("x", 0.0, 1.0) is _NULL_SPAN
        assert tracer.instant("x") is _NULL_SPAN
        with tracer.span("request", kind="map") as span:
            assert span.annotate(request_id=3) is span
        assert tracer.spans() == []
        assert tracer.request_spans(3) == []
        assert tracer.current_span() is None


class TestRecordingTracer:
    def test_with_blocks_nest_via_the_ambient_stack(self):
        tracer = RecordingTracer()
        with tracer.span("request") as root:
            with tracer.span("setup") as setup:
                with tracer.span("ground") as ground:
                    pass
        assert root.parent_id is None
        assert setup.parent_id == root.span_id
        assert ground.parent_id == setup.span_id
        assert [s.name for s in tracer.spans()] == ["request", "setup", "ground"]
        for span in tracer.spans():
            assert span.wall_end is not None
            assert span.wall_end >= span.wall_start

    def test_record_span_defaults_to_ambient_parent(self):
        tracer = RecordingTracer()
        with tracer.span("request") as root:
            stitched = tracer.record_span("component[0]", 1.0, 2.0, worker=1)
        assert stitched.parent_id == root.span_id
        assert stitched.wall_duration == 1.0
        assert stitched.attributes["worker"] == 1

    def test_record_span_accepts_span_and_id_parents(self):
        tracer = RecordingTracer()
        with tracer.span("request") as root:
            pass
        by_span = tracer.record_span("a", 0.0, 1.0, parent=root)
        by_id = tracer.record_span("b", 0.0, 1.0, parent=root.span_id)
        assert by_span.parent_id == root.span_id
        assert by_id.parent_id == root.span_id

    def test_request_attribution_resolves_through_ancestors(self):
        tracer = RecordingTracer()
        with tracer.span("request") as root:
            root.annotate(request_id=7)
            with tracer.span("setup"):
                leaf = tracer.record_span("lease-checkout", 0.0, 1.0)
        assert tracer.request_id_of(leaf) == 7
        assert [s.name for s in tracer.request_spans(7)] == [
            "request",
            "setup",
            "lease-checkout",
        ]
        assert tracer.request_ids() == [7]

    def test_ambient_stack_is_per_thread(self):
        tracer = RecordingTracer()
        recorded = []

        def other_thread():
            recorded.append(tracer.record_span("orphan", 0.0, 1.0))

        with tracer.span("request"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert recorded[0].parent_id is None

    def test_simulated_clock_is_read_not_advanced(self):
        readings = iter([1.5, 2.5])
        tracer = RecordingTracer(simulated_now=lambda: next(readings))
        with tracer.span("request") as span:
            pass
        assert span.simulated_start == 1.5
        assert span.simulated_end == 2.5

    def test_exception_annotates_and_closes_the_span(self):
        tracer = RecordingTracer()
        with pytest.raises(ValueError):
            with tracer.span("request"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.attributes["error"] == "ValueError"
        assert span.wall_end is not None
        assert tracer.current_span() is None


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.increment("pool.shm_shipped")
        registry.increment("pool.shm_shipped", 2)
        registry.set_gauge("io.page_reads", 42)
        registry.observe("request.phase.search", 1.0)
        registry.observe("request.phase.search", 3.0)
        assert registry.counter("pool.shm_shipped") == 3.0
        assert registry.counter("never.touched") == 0.0
        assert registry.gauge("io.page_reads") == 42.0
        histogram = registry.histogram("request.phase.search")
        assert histogram == {
            "count": 2.0,
            "total": 4.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
        }

    def test_render_text_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.increment("b.counter")
        registry.increment("a.counter")
        registry.set_gauge("z.gauge", 1.0)
        registry.observe("m.hist", 2.0)
        lines = registry.render_text().splitlines()
        assert lines[0] == "counter a.counter 1"
        assert lines[1] == "counter b.counter 1"
        assert any(line.startswith("gauge z.gauge") for line in lines)
        assert any(line.startswith("histogram m.hist") for line in lines)

    def test_render_json_round_trips(self):
        registry = MetricsRegistry()
        registry.increment("a", 2.5)
        payload = json.loads(registry.render_json())
        assert payload["counters"]["a"] == 2.5


class TestChromeTraceExport:
    def _tracer(self):
        tracer = RecordingTracer()
        with tracer.span("request", kind="map") as root:
            root.annotate(request_id=1)
            with tracer.span("setup"):
                pass
            tracer.record_span("component[0]", tracer.now(), tracer.now())
        return tracer

    def test_events_validate_and_normalize(self):
        tracer = self._tracer()
        payload = chrome_trace_events(tracer)
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        assert len(events) == 3
        assert min(event["ts"] for event in events) == 0
        # Request lanes: every event of request 1 rides tid 1.
        assert {event["tid"] for event in events} == {1}
        names = {event["name"] for event in events}
        assert names == {"request", "setup", "component[0]"}

    def test_write_chrome_trace_is_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._tracer(), path)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad_event = {"traceEvents": [{"ph": "X"}]}
        assert validate_chrome_trace(bad_event) != []
        negative_dur = {
            "traceEvents": [
                {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 0, "tid": 0}
            ]
        }
        assert validate_chrome_trace(negative_dur) != []

    def test_write_metrics_json_and_text(self, tmp_path):
        registry = MetricsRegistry()
        registry.increment("pool.shm_shipped", 4)
        json_path = tmp_path / "metrics.json"
        text_path = tmp_path / "metrics.txt"
        write_metrics(registry, json_path)
        write_metrics(registry, text_path)
        assert json.loads(json_path.read_text())["counters"]["pool.shm_shipped"] == 4.0
        assert "counter pool.shm_shipped 4" in text_path.read_text()


def reference_merge_series(traces, label=""):
    """The quadratic definition :func:`merge_series` must reproduce exactly.

    For every distinct timestamp, rescan every point of every trace for its
    best cost so far and add the bests up left to right in trace order.
    Kept here as the oracle for the one-sweep implementation.
    """
    merged = Series(label)
    if not traces:
        return merged
    timestamps = sorted({point.time for trace in traces for point in trace.points})
    for timestamp in timestamps:
        total = 0.0
        defined = True
        for trace in traces:
            best = math.inf
            for point in trace.points:
                if point.time <= timestamp and point.cost < best:
                    best = point.cost
            if math.isinf(best):
                defined = False
                break
            total += best
        if defined:
            merged.record_final(timestamp, total)
    return merged


def _rows(series):
    """Bit-exact projection: floats by their hex form (0.1+0.2 != 0.3)."""
    return [(point.time.hex(), point.cost.hex(), point.flips) for point in series.points]


#: Few distinct timestamps (duplicates within and across traces), costs
#: that do not add exactly, ``inf`` (a violated hard clause) included.
_times = st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 1.5, 2.0, 1e9])
_costs = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1e-9, 1e16, math.inf]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
_traces = st.lists(
    st.lists(st.tuples(_times, _costs), max_size=8), max_size=7
)


class TestMergeSeries:
    @given(raw=_traces)
    @settings(max_examples=300, deadline=None)
    def test_sweep_equals_quadratic_reference(self, raw):
        traces = []
        for rows in raw:
            series = Series("component")
            for time, cost in rows:
                series.record_final(time, cost)  # unsorted, non-monotone too
            traces.append(series)
        assert _rows(merge_series(traces, "m")) == _rows(
            reference_merge_series(traces, "m")
        )

    def test_undefined_until_every_trace_has_a_finite_best(self):
        first, second, empty = Series(), Series(), Series()
        first.record_final(1.0, 5.0)
        first.record_final(3.0, 2.0)
        second.record_final(2.0, math.inf)
        second.record_final(3.0, 4.0)
        second.record_final(3.0, 1.0)  # duplicate timestamp: the best counts
        merged = merge_series([first, second])
        assert [(p.time, p.cost) for p in merged.points] == [(3.0, 3.0)]
        assert merge_series([first, second, empty]).points == []
        assert merge_series([]).points == []

    def test_totals_are_left_to_right_sums_in_trace_order(self):
        # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 in floating point.
        traces = []
        for cost in (0.1, 0.2, 0.3):
            series = Series()
            series.record_final(0.0, cost)
            traces.append(series)
        assert merge_series(traces).points[0].cost == 0.0 + 0.1 + 0.2 + 0.3
        assert merge_series(traces[::-1]).points[0].cost == 0.0 + 0.3 + 0.2 + 0.1

    def test_label_is_honoured(self):
        trace = Series("component-0")
        trace.record(0.5, 2.0)
        merged = merge_series([trace], label="tuffy")
        assert merged.label == "tuffy"
        assert merged.as_rows() == [(0.5, 2.0)]
