"""Property tests: tracer span discipline and histogram accounting.

Random programs of span open/close, point emits and histogram
observations must preserve the structural invariants the golden suite
relies on: spans close in LIFO order with matching depths, sequence
numbers are gapless, histogram count/total always equal the observation
stream, and counters paired with histograms stay in lock-step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import COUNT_BUCKETS, MetricsRegistry, Tracer
from repro.obs.registry import Histogram
from repro.sim.clock import SimClock

#: one random program step: open a span, close the innermost, or emit
STEP = st.sampled_from(["open", "close", "emit"])


@settings(max_examples=80, deadline=None)
@given(st.lists(STEP, max_size=120), st.integers(4, 64))
def test_spans_balanced_and_properly_nested(steps, capacity):
    tracer = Tracer(SimClock(), capacity=capacity)
    stack = []
    for step in steps:
        if step == "open":
            span = tracer.span(f"s{len(stack)}")
            span.__enter__()
            stack.append(span)
        elif step == "close" and stack:
            stack.pop().__exit__(None, None, None)
        elif step == "emit":
            tracer.emit("p")
    while stack:
        stack.pop().__exit__(None, None, None)
    assert tracer.open_spans == 0

    events = tracer.events()
    # gapless, increasing sequence over the retained window
    seqs = [e["i"] for e in events]
    assert seqs == sorted(seqs)
    assert all(b - a == 1 for a, b in zip(seqs, seqs[1:]))

    # every B/E pair retained in full must agree on depth; ends must
    # close in LIFO order (verified by replaying the window's stack)
    begins = {e["span"]: e for e in events if e["kind"] == "B"}
    replay = []
    for event in events:
        if event["kind"] == "B":
            replay.append(event["span"])
        elif event["kind"] == "E":
            if event["span"] in begins:
                assert begins[event["span"]]["depth"] == event["depth"]
            if replay and replay[-1] == event["span"]:
                replay.pop()
            else:
                # its begin fell out of the ring buffer window
                assert event["span"] not in replay


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), max_size=200))
def test_histogram_totals_match_observations(values):
    h = Histogram("h", COUNT_BUCKETS)
    for value in values:
        h.observe(value)
    assert h.count == len(values)
    assert sum(h.counts) == len(values)
    assert h.total == sum(values)
    # bucket placement: everything <= bounds[i] and > bounds[i-1]
    for i, bound in enumerate(h.bounds):
        lower = h.bounds[i - 1] if i else float("-inf")
        assert h.counts[i] == sum(1 for v in values if lower < v <= bound)
    assert h.counts[-1] == sum(1 for v in values if v > h.bounds[-1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 500), max_size=100))
def test_counter_histogram_lockstep(batches):
    """The cursor idiom: each operation incs a counter once and observes
    its cardinality once — histogram.count must equal the counter."""
    reg = MetricsRegistry()
    ops = reg.counter("op.count")
    sizes = reg.histogram("op.hits", COUNT_BUCKETS)
    for n in batches:
        ops.inc()
        sizes.observe(float(n))
    assert sizes.count == reg.counter_value("op.count")
    assert sizes.total == float(sum(batches))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 10.0, allow_nan=False),
                          st.booleans()), max_size=60))
def test_span_durations_track_simulated_clock(program):
    """A span's exported duration equals the simulated time advanced
    while it was open, for arbitrary open/advance interleavings."""
    clock = SimClock()
    tracer = Tracer(clock, capacity=1 << 12)
    for advance, nest in program:
        with tracer.span("outer"):
            clock.advance(advance)
            if nest:
                with tracer.span("inner"):
                    clock.advance(advance)
    events = tracer.events()
    t_begin = {e["span"]: e["t"] for e in events if e["kind"] == "B"}
    for event in events:
        if event["kind"] == "E":
            assert event["dur"] == event["t"] - t_begin[event["span"]]
