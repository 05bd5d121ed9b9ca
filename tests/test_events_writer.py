"""``events.jsonl`` is written by a line writer with a fixed detection line.

The writer must give exactly the lines ``event_to_json_line`` gives, one
per item: a ``Detection`` record takes the detection template, and must
spell the ``Event`` of kind ``detection`` it stands for; an ``Event`` of
any kind goes to the reference encoder.  ``Detection``s are
drawn as the detection scan makes them: str ids that are not empty, a
finite float range, and a time of ticks × tick, all floats or, with an
int tick, all ints.  ``Event``s are drawn with any payload.
"""

import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uuvnav.sim.runner import event_to_json_line, write_events_jsonl
from uuvnav.sim.world import Detection, Event

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def written(events):
    out = io.StringIO()
    write_events_jsonl(events, out)
    return out.getvalue()


def as_event(event):
    """A ``Detection`` as the ``Event`` it stands for; an ``Event`` as is."""
    if type(event) is Detection:
        payload = {"beacon": event.beacon, "range": event.range}
        return Event(event.time, event.kind, event.subject, payload)
    return event


def reference(events):
    return "".join(event_to_json_line(as_event(e)) + "\n" for e in events)


# ids that json must escape: quotes, backslashes, control and non-ASCII;
# and % and braces, which a format string would read
ids = st.text(alphabet='b1"\\\n\t\x00\x7f/é \U0001f30a%{}', min_size=1, max_size=6) | st.text(
    max_size=6
)
floats = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e300, 0.1, 123.0]
) | st.floats()
ranges = floats | st.sampled_from([7, True, False, None]) | st.integers()
times = floats | st.integers(min_value=0, max_value=10**6) | st.booleans()
subjects = ids | st.integers() | st.none()

detection_payloads = st.fixed_dictionaries({"beacon": ids, "range": ranges})
# an extra key, a missing key, a key that overrides the record's own
odd_payloads = (
    st.fixed_dictionaries({"beacon": ids, "range": ranges, "note": ids})
    | st.fixed_dictionaries({"beacon": ids})
    | st.fixed_dictionaries({"range": ranges})
    | st.fixed_dictionaries({"beacon": ids, "range": ranges, "t": floats})
    | st.fixed_dictionaries({"beacon": ids, "range": ranges, "kind": ids})
    | st.fixed_dictionaries({"beacon": st.integers(), "range": ranges})
    # not a dict, though record.update takes it
    | st.just([("beacon", "b1"), ("range", 1.5)])
)
positions = st.lists(st.floats(), min_size=2, max_size=2)
actions = st.fixed_dictionaries({"action": ids, "args": st.lists(ids, max_size=3)})
# the other payloads the simulator and the monitor emit, by kind
other_events = st.one_of(
    st.tuples(st.sampled_from(["action-started", "action-completed"]), actions),
    st.tuples(
        st.just("action-failed"),
        st.fixed_dictionaries(
            {"action": st.none() | ids, "args": st.lists(ids, max_size=2), "reason": ids}
        ),
    ),
    st.tuples(st.just("mission-completed"), st.just({})),
    st.tuples(st.just("mission-failed"), st.fixed_dictionaries({"reason": ids})),
    st.tuples(
        st.sampled_from(["waypoint-reached", "broadcast-sent"]),
        st.fixed_dictionaries({"position": positions}),
    ),
    st.tuples(
        st.just("broadcast-received"),
        st.fixed_dictionaries({"from": ids, "position": positions}),
    ),
    st.tuples(
        st.just("replan-triggered"),
        st.fixed_dictionaries({"beacon": ids, "plan_length": st.integers(0, 50)}),
    ),
    st.tuples(st.just("warning"), st.fixed_dictionaries({"message": ids})),
)
kinds_and_payloads = (
    st.tuples(st.just("detection"), detection_payloads | odd_payloads)
    | st.tuples(ids, detection_payloads)
    | other_events
)
events = st.builds(
    lambda t, subject, kind_payload: Event(t, kind_payload[0], subject, kind_payload[1]),
    times,
    subjects,
    kinds_and_payloads,
)
# detections drawn from few pairs, ranges and times, so that they repeat
events |= st.builds(
    lambda t, subject, beacon, r: Event(t, "detection", subject, {"beacon": beacon, "range": r}),
    st.sampled_from([0.0, -0.0, 3.0, 3]),
    st.just("u1"),
    st.sampled_from(["b1", "b2"]),
    st.sampled_from([0.0, -0.0, 1.5, 2]),
)


# the ticks of a world inside the envelope, and an int tick
ticks = (
    st.sampled_from([1.0, 0.5, 0.7, 0.001, 3600.0])
    | st.floats(0.001, 3600.0)
    | st.integers(1, 3600)
)
scan_ids = ids.filter(bool)
scan_ranges = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 0.1, 123.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def event_lists(draw):
    """Up to 8 events, among them the records the detection scan logs with
    the times of one drawn tick."""
    tick = draw(ticks)

    def detection(ticks_run, subject, beacon, distance):
        return Detection(ticks_run * tick, subject, beacon, distance)

    detections = st.builds(detection, st.integers(0, 10**7), scan_ids, scan_ids, scan_ranges)
    # and drawn from few pairs, ranges and times, so that they repeat
    detections |= st.builds(
        detection,
        st.sampled_from([0, 3, 4]),
        st.sampled_from(["u1", "u2"]),
        st.sampled_from(["b1", "b2"]),
        st.sampled_from([0.0, -0.0, 1.5, 2.5]),
    )
    return draw(st.lists(events | detections, max_size=8))


@PROPERTY
@given(event_lists())
@example([Event(3.0, "detection", 'u"1\\', {"beacon": "b\x00é", "range": 5e-324})])
@example([Event(1.0, "detection", "uuv1", {"beacon": "b1", "range": r})
          for r in (math.nan, math.inf, -math.inf, -0.0, 1e16, 7, True)])
@example([Event(2.0, "detection", "uuv1", {"beacon": "b1", "range": 1.5, "t": 9.0}),
          Event(2.0, "detection", "uuv1", {"beacon": "b1", "range": 1.5, "kind": "x"}),
          Event(2.0, "detection", "uuv1", {"beacon": "b1"}),
          Event(2, "detection", "uuv1", {"beacon": "b1", "range": 1.5}),
          Event(True, "detection", "uuv1", {"beacon": "b1", "range": 1.5}),
          Event(2.0, "detection", 7, {"beacon": "b1", "range": 1.5}),
          Event(2.0, "detection", "uuv1", [("beacon", "b1"), ("range", 1.5)])])
# a range repeated by one (subject, beacon) pair, then equal zeros that
# spell differently; a time repeated, then equal zeros; non-finite times
@example([Event(t, "detection", "uuv1", {"beacon": "b1", "range": r})
          for t, r in ((4.0, 1.5), (4.0, 1.5), (0.0, 0.0), (-0.0, -0.0), (0.0, 0.0))])
@example([Event(t, "detection", "uuv1", {"beacon": "b1", "range": 1.5})
          for t in (math.nan, math.inf, -math.inf)])
# a pair's range repeated, changed, then equal zeros that spell
# differently; the same pair as an Event of kind detection between
@example([Detection(t, "uuv1", "b1", r)
          for t, r in ((4.0, 1.5), (4.0, 1.5), (5.0, 2.5), (5.0, 1.5), (0.0, 0.0), (-0.0, -0.0),
                       (0.0, 0.0), (1.0, -0.0))]
         + [Event(1.0, "detection", "uuv1", {"beacon": "b1", "range": 0.0}),
            Detection(1.0, "uuv1", "b1", 0.0)])
# int times, of a world with an int tick: repeated, then 0 beside equal
# zero ranges that spell differently
@example([Detection(t, "uuv1", "b1", r)
          for t, r in ((2, 1.5), (2, 1.5), (3, 1.5), (0, 0.0), (0, -0.0), (0, 0.0))])
# ids that json escapes, or that a format string would read
@example([Detection(3.0, 'u"1\\', "b\x00é", 5e-324), Detection(3.0, "%s%r", "{0}%%", 1.5),
          Detection(3.0, "%s%r", "{0}%%", 1.5)])
def test_writer_matches_event_to_json_line_byte_for_byte(event_list):
    assert written(event_list) == reference(event_list)


def test_no_events_is_an_empty_file():
    assert written([]) == ""


def test_a_detection_line_is_the_reference_line():
    line = '{"beacon":"b4","kind":"detection","range":1234.5678,"subject":"uuv2","t":12.0,"v":1}\n'
    record = Detection(12.0, "uuv2", "b4", 1234.5678)
    event = Event(12.0, "detection", "uuv2", {"beacon": "b4", "range": 1234.5678})
    assert as_event(record) == event
    assert written([record]) == written([event]) == reference([record]) == line
