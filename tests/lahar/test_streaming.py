"""StreamingQuery (standing query / alert) tests."""

import pytest

from reference_reg import ReferenceReg
from repro.lahar import Alert, StreamingQuery
from repro.query import parse_query
from repro.streams import routine_stream


@pytest.fixture(scope="module")
def stream():
    return routine_stream("p", num_snippets=8, seed=2)


def test_alerts_match_offline_signal(stream):
    """Streaming evaluation fires exactly where the offline Reg signal
    crosses the threshold."""
    text = "location=Door -> location=Room"
    threshold = 0.05
    ref = ReferenceReg(parse_query(text), stream.space)
    offline = [ref.initialize(stream.marginal(0))]
    for t in range(1, len(stream)):
        offline.append(ref.update(stream.cpt_into(t)))
    expected = {t for t, p in enumerate(offline) if p >= threshold}

    sq = StreamingQuery(stream.space)
    sq.register(parse_query(text), threshold=threshold, name="entered")
    alerts = list(sq.start(stream.marginal(0)))
    for t in range(1, len(stream)):
        alerts.extend(sq.advance(stream.cpt_into(t)))
    assert sq.time == len(stream) - 1
    assert {a.time for a in alerts} == expected
    for alert in alerts:
        assert alert.name == "entered"
        assert alert.probability == pytest.approx(offline[alert.time])


def test_multiple_registrations_fire_independently(stream):
    sq = StreamingQuery(stream.space)
    sq.register(parse_query("location=Door"), threshold=0.5, name="door")
    sq.register(parse_query("location=Room"), threshold=0.5, name="room")
    alerts = list(sq.start(stream.marginal(0)))
    for t in range(1, len(stream)):
        alerts.extend(sq.advance(stream.cpt_into(t)))
    names = {a.name for a in alerts}
    assert "door" in names and "room" in names
    door_times = {a.time for a in alerts if a.name == "door"}
    room_times = {a.time for a in alerts if a.name == "room"}
    assert door_times != room_times


def test_lifecycle_errors(stream):
    sq = StreamingQuery(stream.space)
    with pytest.raises(RuntimeError, match="before start"):
        sq.advance(stream.cpt_into(1))
    sq.register(parse_query("location=Room"))
    assert sq.time is None
    list(sq.start(stream.marginal(0)))
    with pytest.raises(RuntimeError, match="before the stream starts"):
        sq.register(parse_query("location=Door"))


def test_alert_is_immutable():
    alert = Alert("q", 3, 0.5)
    with pytest.raises(AttributeError):
        alert.time = 4
