"""Bounded buffers: the ring buffer and the decision event log."""

import pytest

from repro.telemetry import EventLog, RingBuffer


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RingBuffer(0)
    with pytest.raises(ValueError):
        RingBuffer(-1)


def test_append_under_capacity_keeps_everything():
    buf = RingBuffer(3)
    for item in (1, 2):
        buf.append(item)
    assert buf.to_list() == [1, 2]
    assert len(buf) == 2
    assert buf.evicted == 0


def test_eviction_drops_oldest_first_and_counts():
    buf = RingBuffer(3)
    for item in range(1, 6):
        buf.append(item)
    assert buf.to_list() == [3, 4, 5]
    assert buf.evicted == 2
    assert buf[0] == 3
    assert buf[-1] == 5
    assert list(buf) == [3, 4, 5]


def test_event_log_records_and_filters():
    log = EventLog()
    log.log(1.0, "policy_run", policy="ffa")
    log.log(2.0, "reconfig_issued", "ring reversed", comm=0)
    assert len(log) == 2
    assert [e.kind for e in log.events()] == ["policy_run", "reconfig_issued"]
    assert log.events("policy_run")[0].attrs == {"policy": "ffa"}
    assert log.events("reconfig_issued")[0].message == "ring reversed"
    assert log.events("missing") == []


def test_event_log_is_bounded():
    log = EventLog(max_events=4)
    for i in range(10):
        log.log(float(i), "tick", i=i)
    assert len(log) == 4
    assert log.evicted == 6
    assert [e.attrs["i"] for e in log.events()] == [6, 7, 8, 9]


def test_event_to_dict_round_trips_through_json():
    import json

    log = EventLog()
    event = log.log(0.5, "policy_run", "report", policy="pfa", apps=["A"])
    payload = json.dumps(event.to_dict())
    assert "pfa" in payload and "report" in payload
