import threading

from cloudinst import trace
from cloudinst.trace import recording, span


def test_spans_sum_per_name_inside_a_recorder(monkeypatch):
    monkeypatch.setattr(trace, "perf_counter", iter([0.0, 1.0, 5.0, 7.0, 9.0, 20.0]).__next__)
    with recording() as spans:
        with span("a"):
            pass
        with span("a"):
            with span("b"):
                pass
    assert spans == {"a": 1.0 + 15.0, "b": 2.0}


def test_spans_outside_a_recorder_record_nothing(monkeypatch):
    def no_clock():
        raise AssertionError("a span read the clock with no recorder active")

    with recording() as spans:
        pass
    monkeypatch.setattr(trace, "perf_counter", no_clock)
    with span("late"):  # after the recorder closed
        pass
    assert spans == {}


def test_a_recorder_sees_only_the_spans_of_its_thread():
    seen = {}

    def other():
        with span("unrecorded"):  # this thread has no recorder of its own
            pass
        with recording() as theirs:
            with span("theirs"):
                pass
        seen.update(theirs)

    with recording() as mine:
        with span("mine"):
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=30)
    assert not worker.is_alive()
    assert set(mine) == {"mine"}
    assert set(seen) == {"theirs"}


def test_recorded_spans_of_elsewhere_add_to_the_active_recorder_only(monkeypatch):
    monkeypatch.setattr(trace, "perf_counter", iter([0.0, 1.0]).__next__)
    trace.record({"a": 5.0})  # no recorder active: nothing to add to
    with recording() as spans:
        with span("a"):
            pass
        trace.record({"a": 2.0, "b": 3.0})
    assert spans == {"a": 3.0, "b": 3.0}
