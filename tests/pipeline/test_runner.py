"""Progress-event ordering invariants of an inline ``advise_many`` batch.

Profile-source requests run the analysis stage only, so these batches cost
milliseconds; ``no/such:case`` fails fast inside the session.
"""

import pytest

from repro.api.request import AdvisingRequest, request_for_case
from repro.api.session import AdvisingSession
from repro.pipeline.runner import ProgressEvent

FAILING = "no/such:case"


@pytest.fixture(scope="module")
def inline():
    return AdvisingSession(jobs=1)


@pytest.fixture
def run_batch(inline, toy_profiled, toy_cubin):
    """Run named requests inline; ``FAILING`` names a request that fails."""

    def request(name):
        if name == FAILING:
            return request_for_case(name)
        return AdvisingRequest(
            source="profile", profile=toy_profiled.profile, cubin=toy_cubin,
            label=name,
        )

    def run(names):
        events = []
        results = inline.advise_many(
            [request(name) for name in names], progress=events.append
        )
        return events, results

    return run


class TestProgressEventOrdering:
    def test_start_and_done_are_adjacent_per_step(self, run_batch):
        events, _ = run_batch(["a", "b", "c"])
        assert len(events) == 6
        for start, finish in zip(events[::2], events[1::2]):
            assert start.status == "start"
            assert finish.status == "done"
            assert start.step == finish.step
            assert start.index == finish.index

    def test_error_event_is_adjacent_to_its_start(self, run_batch):
        events, results = run_batch(["ok", FAILING, "after"])
        statuses = [(event.step, event.status) for event in events]
        assert statuses == [
            ("ok", "start"), ("ok", "done"),
            (FAILING, "start"), (FAILING, "error"),
            ("after", "start"), ("after", "done"),
        ]
        # A failing request in the middle never aborts the rest.
        assert [result.ok for result in results] == [True, False, True]

    def test_indices_are_sequential_and_totals_constant(self, run_batch):
        events, _ = run_batch([str(i) for i in range(5)])
        assert [event.index for event in events[::2]] == list(range(5))
        assert {event.total for event in events} == {5}
        for event in events:
            assert 0 <= event.index < event.total

    def test_start_events_carry_no_duration_or_error(self, run_batch):
        events, _ = run_batch([FAILING])
        start, error = events
        assert start.duration == 0.0 and start.error is None
        assert error.status == "error"
        assert error.duration >= 0.0
        assert "KeyError" in error.error

    def test_done_durations_match_outcomes(self, run_batch):
        events, results = run_batch(["a", FAILING, "b"])
        finals = events[1::2]
        assert [event.duration for event in finals] == [
            result.duration for result in results
        ]
        assert [event.error for event in finals] == [
            result.error for result in results
        ]

    def test_empty_plan_emits_nothing(self, run_batch):
        events, results = run_batch([])
        assert events == [] and results == []

    def test_event_is_frozen(self):
        event = ProgressEvent("x", 0, 1, "start")
        with pytest.raises(AttributeError):
            event.status = "done"
