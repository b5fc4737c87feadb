import threading
import time

import pytest

from perfbench.openloop import Outcome, backlog_growing, busy_window, run_open_loop, summarize


class FakeTime:
    """A clock that only moves when someone sleeps or works."""

    def __init__(self):
        self.now = 100.0
        self.lock = threading.Lock()

    def clock(self):
        return self.now

    def sleep(self, seconds):
        with self.lock:
            self.now += seconds


def test_late_sends_are_timed_from_their_due_time():
    fake = FakeTime()

    def send(i):
        fake.sleep(0.25)  # every request takes 250 ms
        if i == 2:
            raise ConnectionError("refused")
        return i

    outcomes = run_open_loop([0.0, 0.1, 0.2], send, workers=1, clock=fake.clock, sleep=fake.sleep)
    assert [round(o.lateness_ms, 6) for o in outcomes] == [0.0, 150.0, 300.0]
    assert [round(o.latency_ms, 6) for o in outcomes] == [250.0, 400.0, 550.0]
    assert [o.ok for o in outcomes] == [True, True, False]
    assert outcomes[2].error.startswith("ConnectionError")

    report = summarize(10.0, outcomes, start=100.0)
    assert (report.sent, report.succeeded, report.failed) == (3, 2, 1)
    assert report.lag_p50_ms == pytest.approx(150.0)
    assert report.latency_p95_ms == float("inf")  # a failure misses every limit
    assert not report.meets_slo


def test_requests_are_never_sent_early():
    sent = {}

    def send(i):
        sent[i] = time.perf_counter()

    started = time.perf_counter()
    offsets = [0.0, 0.02, 0.04, 0.06]
    outcomes = run_open_loop(offsets, send, workers=2)
    assert len(outcomes) == 4
    for i, offset in enumerate(offsets):
        assert sent[i] >= started + offset - 1e-3
        assert outcomes[i].lateness_ms >= 0.0


def test_goodput_counts_successes_over_the_rung():
    outcomes = [Outcome(i, due=float(i), sent=float(i), done=i + 0.5, ok=True) for i in range(4)]
    report = summarize(1.0, outcomes, start=0.0)
    assert report.goodput_rps == pytest.approx(4 / 3.5)
    assert report.latency_p95_ms == pytest.approx(500.0)
    assert report.meets_slo  # the limit is p95 <= 500 ms, inclusive


def test_backlog_detection_ignores_isolated_spikes():
    steady = [40.0] * 40
    steady[5] = steady[30] = 900.0
    assert not backlog_growing(steady)
    growing = [40.0 + 25.0 * i for i in range(40)]
    assert backlog_growing(growing)
    assert not backlog_growing([10.0, 5000.0, 10.0, 5000.0])  # too few to tell


def test_busy_window_leaves_out_the_idle_tail():
    # Two senders behind schedule: each sends its next request as soon as
    # the last is answered.  Request 5 goes out last, at t=3.0; request 4
    # (answered at 3.5) and request 5 finish after it, one sender idle.
    spans = [(0.0, 1.0), (0.0, 1.5), (1.0, 2.0), (1.5, 3.0), (2.0, 3.5), (3.0, 4.5)]
    outcomes = [
        Outcome(i, due=0.1 * i, sent=s, done=d, ok=i != 2) for i, (s, d) in enumerate(spans)
    ]
    answered, busy_s = busy_window(outcomes, start=0.0)
    assert [o.index for o in answered] == [0, 1, 3]  # request 2 failed
    assert busy_s == 3.0
