"""Open-loop load generator with due-time accounting.

Requests are sent on a fixed schedule whatever the system's speed, from
at most ``workers`` threads, each holding one connection at a time.
Every request is timed from when it was *due*, so a stall charges its
wait to the requests queued behind it, and the generator's own
lateness (``sent - due``) is recorded to show whether a run measured the
system or the generator.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .stats import median, percentile

#: A rung whose workers have not all finished this long after starting
#: is a hung system, not a slow one.
JOIN_TIMEOUT_S = 300.0

#: The scan latency objective a rung must meet: the default scan SLO
#: (p95 at most 500 ms) of ``repro.obs.slo``.
SLO_P95_MS = 500.0


@dataclass
class Outcome:
    index: int
    due: float
    sent: float
    done: float
    ok: bool
    result: object = None
    error: str | None = None

    @property
    def lateness_ms(self) -> float:
        return 1000.0 * max(0.0, self.sent - self.due)

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


def run_open_loop(
    due_offsets: Sequence[float],
    send: Callable[[int], object],
    workers: int,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Outcome]:
    """Send request ``i`` at ``start + due_offsets[i]``; return outcomes by index.

    ``due_offsets`` must be ascending.  ``send(i)`` performs request
    ``i`` and returns its result; an exception marks it failed.  Workers
    take requests in due order, so when all of them are busy the next
    request goes out late rather than early.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    outcomes: list[Outcome | None] = [None] * len(due_offsets)
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(due_offsets):
                    return
                cursor[0] += 1
            due = start + due_offsets[i]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                result, ok, error = send(i), True, None
            except Exception as exc:  # every failure is counted, none is fatal
                result, ok, error = None, False, repr(exc)
            outcomes[i] = Outcome(i, due, sent, clock(), ok, result, error)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("open-loop worker did not finish")
    return [o for o in outcomes if o is not None]


@dataclass
class RungReport:
    rate_rps: float
    sent: int
    succeeded: int
    failed: int
    latency_p50_ms: float
    latency_p95_ms: float
    lag_p50_ms: float
    lag_p95_ms: float
    #: Requests answered successfully per second, first due to last done.
    goodput_rps: float
    backlog_growing: bool

    @property
    def meets_slo(self) -> bool:
        return self.failed == 0 and not self.backlog_growing and self.latency_p95_ms <= SLO_P95_MS


def backlog_growing(latencies_ms: Sequence[float]) -> bool:
    """True when the last quarter's median latency outgrew the first's.

    A system keeping up answers late requests as fast as early ones; a
    queue that grows by a fixed amount per second makes latency rise
    through the rung.  Isolated slow requests move neither median.
    """
    quarter = len(latencies_ms) // 4
    if quarter < 2:
        return False
    first, last = median(latencies_ms[:quarter]), median(latencies_ms[-quarter:])
    return last > 2.0 * first + 50.0


def summarize(rate_rps: float, outcomes: Sequence[Outcome], start: float | None = None) -> RungReport:
    """One rung's counts, due-time latency percentiles and lateness.

    Failed requests count as missing the latency limit: their latency
    is infinite in the percentiles.
    """
    ordered = sorted(outcomes, key=lambda o: o.index)
    latencies = [o.latency_ms if o.ok else float("inf") for o in ordered]
    lags = [o.lateness_ms for o in ordered]
    succeeded = sum(o.ok for o in ordered)
    if ordered:
        first = ordered[0].due if start is None else start
        span = max(o.done for o in ordered) - first
    else:
        span = 0.0
    return RungReport(
        rate_rps=rate_rps,
        sent=len(ordered),
        succeeded=succeeded,
        failed=len(ordered) - succeeded,
        latency_p50_ms=percentile(latencies, 50.0),
        latency_p95_ms=percentile(latencies, 95.0),
        lag_p50_ms=percentile(lags, 50.0),
        lag_p95_ms=percentile(lags, 95.0),
        goodput_rps=succeeded / span if span > 0 else 0.0,
        backlog_growing=backlog_growing(latencies),
    )


def busy_window(outcomes: Sequence[Outcome], start: float) -> tuple[list[Outcome], float]:
    """Successes answered by the time the last request went out, and that time.

    On a rung the senders cannot keep up with, every sender is busy from
    ``start`` until the last request is sent.  After that some senders
    have nothing left while the others wait on their last answers; a
    throughput over the whole rung would count that idle tail.
    """
    last_sent = max(o.sent for o in outcomes)
    return [o for o in outcomes if o.ok and o.done <= last_sent], last_sent - start
