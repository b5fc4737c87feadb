import os
import time

import pytest

from perfbench.calibrate import INTERVAL_S, SpeedProbe


def test_speed_probe_reads_in_its_own_process_until_closed():
    with SpeedProbe(min(os.sched_getaffinity(0))) as probe:
        start = time.monotonic()
        time.sleep(20 * INTERVAL_S)
        end = time.monotonic()
    assert probe._process.returncode == 0
    assert len(probe.times) >= 5 and probe.times == sorted(probe.times)
    assert all(0.1 < s < 20.0 for s in probe.slowdowns)
    inside = [s for t, s in zip(probe.times, probe.slowdowns) if start <= t <= end]
    assert probe.slowdown(start, end) == pytest.approx(sum(inside) / len(inside))


def test_a_span_without_readings_takes_its_neighbours():
    probe = SpeedProbe.__new__(SpeedProbe)
    probe.times, probe.slowdowns = [1.0, 2.0, 3.0], [1.0, 1.5, 3.0]
    assert probe.slowdown(2.1, 2.9) == pytest.approx(2.25)
    assert probe.slowdown(0.0, 0.5) == pytest.approx(1.0)
    assert probe.slowdown(3.5, 4.0) == pytest.approx(3.0)
    assert probe.slowdown(0.5, 2.5) == pytest.approx(1.25)
