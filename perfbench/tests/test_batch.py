import pytest

from perfbench.batch import Call, _timings
from perfbench.inputs import Script


def test_timings_take_each_scripts_median_call_at_reference_speed():
    batches = [[Script("a", "x" * 1024, 0)], [Script("b", "x" * 2048, 1)]]
    calls = [
        Call(0, 0.0, 0.2, [], slowdown=2.0),  # 0.1 s at reference speed
        Call(1, 0.2, 0.5, [], slowdown=1.0),  # 0.3 s
        Call(0, 0.5, 0.6, [], slowdown=1.0),  # 0.1 s
        Call(1, 0.6, 1.2, [], slowdown=2.0),  # 0.3 s
        Call(0, 1.2, 1.5, [], slowdown=1.0),  # 0.3 s: the median of a's three is 0.1 s
        Call(1, 1.5, 1.8, [], slowdown=1.0),  # 0.3 s
    ]
    out = _timings(batches, calls)
    assert out["scripts_per_s"] == pytest.approx(2 / 0.4)
    assert out["kb_per_s"] == pytest.approx(3 / 0.4)
    assert out["latency_p50_ms"] == pytest.approx(200.0)
    assert out["raw_scripts_per_s"] == pytest.approx(2 / (0.2 + 0.3))
    assert out["slowdown"] == pytest.approx(1.0)
    assert out["calls"] == 6 and out["measured_s"] == pytest.approx(1.8)
