import math

import pytest

from perfbench.scrape import Scrape, ScrapeDiff, bucket_quantile

BEFORE = """# TYPE repro_scan_scripts_total counter
repro_scan_scripts_total 10
# TYPE repro_router_cache_total counter
repro_router_cache_total{result="hit"} 4
repro_router_cache_total{result="miss"} 6
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 3
# TYPE repro_q_seconds histogram
repro_q_seconds_bucket{le="0.01"} 1
repro_q_seconds_bucket{le="0.05"} 3
repro_q_seconds_bucket{le="+Inf"} 4
repro_q_seconds_sum 0.2
repro_q_seconds_count 4
"""

AFTER = """# TYPE repro_scan_scripts_total counter
repro_scan_scripts_total 3
# TYPE repro_router_cache_total counter
repro_router_cache_total{result="hit"} 9
repro_router_cache_total{result="miss"} 16
repro_router_cache_total{result="bypass"} 1
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 0
# TYPE repro_q_seconds histogram
repro_q_seconds_bucket{le="0.01"} 1
repro_q_seconds_bucket{le="0.05"} 13
repro_q_seconds_bucket{le="+Inf"} 14
repro_q_seconds_sum 0.6
repro_q_seconds_count 14
"""


def diff():
    return ScrapeDiff(Scrape.parse(BEFORE), Scrape.parse(AFTER))


def test_counter_difference_and_label_filter():
    d = diff()
    assert d.counter("repro_router_cache_total", {"result": "hit"}) == 5
    assert d.counter("repro_router_cache_total") == 5 + 10 + 1  # a new series counts from zero
    assert d.counter("repro_router_cache_total", {"result": "miss"}) == 10


def test_counter_reset_reads_as_the_new_value():
    assert diff().counter("repro_scan_scripts_total") == 3


def test_gauges_are_not_differenced():
    assert diff().counter("repro_serve_queue_depth") == 0


def test_histogram_difference_mean_and_quantile():
    d = diff()
    assert d.histogram_count("repro_q_seconds") == 10
    assert d.histogram_mean("repro_q_seconds") == pytest.approx(0.04)
    assert d.histogram_buckets("repro_q_seconds") == [(0.01, 0.0), (0.05, 10.0), (math.inf, 10.0)]
    assert d.histogram_quantile("repro_q_seconds", 0.5) == pytest.approx(0.03)
    assert math.isnan(d.histogram_mean("repro_missing_seconds"))


def test_bucket_quantile_edges():
    assert math.isnan(bucket_quantile([], 0.5))
    assert math.isnan(bucket_quantile([(1.0, 0.0), (math.inf, 0.0)], 0.5))
    assert bucket_quantile([(1.0, 0.0), (math.inf, 5.0)], 0.9) == 1.0  # beyond the last bound
    assert bucket_quantile([(1.0, 4.0), (2.0, 8.0), (math.inf, 8.0)], 0.75) == pytest.approx(1.5)
