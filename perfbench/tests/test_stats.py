import math

import pytest

from perfbench.stats import highest_percentile, percentile


@pytest.mark.parametrize(
    ("n", "expected"),
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)
    assert math.isnan(percentile([], 50))
    with pytest.raises(ValueError):
        percentile(values, 101)
