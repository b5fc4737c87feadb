"""Difference reader for ``GET /v1/metrics`` scrapes.

``serve-mixed`` scrapes the router's federated exposition
(``?aggregate=sum``) before and after its measured phase and reads its
per-layer numbers from the difference.  Counters and histogram series
only grow, so a value that went *down* means the process behind it
restarted and counted again from zero: its difference is then the new
value, as Prometheus' ``increase`` treats a reset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.metrics import parse_exposition

#: A label filter: the label values a series must have (``None``: any).
Where = dict[str, str] | None

_Key = tuple[str, tuple[tuple[str, str], ...]]


@dataclass
class Scrape:
    """Monotone samples of one exposition, keyed by (sample name, labels)."""

    values: dict[_Key, float]

    @classmethod
    def parse(cls, text: str) -> "Scrape":
        values: dict[_Key, float] = {}
        for family in parse_exposition(text).values():
            if family.kind not in ("counter", "histogram"):
                continue
            for sample in family.samples:
                values[(sample.name, tuple(sorted(sample.labels.items())))] = sample.value
        return cls(values)


def _matches(labels: dict[str, str], where: Where) -> bool:
    return where is None or all(labels.get(k) == v for k, v in where.items())


class ScrapeDiff:
    """``after - before`` for every monotone series, resets handled."""

    def __init__(self, before: Scrape, after: Scrape):
        self.delta: dict[_Key, float] = {}
        for key, value in after.values.items():
            previous = before.values.get(key, 0.0)
            self.delta[key] = value - previous if value >= previous else value

    def _series(self, sample_name: str, where: Where):
        for (name, labels), delta in self.delta.items():
            if name == sample_name:
                label_dict = dict(labels)
                if _matches({k: v for k, v in label_dict.items() if k != "le"}, where):
                    yield label_dict, delta

    def counter(self, name: str, where: Where = None) -> float:
        """Summed increase of counter ``name`` over matching label sets."""
        return sum(delta for _labels, delta in self._series(name, where))

    def histogram_count(self, name: str, where: Where = None) -> float:
        return sum(delta for _labels, delta in self._series(f"{name}_count", where))

    def histogram_sum(self, name: str, where: Where = None) -> float:
        return sum(delta for _labels, delta in self._series(f"{name}_sum", where))

    def histogram_mean(self, name: str, where: Where = None) -> float:
        count = self.histogram_count(name, where)
        return self.histogram_sum(name, where) / count if count else math.nan

    def histogram_buckets(self, name: str, where: Where = None) -> list[tuple[float, float]]:
        """Cumulative ``(le, increase)`` buckets, summed over label sets."""
        merged: dict[float, float] = {}
        for labels, delta in self._series(f"{name}_bucket", where):
            bound = float(labels["le"])
            merged[bound] = merged.get(bound, 0.0) + delta
        return sorted(merged.items())

    def histogram_quantile(self, name: str, q: float, where: Where = None) -> float:
        return bucket_quantile(self.histogram_buckets(name, where), q)


def bucket_quantile(cumulative: list[tuple[float, float]], q: float) -> float:
    """Quantile ``q`` (0-1) by linear interpolation inside its bucket.

    Observations past the last finite bound answer with that bound.  NaN
    when there are no observations.  The benchmark keeps its own copy of
    this arithmetic so that its numbers cannot move with the program's.
    """
    if not cumulative or cumulative[-1][1] <= 0:
        return math.nan
    target = q * cumulative[-1][1]
    low_bound, low_count = 0.0, 0.0
    for bound, count in cumulative:
        if count >= target and count > low_count:
            if math.isinf(bound):
                return low_bound
            return low_bound + (bound - low_bound) * (target - low_count) / (count - low_count)
        if not math.isinf(bound):
            low_bound = bound
        low_count = count
    return low_bound
