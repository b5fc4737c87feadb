"""Chaos tests: real workers, real kills, real deadlines.

The acceptance scenario of the isolation layer: a batch containing a
hanging script, an allocation bomb, and two crashers completes; every
poison script is quarantined under its correct cause; every other verdict
is byte-identical to a fault-free scan; and re-scanning skips the poison
entirely via the journal.
"""

import multiprocessing

import numpy as np
import pytest

from repro.faults import (
    CAUSE_CRASHED,
    CAUSE_OOM,
    CAUSE_TIMEOUT,
    IsolatedPool,
    QuarantineJournal,
    ScanLimits,
    Task,
)
from repro.obs import MetricsRegistry
from repro.pipeline import BatchScanner

HANG = "/* @repro-fault:hang */ var a = 1;"
ALLOCBOMB = "/* @repro-fault:allocbomb */ var b = 2;"
EXIT137 = "/* @repro-fault:exit137 */ var c = 3;"
RAISE = "/* @repro-fault:raise */ var d = 4;"

LIMITS = ScanLimits(timeout_s=3.0, max_rss_mb=256)


@pytest.fixture(scope="module")
def clean_report(detector, split):
    return BatchScanner(detector, n_workers=1).scan(split.test.sources[:4])


class TestIsolatedPoolDirect:
    """Pool-level behavior, analyze-only tasks (no model needed).

    Markers here carry the ``@analysis`` stage scope because analyze-kind
    tasks only fire analysis-stage faults.
    """

    def test_deadline_kill_is_classified_timeout(self, inject):
        source = "/* @repro-fault:hang@analysis */ var a = 1;"
        with IsolatedPool(None, limits=ScanLimits(timeout_s=1.0), n_workers=1) as pool:
            [outcome] = pool.run([Task(kind="analyze", index=0, source=source)])
        assert not outcome.ok
        assert outcome.cause == CAUSE_TIMEOUT
        assert "deadline" in outcome.detail

    def test_sigkill_style_death_is_classified_crashed(self, inject):
        source = "/* @repro-fault:exit137@analysis */ var c = 3;"
        with IsolatedPool(None, limits=ScanLimits(timeout_s=30.0), n_workers=1) as pool:
            [outcome] = pool.run([Task(kind="analyze", index=0, source=source)])
        assert not outcome.ok
        assert outcome.cause == CAUSE_CRASHED
        assert "137" in outcome.detail

    def test_pool_survives_mixed_batch_and_keeps_order(self, inject):
        clean = "var ok = eval('1');"
        tasks = [
            Task(kind="analyze", index=0, source=clean),
            Task(kind="analyze", index=1, source="/* @repro-fault:exit137@analysis */ var c;"),
            Task(kind="analyze", index=2, source=clean),
            Task(kind="analyze", index=3, source="/* @repro-fault:raise@analysis */ var d;"),
        ]
        with IsolatedPool(None, limits=ScanLimits(timeout_s=30.0), n_workers=2) as pool:
            outcomes = pool.run(tasks)
            assert [o.index for o in outcomes] == [0, 1, 2, 3]
            assert outcomes[0].ok and outcomes[2].ok
            assert not outcomes[1].ok and not outcomes[3].ok
            assert pool.workers_lost >= 1
            # The pool is still serviceable after burying workers.
            [again] = pool.run([Task(kind="analyze", index=9, source=clean)])
            assert again.ok

    def test_markers_are_inert_without_the_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        source = "/* @repro-fault:raise@analysis */ var d = 4;"
        with IsolatedPool(None, limits=ScanLimits(timeout_s=5.0), n_workers=1) as pool:
            [outcome] = pool.run([Task(kind="analyze", index=0, source=source)])
        assert outcome.ok


class TestScannerChaos:
    """The ISSUE acceptance scenario, end to end through BatchScanner."""

    def test_hostile_batch_completes_with_correct_causes(
        self, detector, split, clean_report, inject
    ):
        sources = list(split.test.sources[:4]) + [HANG, ALLOCBOMB, EXIT137, RAISE]
        journal = QuarantineJournal()
        metrics = MetricsRegistry()
        with BatchScanner(
            detector, n_workers=2, limits=LIMITS, quarantine=journal, metrics=metrics
        ) as scanner:
            report = scanner.scan(sources)

        statuses = [r.status for r in report.results]
        assert statuses[:4] == ["ok"] * 4
        assert statuses[4:] == ["timeout", "oom", "crashed", "crashed"]
        assert report.fault_count == 4
        assert len(journal) == 4
        assert {e.cause for e in journal.entries()} == {CAUSE_TIMEOUT, CAUSE_OOM, CAUSE_CRASHED}

        # Every non-faulted verdict is byte-identical to a fault-free scan.
        for clean, hostile in zip(clean_report.results, report.results[:4]):
            assert clean.label == hostile.label
            assert clean.probability == hostile.probability
            assert clean.path_count == hostile.path_count
        assert np.array_equal(
            clean_report.probability_matrix, report.probability_matrix[:4]
        )

        # Faulted scripts got a degraded triage-only verdict, not silence.
        for result in report.results[4:]:
            assert result.degraded
            assert result.analysis is not None
            assert result.fault["cause"] == result.status
            assert 0.0 <= result.probability <= 1.0

        text = metrics.render()
        assert 'repro_scan_failures_total{cause="timeout"} 1' in text
        assert 'repro_scan_failures_total{cause="oom"} 1' in text
        assert 'repro_scan_failures_total{cause="crashed"} 2' in text

    def test_rescan_skips_known_poison(self, detector, inject):
        journal = QuarantineJournal()
        with BatchScanner(detector, n_workers=1, limits=LIMITS, quarantine=journal) as scanner:
            first = scanner.scan([EXIT137])
            second = scanner.scan([EXIT137])
        assert first.results[0].status == "crashed"
        assert "known" not in (first.results[0].fault or {})

        assert second.results[0].status == "crashed"
        assert second.results[0].fault["known"] is True
        assert len(journal) == 1

    def test_oom_script_reports_rusage(self, detector, inject):
        journal = QuarantineJournal()
        with BatchScanner(detector, n_workers=1, limits=LIMITS, quarantine=journal) as scanner:
            report = scanner.scan([ALLOCBOMB])
        assert report.results[0].status == "oom"
        entry = journal.entries()[0]
        assert entry.rusage is not None and entry.rusage["max_rss_kb"] > 0

    def test_limits_without_faults_match_plain_scan(self, detector, split, clean_report):
        # Isolation on, chaos seam dormant: verdicts are still byte-identical.
        with BatchScanner(detector, n_workers=2, limits=LIMITS) as scanner:
            report = scanner.scan(list(split.test.sources[:4]))
        assert [r.status for r in report.results] == ["ok"] * 4
        assert report.fault_count == 0
        for clean, isolated in zip(clean_report.results, report.results):
            assert clean.label == isolated.label
            assert clean.probability == isolated.probability

    def test_result_json_round_trip_keeps_fault_fields(self, detector, inject):
        from repro.pipeline import ScanReport

        with BatchScanner(detector, n_workers=1, limits=LIMITS) as scanner:
            report = scanner.scan([HANG])
        reloaded = ScanReport.from_json(report.to_json())
        result = reloaded.results[0]
        assert result.status == "timeout"
        assert result.degraded == report.results[0].degraded
        assert result.fault["cause"] == "timeout"
        assert reloaded.fault_count == 1


class TestUnlimitedPoolChaos:
    """Without limits the worker pool still attributes a dead worker."""

    def test_worker_death_returns_crashed_instead_of_hanging(
        self, detector, split, clean_report, inject
    ):
        with BatchScanner(detector, n_workers=2) as scanner:
            report = scanner.scan([EXIT137] + list(split.test.sources[:4]))
        assert report.results[0].status == "crashed"
        assert [r.status for r in report.results[1:]] == ["ok"] * 4
        for clean, survivor in zip(clean_report.results, report.results[1:]):
            assert clean.verdict == survivor.verdict
            assert clean.label == survivor.label
            assert clean.probability == survivor.probability
        assert np.array_equal(clean_report.probability_matrix, report.probability_matrix[1:])

    def test_scan_batch_leaves_no_workers_behind(self, detector, split):
        sources = list(split.test.sources[:4])
        detector.scan_batch(sources, n_workers=2)
        assert multiprocessing.active_children() == []
        detector.scan_batch(sources, limits=LIMITS)
        assert multiprocessing.active_children() == []
