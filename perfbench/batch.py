"""The in-process workloads: ``corpus-obf`` and ``corpus-large``.

One caller scans the inputs with ``JSRevealer.scan_batch`` in a closed
loop.  The scanning happens in a fresh process that loads the saved
model, so its peak resident memory covers scanning only (training ran in
the parent).  That process first makes the golden pass, one sequential
``scan_batch`` over every input with the same options, which also warms
it up; every measured verdict is compared with the golden one.  The
measured calls are timed at reference speed (see :mod:`perfbench.calibrate`).
``peak_rss_mb`` is the process's peak over all of it."""

from __future__ import annotations

import json
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass

from . import spans
from .calibrate import SpeedProbe
from .inputs import Script
from .memory import peak_rss_mb
from .stats import median


@dataclass(frozen=True)
class BatchSpec:
    #: scan_batch keyword options.
    options: tuple[tuple[str, bool], ...]
    #: Scripts per scan_batch call in the measured loop.
    batch_size: int


SPECS = {
    # One script per call: a call's latency is one script's, and the
    # median over the 80 scripts moves little with which scripts a seed
    # draws.  The golden pass (all inputs in one call) groups them otherwise.
    "corpus-obf": BatchSpec(options=(("deobfuscate", True), ("triage", True)), batch_size=1),
    # One call per script: a call's latency is one 4, 8 or 16 KiB script.
    # The median over the six scripts lies between the two 8 KiB ones.
    "corpus-large": BatchSpec(options=(), batch_size=1),
}


def verdict_key(result) -> tuple:
    """What must match the golden verdict byte for byte.

    Takes a ``ScanResult`` or a served ``ScanVerdict``; both carry these
    three fields, and a probability compares by its JSON text.
    """
    return (result.verdict, int(result.label), json.dumps(result.probability))


def _scan(detector, scripts: list[Script], options: dict):
    return detector.scan_batch(
        [s.source for s in scripts], names=[s.name for s in scripts], **options
    )


def measure(workload: str, model_dir: str, scripts: list[Script], seconds: float, trace: bool) -> dict:
    """The measured phase; runs in its own process and returns plain data."""
    from repro.core import load_detector

    spec = SPECS[workload]
    options = dict(spec.options)
    detector = load_detector(model_dir)
    batches = [scripts[i : i + spec.batch_size] for i in range(0, len(scripts), spec.batch_size)]
    offsets = [i * spec.batch_size for i in range(len(batches))]

    if trace:
        golden, out = _golden(detector, scripts, options)
        out["peak_rss_mb"] = peak_rss_mb()
        out.update(traced_passes(detector, batches, offsets, golden, options, seconds))
        return out

    # The scanning process and its speed probe share one core.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    golden, out = _golden(detector, scripts, options)  # also warms the program up
    with SpeedProbe(cpu) as probe:
        calls = _closed_loop(detector, batches, options, seconds)
    for call in calls:
        call.slowdown = probe.slowdown(call.start, call.end)
    out["peak_rss_mb"] = peak_rss_mb()
    out.update(_timings(batches, calls))
    out["attempted"] = sum(len(call.verdicts) for call in calls)
    out["mismatches"] = sum(
        key != golden[offsets[call.batch] + j] for call in calls for j, key in enumerate(call.verdicts)
    )
    return out


def _golden(detector, scripts: list[Script], options: dict) -> tuple[list[tuple], dict]:
    """Verdict keys of one ``scan_batch`` over every input, and its summary."""
    started = time.perf_counter()
    report = _scan(detector, scripts, options)
    out = {
        "golden_s": time.perf_counter() - started,
        "golden_labels": [r.label for r in report.results],
        "n_scripts": len(scripts),
    }
    return [verdict_key(r) for r in report.results], out


@dataclass
class Call:
    batch: int
    #: ``time.monotonic()`` when the call started and ended.
    start: float
    end: float
    verdicts: list[tuple]
    #: The machine's mean slowdown during the call (set once it is known).
    slowdown: float = 1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def normalized_s(self) -> float:
        """The call's time at reference speed."""
        return self.seconds / self.slowdown


def _closed_loop(detector, batches, options, seconds) -> list[Call]:
    """Full passes over the batches, in order, as many as come closest to ``seconds``.

    Every batch has as many calls, at least one.
    """
    calls: list[Call] = []
    started = time.monotonic()
    pass_s = 0.0
    while not calls or time.monotonic() - started + pass_s / 2 < seconds:
        pass_started = time.monotonic()
        for b, batch in enumerate(batches):
            start = time.monotonic()
            report = _scan(detector, batch, options)
            calls.append(Call(b, start, time.monotonic(), [verdict_key(r) for r in report.results]))
        pass_s = time.monotonic() - pass_started
    return calls


def _timings(batches, calls: list[Call]) -> dict:
    """Throughput and latency at reference speed, and as measured.

    Each batch's time is the median over its calls; throughput is the
    inputs over the sum of these (one pass), and the latency is their
    median over the batches.
    """
    n_scripts = sum(len(batch) for batch in batches)
    size_kb = sum(s.size for batch in batches for s in batch) / 1024.0
    out = {
        "calls": len(calls),
        "measured_s": sum(call.seconds for call in calls),
        "slowdown": median([call.slowdown for call in calls]),
    }
    for prefix, time_of in (("", lambda c: c.normalized_s), ("raw_", lambda c: c.seconds)):
        per_batch = [median([time_of(c) for c in calls if c.batch == b]) for b in range(len(batches))]
        pass_s = sum(per_batch)
        out[prefix + "scripts_per_s"] = n_scripts / pass_s
        out[prefix + "kb_per_s"] = size_kb / pass_s
        out[prefix + "latency_p50_ms"] = 1000.0 * median(per_batch)
    return out


def _expected_layers(report, options) -> list[str]:
    """``layer@script`` for every per-script layer this report says ran."""
    wanted = []
    for i, result in enumerate(report.results):
        if options.get("deobfuscate"):
            wanted.append(f"deobfuscate@{i}")
        if options.get("triage"):
            wanted.append(f"analysis@{i}")
        if result.triaged:
            continue
        wanted += [f"jsparser@{i}", f"paths.featurize@{i}"]
        if result.status == "ok":
            wanted += [f"dataflow@{i}", f"paths.enum@{i}"]
        if result.path_count:
            wanted.append(f"embedding@{i}")
    return wanted


def traced_passes(detector, batches, offsets, golden, options, seconds) -> dict:
    """Untraced and traced passes in turn; per-layer numbers from the traced.

    Traced verdicts must equal the golden ones, and every script must
    carry exactly one span of each layer that ran on it.
    """
    recorder = spans.SpanRecorder()
    expected: list[list[str]] = []
    untraced_s = 0.0
    mismatches = attempted = passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        for b, batch in enumerate(batches):
            t0 = time.perf_counter()
            report = _scan(detector, batch, options)
            untraced_s += time.perf_counter() - t0
            attempted += len(batch)
            mismatches += sum(
                verdict_key(r) != golden[offsets[b] + j] for j, r in enumerate(report.results)
            )
        with spans.LayerTracer(detector, recorder) as tracer:
            for b, batch in enumerate(batches):
                with tracer.batch([s.source for s in batch]):
                    report = _scan(detector, batch, options)
                expected.append(_expected_layers(report, options))
                attempted += len(batch)
                mismatches += sum(
                    verdict_key(r) != golden[offsets[b] + j] for j, r in enumerate(report.results)
                )
        passes += 1
    totals = spans.layer_totals(recorder.spans)
    problems = spans.check_script_spans(recorder.spans, expected)
    return {
        "attempted": attempted,
        "mismatches": mismatches,
        "span_problems": problems,
        "per_layer": layer_metrics(totals, recorder.counts, attempted // 2, totals.wall_s / untraced_s),
        "self_sum_error": abs(sum(totals.self_s.values()) - totals.wall_s) / totals.wall_s,
        "n_spans": len(recorder.spans),
        "measured_s": time.perf_counter() - started,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: spans.LayerTotals, counts, n_scripts: int, overhead: float) -> dict:
    """Per-layer self time per script and share of the traced wall time."""
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms"] = 1000.0 * totals.self_s[layer] / n_scripts
        metrics[f"{layer}.share"] = _ratio(totals.self_s[layer], totals.wall_s)
    enum_calls = counts["paths.enum.calls"]
    metrics.update(
        {
            "dataflow.dep_edges": _ratio(counts["dataflow.dep_edges"], counts["dataflow.calls"]),
            "paths.leaves": _ratio(counts["paths.leaves"], enum_calls),
            "paths.emitted": _ratio(counts["paths.emitted"], enum_calls),
            "paths.pair_yield": _ratio(counts["paths.emitted"], counts["paths.pairs"]),
            "embedding.kept_ratio": _ratio(counts["embedding.kept"], counts["embedding.rows"]),
            "deobfuscate.changed_ratio": _ratio(
                counts["deobfuscate.changed"], counts["deobfuscate.scripts"]
            ),
            "analysis.decisive_ratio": _ratio(
                counts["analysis.decisive"], counts["analysis.scripts"]
            ),
            "bench.trace_overhead": overhead,
        }
    )
    return metrics


if __name__ == "__main__":
    # python -m perfbench.batch ARGS_PICKLE RESULT_PICKLE: measure(*args) into RESULT_PICKLE.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    with open(sys.argv[1], "rb") as args_file:
        measured = measure(*pickle.load(args_file))
    with open(sys.argv[2], "wb") as result_file:
        pickle.dump(measured, result_file)
