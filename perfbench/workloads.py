"""Set-up, measurement and report for each named workload."""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import batch, inputs, serve
from .inputs import Rung
from .calibrate import SpeedProbe
from .model import train_model
from .openloop import SLO_P95_MS, busy_window
from .stats import highest_percentile, median, percentile

WORKLOADS = ("corpus-obf", "corpus-large", "serve-mixed")

#: Set-up (train, generate inputs, boot the fleet) runs this many times
#: per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: ``corpus-obf`` scripts per class, a fifth of them in each variant.
OBF_PER_CLASS = 40

#: ``serve-mixed`` offered-rate ladder: (requests per second, share of
#: ``--seconds``), run in this order.  The first rung is the main rate,
#: where the latency metrics are read: 100 requests at ``--seconds 10``,
#: below what the fleet answers on two connections (about 20 req/s with
#: this mix).  The second is near that capacity.  The last offers 150
#: requests far faster, so its connections never idle and its goodput is
#: the fleet's throughput.
LADDER = ((10.0, 1.0), (20.0, 0.3), (60.0, 0.25))
MAIN_RUNG, TOP_RUNG = 0, len(LADDER) - 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "scripts_per_s": "scripts/s",
    "kb_per_s": "KiB/s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    #: Human-readable lines printed before the JSON result.
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]} for name, value in self.metrics.items()
            },
        }


def ladder(seconds: float) -> list[Rung]:
    return [Rung(rate, share * seconds) for rate, share in LADDER]


def generate(workload: str, seed: int, seconds: float):
    if workload == "corpus-obf":
        return inputs.corpus_obf(seed, OBF_PER_CLASS)
    if workload == "corpus-large":
        return inputs.corpus_large(seed)
    return inputs.serve_mixed(seed, ladder(seconds))


def _provenance(workload: str, seed: int, generated) -> tuple[str, list[str]]:
    if workload == "serve-mixed":
        scripts, requests = generated.scripts, generated.requests
    else:
        scripts, requests = generated, ()
    digest = inputs.fingerprint(scripts, requests)
    histogram = inputs.size_histogram([s.source for s in scripts])
    notes = [
        f"workload {workload} seed {seed}: {len(scripts)} scripts, {len(requests)} scheduled requests",
        f"inputs sha256 {digest}",
        "sizes " + " ".join(f"{k}:{v}" for k, v in histogram.items() if v),
    ]
    return digest, notes


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work = root / ".perfbench-work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "serve-mixed":
            return _run_serve(seed, seconds, trace, root, work)
        return _run_batch(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


@dataclass
class Setup:
    seconds: float
    #: Every repetition trained the same model and generated the same inputs.
    deterministic: bool
    generated: object
    #: The last repetition's fleet, still running (``serve-mixed`` only).
    fleet: serve.Cluster | None
    notes: list[str]


def _setup(workload: str, seed: int, seconds: float, model_dir: Path, boot=None) -> Setup:
    """Train, generate and (with ``boot``) start the fleet, :data:`SETUP_REPEATS` times.

    Each time is taken at reference speed, against the mean reading of a
    speed probe on every core (set-up runs on any of them).
    """
    spans, digests, fingerprints = [], set(), set()
    fleet = None
    try:
        with contextlib.ExitStack() as stack:
            probes = _probes_on_every_core(stack)
            for _ in range(SETUP_REPEATS):
                if fleet is not None:
                    fleet.stop()
                    fleet = None
                start = time.monotonic()
                detector = train_model(str(model_dir))
                generated = generate(workload, seed, seconds)
                if boot is not None:
                    fleet = boot()
                    fleet.wait_healthy()
                spans.append((start, time.monotonic()))
                digest, notes = _provenance(workload, seed, generated)
                digests.add(digest)
                fingerprints.add(detector.fingerprint())
    except BaseException:
        if fleet is not None:
            fleet.stop()
        raise
    deterministic = len(digests) == 1 and len(fingerprints) == 1
    slowdowns = [_mean_slowdown(probes, start, end) for start, end in spans]
    notes.append(
        "setup_s runs as measured " + " ".join(f"{end - start:.3f}" for start, end in spans)
        + ", machine slowdown " + " ".join(f"{x:.3f}" for x in slowdowns)
        + ("" if deterministic else "  NOT DETERMINISTIC: inputs or model differ between set-ups")
    )
    timings = [(end - start) / x for (start, end), x in zip(spans, slowdowns)]
    return Setup(median(timings), deterministic, generated, fleet, notes)


def _run_batch(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    model_dir = work / "model"
    setup = _setup(workload, seed, seconds, model_dir)
    scripts, notes = setup.generated, setup.notes
    out = _measure_in_child(work, (workload, str(model_dir), scripts, seconds, trace))
    mismatches = out["mismatches"]
    notes.append(
        f"golden pass {out['golden_s']:.3f}s over {out['n_scripts']} scripts; "
        f"{out['attempted']} verdicts checked, {mismatches} mismatches"
    )
    if trace:
        return _traced_result(out, setup.deterministic, notes, serve_metrics=None)
    notes.append(f"{out['calls']} scan_batch calls in {out['measured_s']:.3f}s")
    notes.append(
        f"as measured: scripts_per_s {out['raw_scripts_per_s']:.4f} "
        f"kb_per_s {out['raw_kb_per_s']:.4f} latency_p50_ms {out['raw_latency_p50_ms']:.2f}; "
        f"median machine slowdown {out['slowdown']:.4f} (the timings below are at reference speed)"
    )
    if workload == "corpus-obf":
        labels = [s.label for s in scripts]
        notes.append(f"accuracy {_accuracy(out, labels):.4f} (verdicts equal to labels)")
    metrics = {
        "setup_s": setup.seconds,
        "scripts_per_s": out["scripts_per_s"],
        "kb_per_s": out["kb_per_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "latency_p50_ms": out["latency_p50_ms"],
    }
    return Result(
        correct=setup.deterministic and mismatches == 0,
        attempted=out["attempted"],
        failed=mismatches,
        metrics=metrics,
        units=END_TO_END_UNITS,
        notes=notes + [f"error_rate {mismatches / out['attempted']:.6f}"],
    )


def _measure_in_child(work: Path, args: tuple) -> dict:
    """:func:`batch.measure` in a fresh interpreter, waited for on every path out.

    Arguments and result travel as pickles in the work directory.
    """
    request, result = work / "measure-args.pickle", work / "measure-result.pickle"
    request.write_bytes(pickle.dumps(args))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
    argv = [sys.executable, "-m", "perfbench.batch", str(request), str(result)]
    with subprocess.Popen(argv, env=env) as child:
        try:
            code = child.wait()
        except BaseException:
            child.terminate()  # the child stops its speed probe, then exits
            child.wait()
            raise
    if code != 0:
        raise RuntimeError(f"the scanning process exited with code {code}")
    return pickle.loads(result.read_bytes())


def _accuracy(out: dict, labels: list) -> float:
    predicted = out["golden_labels"]
    return sum(p == y for p, y in zip(predicted, labels)) / len(labels)


def _traced_result(out: dict, deterministic: bool, notes: list[str], serve_metrics) -> Result:
    problems = out["span_problems"]
    per_layer = dict(out["per_layer"])
    per_layer.update(serve_metrics or dict.fromkeys(PER_LAYER_SERVE, 0.0))
    notes.append(
        f"{out['n_spans']} spans; self times sum to traced wall within {out['self_sum_error']:.2e}; "
        f"{len(problems)} span problems"
    )
    notes += [f"  span problem: {p}" for p in problems[:10]]
    ok = deterministic and out["mismatches"] == 0 and not problems and out["self_sum_error"] < 1e-6
    return Result(
        correct=ok,
        attempted=out["attempted"],
        failed=out["mismatches"] + out.get("failed", 0),
        metrics=per_layer,
        units=per_layer_units(),
        notes=notes,
    )


PER_LAYER_SERVE = (
    "serve.queue_wait_p50_ms",
    "serve.batch_size_mean",
    *(f"serve.stage_ms.{stage}" for stage in serve.SERVE_STAGES),
    "serve.rejected",
    "serve.router.failovers",
    "serve.router.retries",
    "serve.router.cache_hit_ratio",
    "serve.router.hop_ms",
    "loadgen.lag_p95_ms",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in batch.spans.LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.share"] = "ratio"
    units.update(
        {
            "dataflow.dep_edges": "count",
            "paths.leaves": "count",
            "paths.emitted": "count",
            "paths.pair_yield": "ratio",
            "embedding.kept_ratio": "ratio",
            "deobfuscate.changed_ratio": "ratio",
            "analysis.decisive_ratio": "ratio",
            "bench.trace_overhead": "ratio",
        }
    )
    for name in PER_LAYER_SERVE:
        if name.endswith("_ms") or ".stage_ms." in name:
            units[name] = "ms"
        elif name.endswith("ratio"):
            units[name] = "ratio"
        elif name == "serve.batch_size_mean":
            units[name] = "scripts"
        else:
            units[name] = "count"
    return units


def _run_serve(seed: int, seconds: float, trace: bool, root: Path, work: Path) -> Result:
    from repro.core import load_detector

    model_dir = work / "model"

    def boot() -> serve.Cluster:
        return serve.Cluster(root / "src", model_dir, work / "cluster.log")

    fleet = None
    try:
        setup = _setup("serve-mixed", seed, seconds, model_dir, boot=boot)
        plan, fleet, notes = setup.generated, setup.fleet, setup.notes
        workers = min(2, len(os.sched_getaffinity(0)))
        serve.warm_up(fleet, plan)
        before = serve.fleet_scrape(fleet) if trace else None
        with contextlib.ExitStack() as stack:
            probes = _probes_on_every_core(stack)
            rungs = serve.drive(fleet, plan, workers)
        after = serve.fleet_scrape(fleet) if trace else None
        sent_outcomes = [o for _report, outcomes in rungs for o in outcomes]
        hop_ms = serve.router_hop_ms(fleet, sent_outcomes) if trace else None
        peak_rss_mb = serve.shard_peak_rss_mb(fleet)
    finally:
        if fleet is not None:
            fleet.stop()

    # Golden: one sequential in-process scan of every distinct script sent.
    detector = load_detector(str(model_dir))
    distinct = sorted({r.script for r in plan.requests})
    scripts = [plan.scripts[i] for i in distinct]
    started = time.perf_counter()
    golden_report = detector.scan_batch([s.source for s in scripts], names=[s.name for s in scripts])
    golden_s = time.perf_counter() - started
    golden = {i: batch.verdict_key(r) for i, r in zip(distinct, golden_report.results)}
    requests_by_rung = [plan.rung_requests(k) for k in range(len(plan.rungs))]
    sent = failed = mismatches = 0
    for (report, outcomes), requests in zip(rungs, requests_by_rung):
        sent += report.sent
        failed += report.failed
        for outcome in outcomes:
            if outcome.ok:
                mismatches += batch.verdict_key(outcome.result) != golden[requests[outcome.index].script]
    notes.append(
        f"golden pass {golden_s:.3f}s over {len(scripts)} distinct scripts; "
        f"{sent - failed} served verdicts checked, {mismatches} mismatches, {failed} failed requests"
    )
    notes += _rung_notes(plan, rungs, requests_by_rung, workers)
    main_report = rungs[MAIN_RUNG][0]
    if trace:
        traced = batch.traced_passes(
            detector, [scripts], [0], [golden[i] for i in distinct], {}, seconds=0.0
        )
        traced["attempted"] += sent
        traced["mismatches"] += mismatches
        traced["failed"] = failed
        serve_metrics = serve.serve_layer_metrics(
            serve.ScrapeDiff(before, after), main_report.lag_p95_ms, hop_ms
        )
        return _traced_result(traced, setup.deterministic, notes, serve_metrics)

    # Throughput: what the top rung answered while both senders were busy.
    top_requests = requests_by_rung[TOP_RUNG]
    top_outcomes = rungs[TOP_RUNG][1]
    top_start = top_outcomes[0].due - top_requests[0].due_s
    answered, busy_s = busy_window(top_outcomes, top_start)
    kib = sum(plan.scripts[top_requests[o.index].script].size for o in answered) / 1024.0
    main_outcomes = rungs[MAIN_RUNG][1]
    # Both timings at reference speed, against the probes on every core.
    top_slowdown = _mean_slowdown(probes, top_start, top_start + busy_s)
    main_slowdown = _mean_slowdown(
        probes, min(o.sent for o in main_outcomes), max(o.done for o in main_outcomes)
    )
    notes.append(
        f"top rung: {len(answered)} of {len(top_outcomes)} requests answered "
        f"in the {busy_s:.3f}s both senders were busy"
    )
    notes.append(
        f"as measured: scripts_per_s {len(answered) / busy_s:.4f} kb_per_s {kib / busy_s:.4f} "
        f"(machine slowdown {top_slowdown:.4f}), latency_p50_ms {main_report.latency_p50_ms:.2f} "
        f"(machine slowdown {main_slowdown:.4f}); the timings below are at reference speed"
    )
    metrics = {
        "setup_s": setup.seconds,
        "scripts_per_s": len(answered) / busy_s * top_slowdown,
        "kb_per_s": kib / busy_s * top_slowdown,
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_ms": main_report.latency_p50_ms / main_slowdown,
    }
    errors = failed + mismatches
    notes.append(f"error_rate {errors / sent:.6f}")
    return Result(
        correct=setup.deterministic and mismatches == 0,
        attempted=sent,
        failed=errors,
        metrics=metrics,
        units=END_TO_END_UNITS,
        notes=notes,
    )


def _probes_on_every_core(stack: contextlib.ExitStack) -> list[SpeedProbe]:
    return [stack.enter_context(SpeedProbe(cpu)) for cpu in sorted(os.sched_getaffinity(0))]


def _mean_slowdown(probes: list[SpeedProbe], start: float, end: float) -> float:
    return sum(p.slowdown(start, end) for p in probes) / len(probes)


def _rung_notes(plan, rungs, requests_by_rung, workers: int) -> list[str]:
    notes = [
        f"open loop, {workers} sender threads; latency from due time; "
        "rate  sent  ok  fail  p50_ms  p95_ms  lag_p95_ms  goodput  backlog  slo"
    ]
    best = None
    for rung, (report, outcomes), requests in zip(plan.rungs, rungs, requests_by_rung):
        labeled = [
            (o.result.label, plan.scripts[requests[o.index].script].label)
            for o in outcomes
            if o.ok and plan.scripts[requests[o.index].script].label is not None
        ]
        accuracy = sum(a == b for a, b in labeled) / len(labeled) if labeled else float("nan")
        notes.append(
            f"  {rung.rate_rps:5.1f} {report.sent:5d} {report.succeeded:4d} {report.failed:4d} "
            f"{report.latency_p50_ms:8.1f} {report.latency_p95_ms:8.1f} {report.lag_p95_ms:10.1f} "
            f"{report.goodput_rps:8.2f} {'growing' if report.backlog_growing else 'steady':>8s} "
            f"{'met' if report.meets_slo else 'MISSED'}  accuracy {accuracy:.4f}"
        )
        if report.meets_slo:
            best = report
    report, outcomes = rungs[MAIN_RUNG]
    quoted = highest_percentile(report.sent)
    if quoted is None:
        tail = "none (too few requests)"
    else:
        latencies = [o.latency_ms if o.ok else float("inf") for o in outcomes]
        tail = f"p{quoted:g} = {percentile(latencies, quoted):.1f} ms"
    notes.append(
        f"main rate {plan.rungs[MAIN_RUNG].rate_rps:g} req/s: {report.sent} requests; "
        f"highest percentile with >=10 samples beyond it: {tail}"
    )
    notes.append(
        "max_rate_rps "
        + (f"{best.rate_rps:g} (goodput {best.goodput_rps:.2f})" if best else "none of the ladder")
        + f" (p95 <= {SLO_P95_MS:g} ms, no failures, no growing backlog)"
    )
    return notes
