"""The ``serve-mixed`` workload: router plus two shards, driven open-loop.

The fleet runs as a ``repro cluster`` subprocess, so the load generator
never shares an interpreter lock with the system under test.  Rungs of
the offered-rate ladder run one after another, each on its own seeded
schedule, each request timed from when it was due.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.client import ScanClient

from .inputs import ServePlan
from .memory import peak_rss_mb
from .openloop import Outcome, RungReport, run_open_loop, summarize
from .scrape import Scrape, ScrapeDiff
from .stats import median

SHARDS = 2
REPLICAS = 2
VERDICT_CACHE_SIZE = 1024
#: The router's default federation scrape interval; a fleet scrape is
#: current once this much time has passed since the load stopped.
ROUTER_SCRAPE_INTERVAL_S = 2.0
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Cluster:
    """One ``repro cluster`` subprocess, from boot to a reaped exit."""

    def __init__(self, src_dir: Path, model_dir: Path, log_path: Path):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        argv = [
            sys.executable, "-m", "repro.cli", "cluster",
            "--model", str(model_dir),
            "--port", str(self.port),
            "--shards", str(SHARDS),
            "--replicas", str(REPLICAS),
            "--verdict-cache-size", str(VERDICT_CACHE_SIZE),
            "--log-level", "warning",
        ]
        self._log = open(log_path, "ab")
        # Its own process group: the router and the shards it starts.
        self.process = subprocess.Popen(
            argv, env=env, stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True
        )

    def wait_healthy(self) -> None:
        client = ScanClient(self.url, timeout_s=2.0, retries=0)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"cluster exited with code {self.process.returncode}")
            try:
                health = client.healthz()
                if health.get("status") == "ok" and health.get("n_healthy") == SHARDS:
                    return
            except Exception:  # not listening yet
                pass
            time.sleep(0.05)
        raise RuntimeError("cluster not healthy in time")

    def stop(self) -> None:
        """SIGTERM, then wait until no process of the group is left.

        The router drains and reaps its shards; whatever is still running
        after :data:`STOP_TIMEOUT_S` is killed.
        """
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while _group_alive(self.process.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
                self.process.poll()  # reaps the router once it has exited
            if _group_alive(self.process.pid):
                _kill_group(self.process.pid)
            self.process.wait()
        finally:
            self._log.close()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def warm_up(cluster: Cluster, plan: ServePlan) -> None:
    client = ScanClient(cluster.url, timeout_s=60.0, retries=0)
    for i in plan.warmup:
        client.scan(plan.scripts[i].source, name=plan.scripts[i].name)


def drive(cluster: Cluster, plan: ServePlan, workers: int) -> list[tuple[RungReport, list]]:
    """Run every rung in turn; outcomes carry the served ScanVerdicts."""
    client = ScanClient(cluster.url, timeout_s=60.0, retries=0)
    out = []
    for index, rung in enumerate(plan.rungs):
        requests = plan.rung_requests(index)
        offsets = [r.due_s for r in requests]

        def send(i: int, requests=requests):
            script = plan.scripts[requests[i].script]
            return client.scan(script.source, name=script.name)

        outcomes = run_open_loop(offsets, send, workers=workers)
        start = outcomes[0].due - offsets[0] if outcomes else None
        out.append((summarize(rung.rate_rps, outcomes, start=start), outcomes))
    return out


def fleet_scrape(cluster: Cluster) -> Scrape:
    """The federated exposition once the router's view of the shards is current."""
    time.sleep(ROUTER_SCRAPE_INTERVAL_S * 1.25)
    return Scrape.parse(ScanClient(cluster.url, retries=0).metrics_text(aggregate="sum"))


def shard_peak_rss_mb(cluster: Cluster) -> float:
    """Largest peak RSS among the running shards."""
    shards = ScanClient(cluster.url, retries=0).healthz()["shards"]
    return max(peak_rss_mb(shard["pid"]) for shard in shards)


#: Stages of ``repro_scan_stage_seconds`` reported per scanned script.
SERVE_STAGES = ("path_extraction", "embedding", "feature_transform", "classifying")


def hop_ms(spans: list[dict]) -> float | None:
    """The router's own time in one merged scan trace, or ``None``.

    ``spans`` is a trace from the router's ``GET /v1/debug/traces/<id>``:
    the router's spans, and each shard's tagged with a ``shard``
    attribute.  The hop is the ``router.scan`` span minus the shard
    request spans directly under the router's spans.
    """
    router = {s["span_id"]: s for s in spans if "shard" not in s.get("attributes", {})}
    roots = [s for s in router.values() if s["name"] == "router.scan"]
    forwards = [
        s for s in spans if "shard" in s.get("attributes", {}) and s.get("parent_id") in router
    ]
    if len(roots) != 1 or not forwards:
        return None
    return roots[0]["duration_ms"] - sum(s["duration_ms"] for s in forwards)


def router_hop_ms(cluster: Cluster, outcomes: list[Outcome]) -> float:
    """Median :func:`hop_ms` over the forwarded scans the router traced.

    The router traces a sample of the scans it forwards; cache hits are
    never traced.  NaN when no trace was sampled.
    """
    client = ScanClient(cluster.url, retries=0)
    hops = []
    for outcome in outcomes:
        trace_id = outcome.result.trace_id if outcome.ok else None
        if trace_id is None:
            continue
        try:
            hop = hop_ms(client.trace(trace_id)["spans"])
        except Exception:  # unsampled by the router, or evicted from a ring
            continue
        if hop is not None:
            hops.append(hop)
    return median(hops)


def serve_layer_metrics(diff: ScrapeDiff, lag_p95_ms: float, hop_ms: float) -> dict:
    """Per-layer numbers of the fleet from one scrape difference."""
    scripts = diff.counter("repro_scan_scripts_total")
    metrics = {
        "serve.queue_wait_p50_ms": 1000.0 * diff.histogram_quantile("repro_serve_queue_wait_seconds", 0.5),
        "serve.batch_size_mean": diff.histogram_mean("repro_serve_batch_size_scripts"),
    }
    for stage in SERVE_STAGES:
        total = diff.histogram_sum("repro_scan_stage_seconds", {"stage": stage})
        metrics[f"serve.stage_ms.{stage}"] = 1000.0 * total / scripts if scripts else 0.0
    hits = diff.counter("repro_router_cache_total", {"result": "hit"})
    lookups = diff.counter("repro_router_cache_total")
    metrics.update(
        {
            "serve.rejected": diff.counter("repro_serve_rejected_total"),
            "serve.router.failovers": diff.counter("repro_router_failovers_total"),
            "serve.router.retries": diff.counter("repro_router_retries_total"),
            "serve.router.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.router.hop_ms": hop_ms,
            "loadgen.lag_p95_ms": lag_p95_ms,
        }
    )
    return {k: (0.0 if v != v else v) for k, v in metrics.items()}  # NaN: no observations

