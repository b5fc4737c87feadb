"""Machine-speed probe for the benchmark's timings.

The host is shared, and its speed flips between a fast and a slow state
(about 1.5x apart) that last from a fraction of a second to tens of
seconds, often longer than a run.  So while a timed phase runs, a probe
process pinned to a core the phase uses does a fixed piece of work every
:data:`INTERVAL_S` and records how much CPU time it took: CPU time, so
that the probe waiting for the core behind the program does not count,
only how fast the core runs.  A span's slowdown is the mean reading
during it; its time divided by that is its time at reference speed.

The probe runs in its own interpreter, so nothing the program does to
its heap, allocator or caches can reach it, and it takes about 5 % of
the core.  Its work mixes an integer loop (slowed less than a scan by
the slow state) with building and walking a small object tree (slowed
more), so that together they slow down about as much as a scan.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Iterations of the integer loop.
SPIN_N = 10_000
#: Depth and fan-out of the object tree (341 nodes).
TREE_DEPTH, TREE_FAN = 4, 4
#: Seconds between readings.
INTERVAL_S = 0.02
#: A reading on the machine the bounds were set on (2 vCPUs, x86-64,
#: Python 3.11), in its fast state.
REFERENCE_S = 0.001


class _Node:
    __slots__ = ("kind", "children", "value")

    def __init__(self, kind: str, children: list, value: str | None):
        self.kind, self.children, self.value = kind, children, value


def _build(depth: int, index: int = 0) -> _Node:
    if depth == 0:
        return _Node("leaf", [], f"v{index}")
    children = [_build(depth - 1, index * TREE_FAN + j) for j in range(TREE_FAN)]
    return _Node(f"k{depth}", children, None)


def _walk(node: _Node, counts: dict, parent: str) -> None:
    counts[node.kind] = counts.get(node.kind, 0) + 1
    if node.value is not None:
        counts[parent + node.value[-1]] = 1
    for child in node.children:
        _walk(child, counts, node.kind)


def work() -> float:
    """CPU seconds for one reading's fixed work."""
    started = time.thread_time()
    x = 0
    for i in range(SPIN_N):
        x += i * i
    _walk(_build(TREE_DEPTH), {}, "root")
    return time.thread_time() - started


def _serve(cpu: int) -> None:
    """The probe process: readings until end of input, then all of them."""
    os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    stop = threading.Event()

    def wait_for_end() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_end, daemon=True).start()
    readings = []
    while not stop.wait(INTERVAL_S):
        at = time.monotonic()
        readings.append((at, work()))
    sys.stdout.write("".join(f"{at!r} {cpu_s!r}\n" for at, cpu_s in readings))


class SpeedProbe:
    """A probe process pinned to core ``cpu``, reading until closed.

    Timestamps are ``time.monotonic()``, which every process on the host
    shares.  Returns once the probe is ready to read.
    """

    def __init__(self, cpu: int) -> None:
        path = [str(Path(__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        self.times: list[float] = []
        #: Each reading as a slowdown against :data:`REFERENCE_S`.
        self.slowdowns: list[float] = []
        self._process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.calibrate", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        if self._process.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("the speed probe did not start")

    def close(self) -> None:
        """End of input stops the probe; collect its readings and wait until it has ended."""
        if self._process.returncode is not None:
            return
        try:
            out, _ = self._process.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            out, _ = self._process.communicate()
        for line in out.splitlines():
            at, cpu_s = line.split()
            self.times.append(float(at))
            self.slowdowns.append(float(cpu_s) / REFERENCE_S)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def slowdown(self, start: float, end: float) -> float:
        """Mean reading from ``start`` to ``end``, once closed.

        A span too short to hold a reading takes the mean of the last
        reading before it and the first after it.
        """
        if not self.times:
            raise RuntimeError("the probe took no readings")
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            inside = self.slowdowns[lo:hi]
        else:
            inside = [self.slowdowns[max(lo - 1, 0)], self.slowdowns[min(hi, len(self.times) - 1)]]
        return sum(inside) / len(inside)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
