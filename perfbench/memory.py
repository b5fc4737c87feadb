"""Peak resident memory of a process.

``getrusage`` cannot serve here: Linux carries a process's high-water
mark across ``fork`` and ``exec``, so a scanner started from the process
that trained the model would report the training peak.  The kernel's
per-image ``VmHWM`` starts afresh at ``exec``.
"""

from __future__ import annotations


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError(f"no VmHWM for process {pid}")
