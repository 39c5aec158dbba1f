"""Measurement helpers shared by the workloads: timing summaries, the
error tally, and peak resident memory of the benchmark's processes."""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Percentiles a timing summary may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10

#: Timed ops a run needs so that its p90 has ``MIN_TAIL_SAMPLES``
#: samples beyond it.
MIN_OPS_FOR_P90 = 100


def tail_percentile(samples: int) -> "float | None":
    """The highest percentile of :data:`PERCENTILE_LADDER` with at
    least :data:`MIN_TAIL_SAMPLES` of ``samples`` beyond it (``None``
    when not even the median qualifies)."""
    best = None
    for pct in PERCENTILE_LADDER:
        if samples * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Linearly interpolated percentile of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


@dataclass
class Tally:
    """Outcome counts of every attempted op of a run.

    ``failed`` counts ops that raised or returned an error, ``refused``
    those the server shed as overloaded, ``wrong`` those whose answer
    differed from the oracle's.  Each counts against ``error_rate``.
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0

    @property
    def errors(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def error_rate(self) -> float:
        return self.errors / self.attempted if self.attempted else 1.0

    @property
    def exit_code(self) -> int:
        """0 only when every attempted op succeeded with the right
        answer."""
        return 0 if self.attempted and not self.errors else 1


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def output_dir() -> Path:
    """``.perfbench/`` at the checkout root, for trace files and temp
    files (created on demand)."""
    path = Path(__file__).resolve().parent.parent / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def _descendants(root: int) -> list[int]:
    """Process ids of every live descendant of ``root`` (Linux /proc)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant
    (process-pool workers, the shared-memory resource tracker), in MB.

    Each process contributes its own high-water mark (``VmHWM``), so
    the sum bounds the peak of the total from above.  Pages a forked
    worker shares with its parent count in both.  Without ``/proc``
    the kernel's self and waited-children maxima are summed instead.
    """
    if os.path.isdir("/proc/self"):
        me = os.getpid()
        kb = _vm_hwm_kb(me) + sum(_vm_hwm_kb(p) for p in _descendants(me))
        return kb / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
