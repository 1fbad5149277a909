"""Process-level measurements the benchmark reads from outside the stack."""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | None = None) -> float:
    """User + system CPU seconds of ``pid`` (all threads), or of this
    process when ``pid`` is None."""
    if pid is None:
        times = os.times()
        return times.user + times.system
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name (field 2) may contain spaces; fields after
        # its closing parenthesis are space separated, utime/stime are
        # fields 14 and 15 of the whole line.
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line in {path}")


def percentile_ms(latencies: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of latencies given in seconds, in ms."""
    return float(np.percentile(latencies, q)) * 1000.0 if latencies else 0.0
