"""Order statistics, report comparison and process accounting."""

from __future__ import annotations

import hashlib
import math
import os
from typing import Dict, Optional, Sequence

#: A failed operation's latency: it never produced a verified report.
FAILED = math.inf

#: The tail is the highest percentile with at least this many
#: operations beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median with failures as ``+inf`` (the lower middle when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    return ordered[(len(ordered) - 1) // 2]


def tail(values: Sequence[float]) -> Dict[str, float]:
    """Latency at the highest percentile with >= 10 operations beyond it.

    With ``n`` operations that is the value of rank ``n - 10`` (1-based)
    in ascending order, i.e. percentile ``100 * (n - 10) / n``.  With 10
    or fewer operations no percentile qualifies and the maximum is
    reported at percentile 100, flagged ``qualified: False``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no values")
    rank = n - TAIL_BEYOND
    if rank < 1:
        return {"value": ordered[-1], "percentile": 100.0, "n": n, "qualified": False}
    return {
        "value": ordered[rank - 1],
        "percentile": round(100.0 * rank / n, 3),
        "n": n,
        "qualified": True,
    }


def digest(canonical_json: str) -> str:
    return hashlib.blake2b(canonical_json.encode("utf-8"), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Per-process CPU and resident set (Linux /proc)
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> Optional[float]:
    """User + system CPU seconds of a live process, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / _TICK


def reset_peak_rss(pid: int) -> None:
    """Restart the kernel's peak-RSS counter (VmHWM) of ``pid``."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None
