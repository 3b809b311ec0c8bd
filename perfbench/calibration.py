"""Host-speed calibration for the reported times.

On a shared host the same Python work runs up to twice as fast in one
few-second phase as in the next, and runs minutes apart inherit those phases.
A fixed loop timed next to every operation tracks the phases (over 3-second
windows of one run, the spread of operation times fell from 17% to 5% once
divided by the loop's time), so every reported time is scaled by
``REFERENCE_S`` over the loop's time around it: seconds at the speed where
the loop takes ``REFERENCE_S``. The loop is benchmark code that no change
to the package touches, and it allocates no container the cyclic collector
tracks, so collector settings of the package do not move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.001
WINDOW = 2  # fewest calibrations on each side that set an operation's scale


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) % 1543
        table[key] = table.get(key, 0) + i
        total += key * key % 7
    for value in table.values():
        total ^= value
    return time.perf_counter() - start


def scaled(times: list[float], calibrations: list[float], ticks: list[list] | None = None) -> list[float]:
    """Times in reference seconds.

    ``calibrations[k]`` was taken just before ``times[k]``; one more taken
    after the last time closes the list. Each time is scaled by the median of
    the calibrations taken within one operation length before or after it,
    and of at least ``WINDOW`` on each side.

    ``ticks[k]``, when given, lists the ``(offset, calibration)`` pairs taken
    inside operation ``k`` (``child.Ticker``). They split it into segments:
    the first is scaled as above, each later one by the median of its own
    tick and the ticks next to it. A phase change in the middle of a
    seconds-long operation then counts for the share of the operation it
    covers, where a median of calibrations around the operation would pick
    one phase for all of it.
    """
    marks, clock = [], 0.0  # when each calibration ended, on the run's clock
    for k, c in enumerate(calibrations):
        clock += c
        marks.append(clock)
        clock += times[k] if k < len(times) else 0.0
    out = []
    for k, t in enumerate(times):
        first = min(bisect.bisect_left(marks, marks[k] - t), k - WINDOW + 1)
        last = max(bisect.bisect_right(marks, marks[k + 1] + t), k + 1 + WINDOW)
        near = calibrations[max(0, first): last]
        inside = ticks[k] if ticks else []
        offsets = [0.0] + [offset for offset, _ in inside] + [t]
        scales = [statistics.median(near)] + [
            statistics.median(c for _, c in inside[max(0, j - 1): j + 2]) for j in range(len(inside))
        ]
        out.append(sum((offsets[j + 1] - offsets[j]) * REFERENCE_S / scales[j] for j in range(len(scales))))
    return out
