"""Item times scaled to a nominal interpreter speed.

On the shared 2-core host this benchmark was tuned on, the interpreter's
speed switches between states up to 1.7x apart every few seconds (other
tenants on the same cores and caches), far wider than any bound the
benchmark sets.  So a run times a fixed piece of pure Python work, the
calibration, between items, and scales each item's wall time by
NOMINAL_MS over the median calibration time around it.  The calibration
shares no code with outlinecheck, so a change to the program cannot move
it, and both sides of a comparison made on one host are scaled alike.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_MS = 2.0  # about the calibration's time in that host's fast state
EVERY_S = 0.05    # calibrate before an item when the last sample is older
WINDOW_S = 0.5    # samples this close to an item set its scale
ROUNDS = 800


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids) -> None:
        self.key = key
        self.kids = kids


def _walk(node):
    yield node.key
    for k in node.kids:
        yield from _walk(k)


def work() -> int:
    """Allocation, attribute and dict access, isinstance dispatch and
    nested generators: what the checker spends its own time on."""
    table: dict = {}
    for i in range(ROUNDS):
        root = _Node(("r", i), (_Node(i, ()), _Node((i, 1), (_Node(-i, ()),))))
        for key in _walk(root):
            if isinstance(key, tuple):
                table[key] = table.get(key, 0) + 1
            else:
                table[i] = key
    return len(table)


class Clock:
    """Calibration samples taken during a run."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: list[float] = []

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= EVERY_S:
            work()
            end = time.perf_counter()
            self.at.append((now + end) / 2)
            self.ms.append((end - now) * 1e3)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval t0..t1 in seconds at nominal speed."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.ms[lo:hi] or [self.ms[min(lo, len(self.ms) - 1)]]
        return (t1 - t0) * NOMINAL_MS / statistics.median(near)
