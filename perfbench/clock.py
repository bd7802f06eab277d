"""Timing that holds still on a host whose speed drifts.

On the shared 2-vCPU KVM host the benchmark was defined on, the same
CPU-bound Python code runs up to 1.8x slower for stretches of 0.5-30 s,
because other guests share the physical cores.  Process time tracks wall
time there, so it does not help.  A fixed pure-Python reference loop (no
program code) is therefore timed right before and after each timed block,
and every SAMPLE_S inside it from a SIGALRM handler, and the block is
reported at the reference speed:

    reported = measured * mean(REFERENCE_S / reference loop time)

`measured` leaves out the time spent in reference loops.  Both numbers are
kept; the benchmark prints the measured one beside the reported one.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

clock = time.perf_counter

#: time of one reference loop at the reference speed (the loop took
#: 1.0-2.3 ms on the host above)
REFERENCE_S = 0.0015
#: interval of the reference samples inside a timed block
SAMPLE_S = 0.1


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


def _reference_loop() -> int:
    """Object-heavy interpreter work shaped like the program's own."""
    total = 0
    for _ in range(60):
        head = None
        for i in range(40):
            head = _Node(i, head)
        while head is not None:
            if isinstance(head, _Node):
                total += head.value
            head = head.next
        items = frozenset((i, str(i)) for i in range(20))
        total += len(items | {(1, "x")})
        total += len(",".join(sorted(str(i * 7919 % 101) for i in range(20))))
    return total


class Block:
    """One timed block: its time less reference loops, and the loop times."""

    def __init__(self):
        self.refs: list = []
        self.measured = 0.0

    @property
    def reported(self) -> float:
        return self.measured * statistics.fmean(REFERENCE_S / r
                                                for r in self.refs)


class RefClock:
    """Times nested blocks of program work at the reference speed.

    One per process: it owns SIGALRM while a block is open.  A reference
    loop run for any block counts for every open block, and its time is
    taken out of all of them.
    """

    def __init__(self):
        self._open: list = []
        self._spent = 0.0        # time in reference loops so far
        self._busy = False
        self._previous = None

    def _reference(self) -> float:
        self._busy = True
        start = clock()
        _reference_loop()
        ref = clock() - start
        self._busy = False
        self._spent += ref
        for block in self._open:
            block.refs.append(ref)
        return ref

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._reference()

    @contextlib.contextmanager
    def block(self):
        b = Block()
        b.refs.append(self._reference())
        if not self._open:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._open.append(b)
        spent = self._spent
        start = clock()
        try:
            yield b
        finally:
            end, spent_end = clock(), self._spent
            self._open.pop()
            if not self._open:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, self._previous)
            b.measured = end - start - (spent_end - spent)
            b.refs.append(self._reference())


class Samples:
    """Measured and reference-speed durations (seconds) of one kind of op."""

    def __init__(self):
        self.measured: list = []
        self.reported: list = []
        self.refs: list = []       # mean reference loop time of each sample

    def add(self, block: Block) -> float:
        self.record(block.measured, block.reported,
                    statistics.fmean(block.refs))
        return block.reported

    def record(self, measured: float, reported: float, ref: float) -> None:
        self.measured.append(measured)
        self.reported.append(reported)
        self.refs.append(ref)

    def __len__(self) -> int:
        return len(self.reported)


def median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: list, want: int = 90) -> tuple:
    """(percentile, value): the highest percentile up to `want` with at
    least ten samples beyond it, by nearest rank; (None, nan) if n < 11."""
    n = len(values)
    if n < 11:
        return None, float("nan")
    pct = min(want, (100 * (n - 10)) // n)
    ordered = sorted(values)
    rank = max(1, -(-pct * n // 100))   # ceil(pct * n / 100)
    return pct, ordered[rank - 1]
