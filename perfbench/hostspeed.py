"""Timing that is steady on a shared host.

The benchmark runs on a few cores of a machine it shares. How fast those
cores run changes by up to twofold, in spells of seconds to minutes, and
wall-clock timings of the same roomtune code spread with it. While a
``HostSpeed`` is entered, a timer signal runs a fixed piece of work that
uses no roomtune code (``Reference``) every ``INTERVAL_S`` and records
how long it took. A timed piece is rescaled by ``REFERENCE_S`` over the
mean reference time around it: the result is what the piece would take
on a host where the reference takes ``REFERENCE_S``. A slower roomtune
reads slower, as in wall-clock time; a slower host mostly does not. The
time the signal handler takes is subtracted from every timing.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.0022  # about what Reference.once() takes on a 2-vCPU x86_64 VM
INTERVAL_S = 0.1  # between two reference readings, about 2% of the time
WINDOW_S = 0.5  # readings this close to a piece count for it


class Reference:
    """About equal parts of an interpreted loop over numpy scalars, like
    the simulator's control loop, and Cholesky solves of a 150-point
    kernel matrix, like the GP's. Inputs are fixed, so the work never
    changes."""

    def __init__(self):
        self.series = np.linspace(0.0, 1.0, 2000)
        grid = np.linspace(0.0, 1.0, 150)
        self.kernel = np.exp(-np.subtract.outer(grid, grid) ** 2) + 1e-3 * np.eye(grid.size)

    def once(self) -> float:
        start = time.perf_counter()
        x = y = 0.0
        series = self.series
        for k in range(series.size):
            e = float(series[k]) - x
            y = min(max(y + 0.1 * e, -1.0), 1.0)
            x = 0.95 * x + 0.05 * (y + e)
        for _ in range(2):
            factor = np.linalg.cholesky(self.kernel)
            np.linalg.solve(factor, self.kernel[:, :20])
        return time.perf_counter() - start


@dataclass
class Piece:
    start: float
    end: float
    seconds: float  # end - start, less the signal handler's time


class HostSpeed:
    """Samples the reference in the background of one single-threaded
    process; ``time(fn)`` times a piece, ``rescaled(piece)`` rescales it
    once readings after the piece exist."""

    def __init__(self):
        self.reference = Reference()
        self.readings: list[tuple[float, float]] = []  # (when, reference seconds)
        self.handler_s = 0.0

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.readings.append((start, self.reference.once()))
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Runs fn(); returns (its result, the Piece it took)."""
        handler_s = self.handler_s
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        return out, Piece(start, end, end - start - (self.handler_s - handler_s))

    def rescaled(self, piece: Piece) -> float:
        near = [r for t, r in self.readings if piece.start - WINDOW_S <= t <= piece.end + WINDOW_S]
        return piece.seconds * REFERENCE_S / statistics.fmean(near)


class Clock:
    """Times each round item by key; ``clock(key, ops, fn)`` returns fn()."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.ops: dict[str, int] = {}
        self.pieces: dict[str, list[Piece]] = {}

    def __call__(self, key: str, ops: int, fn):
        out, piece = self.speed.time(fn)
        self.pieces.setdefault(key, []).append(piece)
        self.ops[key] = ops
        return out

    @property
    def repeats(self) -> int:
        return min(len(p) for p in self.pieces.values())

    def ops_per_s(self, rescaled: bool = True) -> float:
        """Operations of one round over the sum of its items' median times."""
        seconds = self.speed.rescaled if rescaled else (lambda piece: piece.seconds)
        medians = [statistics.median(seconds(p) for p in pieces) for pieces in self.pieces.values()]
        return sum(self.ops.values()) / sum(medians)
