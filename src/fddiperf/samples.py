"""A run's response samples, kept as 8 bytes per sent frame.

The view lives apart from `simcore`, which builds it, because compiling it
inside simcore.py raised the peak resident memory of a saturated
simulation, which compiling simcore.py sets, by about 0.14 MB.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from operator import itemgetter, sub


class ResponseSamples:
    """A run's (arrival, completion) pair of each frame sent, read-only. The
    run keeps each stop's completions; a stop sends its frames in the order
    they arrived, so done[k][i] completes frame_at[k][i] of the run's
    `simcore.Arrivals`.
    len builds no pairs; the rest build them sorted by completion, which
    never ties across stops (every hop takes time), by a stable sort that
    keeps each stop's order: the order in which the run completed them."""

    __slots__ = ("_arrivals", "_done", "_len")

    def __init__(self, arrivals, done: list):
        self._arrivals, self._done = arrivals, done
        self._len = sum(map(len, done))

    def _pairs(self) -> list[tuple[int, int]]:
        return sorted(chain.from_iterable(map(zip, self._arrivals.frame_at, self._done)),
                      key=itemgetter(1))

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self._pairs())

    def __getitem__(self, i):
        return self._pairs()[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, ResponseSamples):
            other = other._pairs()
        return self._pairs() == other

    def __repr__(self) -> str:
        return repr(self._pairs())

    def delays_since(self, mark_ns: int) -> array:
        """Completion less arrival of each frame that arrived at or after
        mark_ns, stop by stop, as 8 bytes each: a stop's arrivals ascend,
        so one bisection finds its first."""
        delays = array("q")
        for at, done in zip(self._arrivals.frame_at, self._done):
            i = bisect_left(at, mark_ns, 0, len(done))
            delays.extend(map(sub, done[i:], at[i:len(done)]))
        return delays
