"""A run's samples as fixed-width integers: 8 bytes per sent frame for its
response times, 16 per access episode.

The views live apart from `simcore`, which builds them, because compiling
them inside simcore.py raised the peak resident memory of a saturated
simulation, which compiling simcore.py sets, by about 0.14 MB.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from operator import add, itemgetter


class _Pairs:
    """A read-only sequence of (int, int) pairs that indexes, compares and
    prints as the list of them, which `_pairs` builds when read."""

    __slots__ = ()

    def __iter__(self):
        return iter(self._pairs())

    def __getitem__(self, i):
        return self._pairs()[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, _Pairs):
            other = other._pairs()
        return self._pairs() == other

    def __repr__(self) -> str:
        return repr(self._pairs())


def _stop_pairs(at, delays) -> zip:
    return zip(at, map(add, at, delays))


class ResponseSamples(_Pairs):
    """A run's (arrival, completion) pair of each frame sent, read-only. The
    run keeps each stop's response times; a stop sends its frames in the
    order they arrived, so delays[k][i] is the response time of the frame
    that arrived at frame_at[k][i] of the run's `simcore.Arrivals`.
    len and `stops_since` build no pairs; the rest build them sorted by
    completion, which never ties across stops (every hop takes time), by a
    stable sort that keeps each stop's order: the order in which the run
    completed them."""

    __slots__ = ("_arrivals", "_delays", "_len")

    def __init__(self, arrivals, delays: list):
        self._arrivals, self._delays = arrivals, delays
        self._len = sum(map(len, delays))

    def _pairs(self) -> list[tuple[int, int]]:
        return sorted(chain.from_iterable(map(_stop_pairs, self._arrivals.frame_at, self._delays)),
                      key=itemgetter(1))

    def __len__(self) -> int:
        return self._len

    def stops_since(self, mark_ns: int) -> list[tuple[array, int]]:
        """Per stop, its response times and the index of its first frame that
        arrived at or after mark_ns. A stop's arrivals ascend, so one
        bisection finds it; nothing is copied."""
        return [(delays, bisect_left(at, mark_ns, 0, len(delays)))
                for at, delays in zip(self._arrivals.frame_at, self._delays)]


class AccessEpisodes(_Pairs):
    """A run's access episodes as (start, capture) pairs in the order of
    their captures, read-only, kept as two ints each in one flat
    array('q'): 16 bytes an episode. len builds no pairs, iteration one at
    a time; `starts` and `captures` are the two columns as arrays."""

    __slots__ = ("_flat",)

    def __init__(self, flat: array):
        self._flat = flat

    def _pairs(self) -> list[tuple[int, int]]:
        return list(self)

    def __len__(self) -> int:
        return len(self._flat) // 2

    def __iter__(self):
        flat = iter(self._flat)
        return zip(flat, flat)

    @property
    def starts(self) -> array:
        return self._flat[::2]

    @property
    def captures(self) -> array:
        return self._flat[1::2]
