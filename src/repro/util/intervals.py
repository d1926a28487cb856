"""Integer interval sets.

Ownership index sets of block-cyclic distributions are unions of regularly
spaced runs of consecutive integers.  Representing them as sorted lists of
half-open intervals keeps redistribution-schedule computation (which
intersects source and target ownership sets) fast and exact, instead of
enumerating indices one by one.

All intervals are half-open ``[lo, hi)`` with ``lo < hi``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class IntervalSet:
    """An immutable set of integers stored as disjoint sorted half-open intervals."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        self._ivs: tuple[tuple[int, int], ...] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        ivs = sorted((lo, hi) for lo, hi in intervals if lo < hi)
        out: list[tuple[int, int]] = []
        for lo, hi in ivs:
            if out and lo <= out[-1][1]:
                if hi > out[-1][1]:
                    out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return tuple(out)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def range(cls, lo: int, hi: int) -> "IntervalSet":
        """The set ``{lo, .., hi-1}``."""
        return cls(((lo, hi),))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "IntervalSet":
        """Build from arbitrary (possibly unsorted, duplicated) indices."""
        idx = sorted(set(indices))
        ivs: list[tuple[int, int]] = []
        for i in idx:
            if ivs and i == ivs[-1][1]:
                ivs[-1] = (ivs[-1][0], i + 1)
            else:
                ivs.append((i, i + 1))
        return cls(ivs)

    @classmethod
    def strided_runs(cls, start: int, run: int, period: int, lo: int, hi: int) -> "IntervalSet":
        """Runs of length ``run`` starting at ``start + k*period``, clipped to ``[lo, hi)``.

        This is exactly the ownership set of one processor under a
        ``CYCLIC(run)`` distribution with ``period = P*run``.
        """
        if run <= 0 or hi <= lo:
            return cls.empty()
        if period <= 0:
            raise ValueError("period must be positive")
        # smallest k with start + k*period + run > lo
        k0 = (lo - start - run) // period + 1
        ivs = []
        k = k0
        while start + k * period < hi:
            a = max(start + k * period, lo)
            b = min(start + k * period + run, hi)
            if a < b:
                ivs.append((a, b))
            k += 1
        return cls(ivs)

    # -- queries -----------------------------------------------------------

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return self._ivs

    def __len__(self) -> int:
        return sum(hi - lo for lo, hi in self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self._ivs:
            yield from range(lo, hi)

    def __contains__(self, x: int) -> bool:
        # binary search over interval starts
        lo, hi = 0, len(self._ivs)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = self._ivs[mid]
            if x < a:
                hi = mid
            elif x >= b:
                lo = mid + 1
            else:
                return True
        return False

    def min(self) -> int:
        if not self._ivs:
            raise ValueError("empty IntervalSet has no min")
        return self._ivs[0][0]

    def progression(self) -> range | None:
        """The members as a ``range`` when they form one arithmetic
        progression (one interval, or equally spaced single members), else
        ``None``.  One pass over the intervals, no element enumerated."""
        ivs = self._ivs
        if not ivs:
            return range(0)
        if len(ivs) == 1:
            return range(*ivs[0])
        first = ivs[0][0]
        step = ivs[1][0] - first
        starts = range(first, first + len(ivs) * step, step)
        ends = range(first + 1, first + 1 + len(ivs) * step, step)
        return starts if ivs == tuple(zip(starts, ends)) else None

    def position(self, x: int) -> int:
        """Rank of ``x`` among the set's members in increasing order.

        Used as the *local index* of a global index within a processor's
        owned index set: local numbering is dense by construction.
        """
        lo, hi = 0, len(self._ivs)
        count = 0
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = self._ivs[mid]
            if x < a:
                hi = mid
            elif x >= b:
                lo = mid + 1
            else:
                # members in all intervals before mid, plus offset inside mid
                return sum(ivb - iva for iva, ivb in self._ivs[:mid]) + (x - a)
        raise KeyError(f"{x} not in {self!r}")

    def nth(self, k: int) -> int:
        """Inverse of :meth:`position`: the k-th smallest member."""
        if k < 0:
            raise IndexError(k)
        for lo, hi in self._ivs:
            n = hi - lo
            if k < n:
                return lo + k
            k -= n
        raise IndexError("nth: index beyond set size")

    def max(self) -> int:
        if not self._ivs:
            raise ValueError("empty IntervalSet has no max")
        return self._ivs[-1][1] - 1

    # -- set algebra ---------------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[int, int]] = []
        i = j = 0
        a, b = self._ivs, other._ivs
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self._ivs + other._ivs)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[int, int]] = []
        j = 0
        b = other._ivs
        for lo, hi in self._ivs:
            cur = lo
            while j < len(b) and b[j][1] <= cur:
                j += 1
            k = j
            while k < len(b) and b[k][0] < hi:
                blo, bhi = b[k]
                if blo > cur:
                    out.append((cur, min(blo, hi)))
                cur = max(cur, bhi)
                if cur >= hi:
                    break
                k += 1
            if cur < hi:
                out.append((cur, hi))
        return IntervalSet(out)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        body = ", ".join(f"[{lo},{hi})" for lo, hi in self._ivs)
        return f"IntervalSet({body})"
