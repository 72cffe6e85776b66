"""Coordinate-permutation (S_n) utilities: orbits, stabilizers, partitions."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Iterator


def normalize_partition(blocks, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonicalize a partition of {1, ..., n}: sorted blocks, sorted by minimum.

    Raises ValueError if the blocks are not disjoint, nonempty and covering.
    """
    seen: set[int] = set()
    canon = []
    for block in blocks:
        block = tuple(sorted(block))
        if not block:
            raise ValueError("partition blocks must be nonempty")
        if seen.intersection(block):
            raise ValueError("partition blocks must be disjoint")
        seen.update(block)
        canon.append(block)
    if seen != set(range(1, n + 1)):
        raise ValueError(f"blocks do not partition 1..{n}: {sorted(seen)}")
    return tuple(sorted(canon))


def stabilizer_partition(x) -> tuple[tuple[int, ...], ...]:
    """Partition of 1-based positions into blocks of equal coordinate value."""
    groups: dict[object, list[int]] = {}
    for i, value in enumerate(x, start=1):
        groups.setdefault(value, []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def is_regular(x) -> bool:
    """True iff all coordinates are distinct (trivial stabilizer)."""
    return len(set(x)) == len(x)


def orbit_size(x) -> int:
    """Number of distinct coordinate permutations of x."""
    size = math.factorial(len(x))
    for count in Counter(x).values():
        size //= math.factorial(count)
    return size


def iter_orbit(x) -> Iterator[tuple[int, ...]]:
    """Yield the distinct coordinate permutations of x in lexicographic order.

    The one orbit generator: from the sorted coordinates it steps to the next
    permutation in place, holding only the current arrangement.
    """
    items = sorted(x)
    last = len(items) - 1
    while True:
        yield tuple(items)
        # the rightmost ascent is the entry that grows next
        i = last - 1
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = items[:i:-1]


def orbit_of(x) -> list[tuple[int, ...]]:
    """All distinct coordinate permutations of x, in lexicographic order, as a list."""
    return list(iter_orbit(x))


def merge_orbits(reps) -> Iterator[tuple[int, ...]]:
    """The union of the orbits of reps (one per orbit), lazily in lexicographic order.

    It holds one ``iter_orbit`` generator per representative, never the points.
    """
    return heapq.merge(*map(iter_orbit, reps))


def regular_orbit_reps(points) -> list[tuple[int, ...]]:
    """One strictly decreasing representative per regular orbit, sorted.

    The input must be closed under coordinate permutations; this is checked
    and a ValueError is raised otherwise.
    """
    point_set = {tuple(p) for p in points}
    by_multiset = Counter(tuple(sorted(p, reverse=True)) for p in point_set)
    for rep, count in by_multiset.items():
        if count != orbit_size(rep):
            raise ValueError(f"input is not closed under permutations near {rep}")
    return sorted(rep for rep in by_multiset if is_regular(rep))
