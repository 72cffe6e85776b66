"""Coordinate-permutation (S_n) utilities: orbits, stabilizers, partitions.

``prefix_groups`` is the one orbit walk: it yields the points of the orbits
one prefix group at a time, with each sorted prefix's tails rendered once
by its caller.  ``merge_orbits`` flattens it into points, and every command
and check that expands orbits streams them from one of the two;
``orbit_of`` is the one-orbit list.
"""

from __future__ import annotations

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


def orbit_size(x) -> int:
    """Number of distinct coordinate permutations of x."""
    size = math.factorial(len(x))
    for count in Counter(x).values():
        size //= math.factorial(count)
    return size


def orbit_of(x) -> list[tuple[int, ...]]:
    """All distinct coordinate permutations of x, in lexicographic order: ``merge_orbits([x])``."""
    return list(merge_orbits([x]))


def merge_orbits(reps) -> Iterator[tuple[int, ...]]:
    """The union of the orbits of reps (one per orbit), lazily in lexicographic order.

    The flatten of ``prefix_groups``: each group's prefix followed by each
    of its tails.  The representatives may come in any order and with their
    coordinates in any order, but all of one length.  It keeps each sorted
    prefix's tails as pointers to pairs held once per call, so it holds
    O(n^2 * #representatives) pointers, never the points.
    """
    pairs: dict[tuple[int, ...], tuple[int, ...]] = {}

    def intern(key, tails):
        return list(map(pairs.setdefault, tails, tails))

    for prefix, tails in prefix_groups(reps, intern):
        yield from map(prefix.__add__, tails)


def prefix_groups(reps, render) -> Iterator[tuple[tuple[int, ...], object]]:
    """The orbits of reps as ``(prefix, render(key, tails))`` groups, in lexicographic order.

    A prefix walk: from each prefix it steps, in ascending order, to each
    value the representatives have left, less the prefix's values.  A group
    is a prefix of length max(n - 2, 0), none twice; its points are the
    prefix followed by each of its tails, the orbits of what the
    representatives have left, so the tails depend only on the sorted
    prefix ``key``.  So ``render`` is called once per key, with the key's
    sorted tails, at its first group, whose prefix is the key, and every
    group of the key yields that result.  Memory: one list of remaining
    multisets per level, O(n * #representatives), plus one result per key.
    """
    multisets = [tuple(sorted(rep)) for rep in reps]
    if not multisets:
        return
    n = len(multisets[0])
    if any(len(multiset) != n for multiset in multisets):
        raise ValueError("representatives must all have the same length")
    if n <= 2:
        yield (), render((), _tails(multisets))
        return
    rendered: dict[tuple[int, ...], object] = {}
    # each level is a prefix, its remaining multisets and the values still to step to
    levels = [((), multisets, _values(multisets))]
    while levels:
        head, multisets, values = levels[-1]
        value = next(values, None)
        if value is None:
            levels.pop()
            continue
        prefix = (*head, value)
        if len(prefix) < n - 2:
            remaining = _without(multisets, value)
            levels.append((prefix, remaining, _values(remaining)))
            continue
        key = tuple(sorted(prefix))
        if key not in rendered:
            rendered[key] = render(key, _tails(_without(multisets, value)))
        yield prefix, rendered[key]


def _values(multisets) -> Iterator[int]:
    """Each value the multisets hold, ascending."""
    return iter(sorted({v for multiset in multisets for v in multiset}))


def _without(multisets, value) -> list[tuple[int, ...]]:
    """The sorted multisets that hold value, less one copy of it."""
    return [
        multiset[:i] + multiset[i + 1 :]
        for multiset in multisets
        if value in multiset
        for i in (multiset.index(value),)
    ]


def _tails(multisets) -> list[tuple[int, ...]]:
    """The orbits of sorted multisets of at most two coordinates, merged in lexicographic order."""
    tails = multisets + [turned for multiset in multisets if (turned := multiset[::-1]) != multiset]
    tails.sort()
    return tails
