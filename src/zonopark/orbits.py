"""Coordinate-permutation (S_n) utilities: orbits, stabilizers, partitions.

``prefix_groups`` is the one orbit walk: it yields the points of the orbits
one prefix group at a time.  ``merge_orbits`` flattens it into points, and
every command and check that expands orbits streams them from one of the
two; ``orbit_of`` is the one-orbit list.
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
    coordinates in any order, but all of one length.
    """
    for prefix, multisets in prefix_groups(reps):
        yield from map(prefix.__add__, _tails(multisets))


def prefix_groups(reps) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The points of the orbits of reps as ``(prefix, multisets)`` groups, in lexicographic order.

    A prefix walk.  The points that start with a given prefix are the
    orbits of what the representatives have left once the prefix's values
    are taken out of them.  So from each prefix the walk steps, in
    ascending order, to each value those remaining multisets hold, keeping
    the multisets that hold it, less one copy of it.  With two coordinates
    left the walk is at a leaf, of prefix length max(n - 2, 0), and yields
    the prefix with its remaining sorted multisets, one per orbit that has
    points there.  The group's points are the prefix followed by each of
    ``_tails(multisets)``: a multiset {a, b} ends its points in (a, b) and
    (b, a).  No prefix repeats.

    It holds, on each of at most n - 2 levels, one list of remaining
    multisets, at most one per representative, so its memory is
    O(n * #representatives).  It never holds the points.  A group's
    multisets depend only on the sorted prefix, which first occurs as
    itself and then once per other arrangement of its values, so a
    renderer may render each sorted prefix's tails once.  Each tail is one
    representative less two coordinates, so the three orbit commands,
    which keep those renderings for their call, hold
    O(n^2 * #representatives).
    """
    multisets = [tuple(sorted(rep)) for rep in reps]
    if not multisets:
        return
    n = len(multisets[0])
    if any(len(multiset) != n for multiset in multisets):
        raise ValueError("representatives must all have the same length")
    # each level is a prefix and its branches still to walk
    levels: list[tuple[tuple[int, ...], Iterator]] = []
    prefix: tuple[int, ...] = ()
    while True:
        if n - len(prefix) > 2:
            levels.append((prefix, _branches(multisets)))
        else:
            yield prefix, multisets
        # the next prefix is the next branch of the deepest level that has one
        while levels:
            head, branches = levels[-1]
            step = next(branches, None)
            if step is not None:
                break
            levels.pop()
        else:
            return
        value, multisets = step
        prefix = (*head, value)


def _branches(multisets) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """Each value the sorted multisets hold, ascending, with those that hold it, less it."""
    for value in sorted({v for multiset in multisets for v in multiset}):
        yield value, [
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
