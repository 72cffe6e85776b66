"""Parking functions, Dyck paths and the lattice-point correspondence.

Integer points of the admissible shifted zonotope biject with (m, n)-parking
functions: both are fundamental domains of the tiling lattice
``(mn+1)Z^n + Z(1,...,1)``, so each class of the quotient holds exactly one
of each.  The map between them is a single cyclic shift
``x -> (x - s*1) mod (mn+1)``, with ``s`` found by Pollak's cyclic argument
and no lookup table.  A member's coordinates differ by at most mn, so its
ascending coordinates a_0 <= ... <= a_{n-1} are lifts of its sorted
residues, rotated, and the shift that makes a parking function is
``s = a_k`` for the first k that maximizes ``a_k - m*k``; the image, sorted,
is the ascending coordinates rotated to start at k.  A query sorts x once,
and the membership test, the shift and the parking check all read that
copy.  The inverse lifts a shifted parking function into the window of
coordinates a member can have and keeps the one lift in the zonotope.
Sorted, each lift is the sorted parking function rotated at a cut, so its
coordinate sum is read off the cut.  That sum fixes the shift modulo mn+1,
so of the at most n+1 shifts whose lift sum is a total a member can have,
only those whose sum matches, about two, are built and tested.
The quotient class of a point is canonicalized by subtracting its last
coordinate from every entry and reducing modulo mn+1, so class
representatives are the (mn+1)^(n-1) residue vectors ending in 0, and
``class_index`` numbers them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator

from .orbits import merge_orbits
from .zonotope import Location, NotAdmissibleError, ZonotopeSpec, _locate_ascending


def is_parking_function(values, m: int, n: int) -> bool:
    """True iff the weakly increasing rearrangement a satisfies a_j <= m(j-1)."""
    ascending = sorted(values)
    return len(ascending) == n and _parks(ascending, m)


def _parks(ascending, m: int) -> bool:
    """The parking condition on values already in weakly increasing order."""
    bound = 0
    for value in ascending:
        if not 0 <= value <= bound:
            return False
        bound += m
    return True


def increasing_parking_functions(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the weakly increasing a with 0 <= a_j <= m(j-1), one per orbit, lazily in lexicographic order."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    values = [0] * n
    while True:
        yield tuple(values)
        # the rightmost entry below its bound grows, and every entry after it follows
        j = n - 1
        while j >= 0 and values[j] >= m * j:
            j -= 1
        if j < 0:
            return
        values[j:] = [values[j] + 1] * (n - j)


def enumerate_parking_functions(m: int, n: int) -> list[tuple[int, ...]]:
    """All (m, n)-parking functions in lexicographic order.

    ``merge_orbits(increasing_parking_functions(m, n))`` streams the same functions.
    """
    return list(merge_orbits(increasing_parking_functions(m, n)))


def fuss_catalan(m: int, n: int) -> int:
    """A_n(m, 1) = C(mn+1, n) / (mn+1), the count of (m, n)-Dyck paths."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return math.comb(m * n + 1, n) // (m * n + 1)


def class_index(x, m: int, n: int) -> int:
    """The index, in range((mn+1)^(n-1)), of the class of x modulo (mn+1)Z^n + Z(1,...,1).

    Subtract x_n from every coordinate and reduce modulo mn+1: the result
    ends in 0 and determines the class, and its other residues, read as
    base-(mn+1) digits, most significant first, are the index.
    """
    x = tuple(x)
    if len(x) != n:
        raise ValueError(f"expected a point of length {n}, got {len(x)}")
    modulus = m * n + 1
    last = x[-1]
    index = 0
    for value in x[:-1]:
        index = index * modulus + (value - last) % modulus
    return index


def lattice_to_parking(x, spec: ZonotopeSpec) -> tuple[int, ...]:
    """The unique parking function in the same quotient class as x.

    The shift depends only on the multiset of coordinates, so the image of a
    permuted point is the same permutation of the image.  The ``bijection``
    command therefore calls this once per orbit, on the weakly decreasing
    representative, and relabels the coordinates of the orbit's points.
    """
    if not spec.admissible:
        raise NotAdmissibleError(f"tau = {spec.tau} is not admissible")
    x = tuple(x)
    ascending = sorted(x)
    if _locate_ascending(spec, ascending) is Location.OUTSIDE:
        raise ValueError(f"{x} is not a lattice point of the zonotope")
    m, n = spec.m, spec.n
    modulus = m * n + 1
    # a member's coordinates differ by at most mn, so the cyclic lemma's first
    # maximizer of value - m*k is read off the ascending coordinates as well
    # as off the sorted residues they lift
    start, top = 0, ascending[0]
    for k in range(1, n):
        excess = ascending[k] - m * k
        if excess > top:
            start, top = k, excess
    shift = ascending[start]
    values = tuple([(value - shift) % modulus for value in x])
    # the image, sorted, is the ascending coordinates rotated to the shift
    image = [(value - shift) % modulus for value in ascending[start:] + ascending[:start]]
    if not _parks(image, m):
        raise RuntimeError(f"the cyclic shift of {x} is not a parking function: {values}")
    return values


def parking_to_lattice(values, spec: ZonotopeSpec) -> tuple[int, ...]:
    """The unique zonotope lattice point in the class of the parking function."""
    values = tuple(values)
    ascending = sorted(values)
    m, n = spec.m, spec.n
    if len(ascending) != n or not _parks(ascending, m):
        raise ValueError(f"{values} is not an ({m}, {n})-parking function")
    if not spec.admissible:
        raise NotAdmissibleError(f"tau = {spec.tau} is not admissible")
    modulus = m * n + 1
    # every coordinate of a member lies in [low, low + mn], where each
    # residue has exactly one lift
    low = spec.lo_ceil[1]
    # the lift shifted by s has coordinate sum == sum(values) - n*s
    # (mod mn+1), and -m is the inverse of n mod mn+1, so each total a
    # member can have fixes the one shift m*(total - sum(values)) that
    # could reach it
    value_sum = sum(values)
    found = []
    for total in range(spec.lo_ceil[n], spec.up_floor[n] + 1):
        # with cut = (shift + low) mod (mn+1) the lift maps a value v to
        # low + v - cut, plus mn+1 when v < cut, so sorted it is the
        # ascending values rotated to start at the first value >= cut, and
        # its sum needs no tuple
        cut = (m * (total - value_sum) + low) % modulus
        wrap = bisect_left(ascending, cut)
        if value_sum + n * (low - cut) + wrap * modulus != total:
            continue
        lift = [low + (v - cut) % modulus for v in ascending[wrap:] + ascending[:wrap]]
        if _locate_ascending(spec, lift) is not Location.OUTSIDE:
            found.append(cut)
    if len(found) != 1:
        raise RuntimeError(f"{len(found)} lattice points in the class of {values}")
    cut = found[0]
    return tuple([low + (value - cut) % modulus for value in values])


def orbit_to_dyck(rep) -> tuple[int, ...]:
    """Send a strictly increasing orbit representative to its Dyck path.

    Subtracts the staircase (0, 1, ..., n-1) entrywise.
    """
    rep = tuple(rep)
    if any(a >= b for a, b in zip(rep, rep[1:])):
        raise ValueError(f"representative must be strictly increasing: {rep}")
    return tuple(value - j for j, value in enumerate(rep))
