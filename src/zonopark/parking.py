"""Parking functions, Dyck paths and the lattice-point correspondence.

Integer points of the admissible shifted zonotope biject with (m, n)-parking
functions: both are fundamental domains of the tiling lattice
``(mn+1)Z^n + Z(1,...,1)``, so each class of the quotient holds exactly one
of each.  The map between them is a single cyclic shift
``x -> (x - s*1) mod (mn+1)``, with ``s`` found by Pollak's cyclic argument
and no lookup table: sort the residues r_0 <= ... <= r_{n-1} of x; the
shift that makes a parking function is ``s = r_k`` for the first k that
maximizes ``r_k - m*k``.  A query costs O(n log n).  The inverse lifts a
shifted parking function into the window of coordinates a member can have
and keeps the one lift in the zonotope.  A lift's coordinate sum fixes the
shift modulo mn+1, so only the at most n+1 shifts whose lift sum is a total
a member can have are tried.
The quotient class of a point is canonicalized by subtracting its last
coordinate from every entry and reducing modulo mn+1, so class
representatives are the (mn+1)^(n-1) residue vectors ending in 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain

from .orbits import iter_orbit
from .zonotope import Location, NotAdmissibleError, ZonotopeSpec, contains


def is_parking_function(values, m: int, n: int) -> bool:
    """True iff the weakly increasing rearrangement a satisfies a_j <= m(j-1)."""
    ascending = sorted(values)
    return len(ascending) == n and all(0 <= v <= m * j for j, v in enumerate(ascending))


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

    The sorted orbits of the weakly increasing ones; ``merge_orbits`` streams them.
    """
    return sorted(chain.from_iterable(map(iter_orbit, increasing_parking_functions(m, n))))


def enumerate_dyck_paths(m: int, n: int) -> list[tuple[int, ...]]:
    """Weakly increasing a with a_j <= (m-1)(j-1), in lexicographic order, as a list.

    They are the weakly increasing (m-1, n)-parking functions;
    ``increasing_parking_functions(m - 1, n)`` streams them.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return list(increasing_parking_functions(m - 1, n))


def fuss_catalan(m: int, n: int) -> int:
    """A_n(m, 1) = C(mn+1, n) / (mn+1), the count of (m, n)-Dyck paths."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return math.comb(m * n + 1, n) // (m * n + 1)


def canonical_class(x, m: int, n: int) -> tuple[int, ...]:
    """Canonical representative of x modulo (mn+1)Z^n + Z(1,...,1).

    Subtract x_n from every coordinate, then reduce modulo mn+1; the result
    always ends in 0 and determines the quotient class uniquely.
    """
    x = tuple(x)
    if len(x) != n:
        raise ValueError(f"expected a point of length {n}, got {len(x)}")
    modulus = m * n + 1
    last = x[-1]
    return tuple((value - last) % modulus for value in x)


def lattice_to_parking(x, spec: ZonotopeSpec) -> tuple[int, ...]:
    """The unique parking function in the same quotient class as x.

    The shift depends only on the multiset of coordinates, so the image of a
    permuted point is the same permutation of the image.  The ``bijection``
    command therefore calls this once per orbit, on the weakly decreasing
    representative, and relabels the coordinates of the orbit's points.
    """
    if not spec.is_admissible():
        raise NotAdmissibleError(f"tau = {spec.tau} is not admissible")
    x = tuple(x)
    if contains(spec, x) is Location.OUTSIDE:
        raise ValueError(f"{x} is not a lattice point of the zonotope")
    m, n = spec.m, spec.n
    modulus = m * n + 1
    residues = sorted(value % modulus for value in x)
    excess = [r - m * k for k, r in enumerate(residues)]
    # the cyclic lemma picks the first maximizer, which index() returns
    shift = residues[excess.index(max(excess))]
    values = tuple((value - shift) % modulus for value in x)
    if not is_parking_function(values, m, n):
        raise RuntimeError(f"the cyclic shift of {x} is not a parking function: {values}")
    return values


def parking_to_lattice(values, spec: ZonotopeSpec) -> tuple[int, ...]:
    """The unique zonotope lattice point in the class of the parking function."""
    values = tuple(values)
    if not is_parking_function(values, spec.m, spec.n):
        raise ValueError(f"{values} is not an ({spec.m}, {spec.n})-parking function")
    if not spec.is_admissible():
        raise NotAdmissibleError(f"tau = {spec.tau} is not admissible")
    n = spec.n
    modulus = spec.m * n + 1
    # every coordinate of a member lies in [low, low + mn], where each
    # residue has exactly one lift
    low = spec.lo_ceil[1]
    # the lift shifted by s has coordinate sum == sum(values) - n*s
    # (mod mn+1), and n is invertible mod mn+1, so each total a member can
    # have fixes the one shift that could reach it
    inverse = pow(n, -1, modulus)
    value_sum = sum(values)
    found = []
    for total in range(spec.lo_ceil[n], spec.up_floor[n] + 1):
        shift = (value_sum - total) * inverse % modulus
        lift = tuple(low + (value - shift - low) % modulus for value in values)
        if sum(lift) == total and contains(spec, lift) is not Location.OUTSIDE:
            found.append(lift)
    if len(found) != 1:
        raise RuntimeError(f"{len(found)} lattice points in the class of {values}")
    return found[0]


def orbit_to_dyck(rep) -> tuple[int, ...]:
    """Send a strictly increasing orbit representative to its Dyck path.

    Subtracts the staircase (0, 1, ..., n-1) entrywise.
    """
    rep = tuple(rep)
    if any(a >= b for a, b in zip(rep, rep[1:])):
        raise ValueError(f"representative must be strictly increasing: {rep}")
    return tuple(value - j for j, value in enumerate(rep))
