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
copy.  The inverse walks the lifts of the sorted parking function at a
member's n totals by the same argument, read backwards, and builds one.
The quotient class of a point is canonicalized by subtracting its last
coordinate from every entry and reducing modulo mn+1, so class
representatives are the (mn+1)^(n-1) residue vectors ending in 0, and
``class_index`` numbers them.
"""

from __future__ import annotations

import math
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
    """The unique zonotope lattice point in the class of the parking function.

    With b the sorted values, M = mn+1 and A_t = b[t mod n] + M*(t // n),
    window t is (A_t, ..., A_{t+n-1}) less m*t: sorted, in the class, of total
    sum(b) + t.  Windows first to first+n-1, first = lo_ceil[n] - sum(b), are
    the class's points of spread below M at a member's n totals.  Let D_t(k) be
    window t's bottom-k sum and L(k) = tau*k - mk(n-k)/2 its bound, and read
    the cyclic argument of ``lattice_to_parking`` backwards.  As L(k) = L(j) +
    L(k-j) + mj(k-j) and, for j < k, D_{t+j}(k-j) = D_t(k) - D_t(j) - mj(k-j),
    a least k with D_t(k) < L(k) rules out windows t to t+k-1, and the walk
    moves ``best`` to t+k.  Window t+j's top-j sum is D_t(j) + j + mj(n-j),
    within its bound L(j) + j + mj(n-j) only if D_t(j) <= L(j); so each window
    after the last ``best``, whose D(j) >= L(j), is outside or on the boundary,
    which admissibility excludes.  So window ``best`` is the member; its spread
    is at most mn, so v lifts into [A_best, A_best + M), less m*best.
    """
    values = tuple(values)
    ascending = sorted(values)
    m, n = spec.m, spec.n
    if len(ascending) != n or not _parks(ascending, m):
        raise ValueError(f"{values} is not an ({m}, {n})-parking function")
    if not spec.admissible:
        raise NotAdmissibleError(f"tau = {spec.tau} is not admissible")
    modulus, lo_ceil = m * n + 1, spec.lo_ceil
    first = lo_ceil[n] - sum(ascending)
    # lifts[i] is A_t at t = i + n*quotient, and shift is m*t at i = best
    quotient, best = divmod(first, n)
    lifts = [value + modulus * q for q in range(quotient, quotient + 3) for value in ascending]
    shift, bottom = m * first, 0
    for i in range(best + 1, best + n):
        bottom += lifts[i - 1] - shift
        if bottom < lo_ceil[i - best]:
            best, shift, bottom = i, shift + m * (i - best), 0
    window = [lift - shift for lift in lifts[best : best + n]]
    if _locate_ascending(spec, window) is Location.OUTSIDE:
        raise RuntimeError(f"the lift of {values} is not a lattice point of the zonotope")
    low = lifts[best]
    return tuple([window[0] + (value - low) % modulus for value in values])


def orbit_to_dyck(rep) -> tuple[int, ...]:
    """Send a strictly increasing orbit representative to its Dyck path.

    Subtracts the staircase (0, 1, ..., n-1) entrywise.
    """
    rep = tuple(rep)
    if any(a >= b for a, b in zip(rep, rep[1:])):
        raise ValueError(f"representative must be strictly increasing: {rep}")
    return tuple(value - j for j, value in enumerate(rep))
