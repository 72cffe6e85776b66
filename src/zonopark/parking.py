"""Parking functions, Dyck paths and the lattice-point correspondence.

Integer points of the admissible shifted zonotope biject with (m, n)-parking
functions: both inject into the quotient of Z^n by the tiling lattice
``(mn+1)Z^n + Z(1,...,1)`` and hit every class exactly once.  The quotient
class of a point is canonicalized by subtracting its last coordinate from
every entry and reducing modulo mn+1, so class representatives are the
(mn+1)^(n-1) residue vectors ending in 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .zonotope import (
    Location,
    NotAdmissibleError,
    ZonotopeSpec,
    contains,
    enumerate_lattice_points,
)


def is_parking_function(values, m: int, n: int) -> bool:
    """True iff the weakly increasing rearrangement a satisfies a_j <= m(j-1)."""
    values = tuple(values)
    if len(values) != n:
        return False
    if any(v < 0 for v in values):
        return False
    return all(v <= m * j for j, v in enumerate(sorted(values)))


def enumerate_parking_functions(m: int, n: int) -> list[tuple[int, ...]]:
    """All (m, n)-parking functions in lexicographic order."""
    window = range(m * (n - 1) + 1)
    return [a for a in product(window, repeat=n) if is_parking_function(a, m, n)]


def enumerate_dyck_paths(m: int, n: int) -> list[tuple[int, ...]]:
    """Weakly increasing a with a_j <= (m-1)(j-1), in lexicographic order."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    paths: list[tuple[int, ...]] = []
    path: list[int] = []

    def extend(j: int):
        if j == n:
            paths.append(tuple(path))
            return
        start = path[-1] if path else 0
        for value in range(start, (m - 1) * j + 1):
            path.append(value)
            extend(j + 1)
            path.pop()

    extend(0)
    return paths


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


@lru_cache(maxsize=None)
def _parking_by_class(m: int, n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    index: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a in enumerate_parking_functions(m, n):
        key = canonical_class(a, m, n)
        if key in index:
            raise RuntimeError("parking functions must have distinct classes")
        index[key] = a
    if len(index) != (m * n + 1) ** (n - 1):
        raise RuntimeError("parking functions must hit every class")
    return index


@lru_cache(maxsize=None)
def _lattice_by_class(spec: ZonotopeSpec) -> dict[tuple[int, ...], tuple[int, ...]]:
    if not spec.is_admissible():
        raise NotAdmissibleError(f"tau = {spec.tau} is not admissible")
    index: dict[tuple[int, ...], tuple[int, ...]] = {}
    for x in enumerate_lattice_points(spec):
        key = canonical_class(x, spec.m, spec.n)
        if key in index:
            raise RuntimeError("lattice points must have distinct classes")
        index[key] = x
    return index


def lattice_to_parking(x, spec: ZonotopeSpec) -> tuple[int, ...]:
    """The unique parking function in the same quotient class as x."""
    if not spec.is_admissible():
        raise NotAdmissibleError(f"tau = {spec.tau} is not admissible")
    x = tuple(x)
    if contains(spec, x) is Location.OUTSIDE:
        raise ValueError(f"{x} is not a lattice point of the zonotope")
    return _parking_by_class(spec.m, spec.n)[canonical_class(x, spec.m, spec.n)]


def parking_to_lattice(values, spec: ZonotopeSpec) -> tuple[int, ...]:
    """The unique zonotope lattice point in the class of the parking function."""
    values = tuple(values)
    if not is_parking_function(values, spec.m, spec.n):
        raise ValueError(f"{values} is not an ({spec.m}, {spec.n})-parking function")
    index = _lattice_by_class(spec)
    return index[canonical_class(values, spec.m, spec.n)]


def orbit_to_dyck(rep) -> tuple[int, ...]:
    """Send a strictly increasing orbit representative to its Dyck path.

    Subtracts the staircase (0, 1, ..., n-1) entrywise.
    """
    rep = tuple(rep)
    if any(a >= b for a, b in zip(rep, rep[1:])):
        raise ValueError(f"representative must be strictly increasing: {rep}")
    return tuple(value - j for j, value in enumerate(rep))
