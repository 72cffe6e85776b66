"""Independent brute-force reference implementations used by the tests.

Nothing here shares code with the library paths it checks: membership is
re-derived from the full subset-sum half-space description and (for n = 2)
from an exact convex-hull vertex description; the lattice-point /
parking-function bijection is rebuilt as class tables from the full-window
scan and from every vector filtered by the parking condition; spanning
trees are counted by raw edge-subset enumeration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from zonopark.scalars import as_eps_rational


def _subset_bounds(m: int, n: int, tau):
    """(k, lower, upper) for every subset size k, exact and eps-aware.

    Listed from k = n down: the single full-sum constraint rejects most of
    a scan window at once, and the order does not change any location.
    """
    tau = as_eps_rational(tau)
    bounds = []
    for k in range(n, 0, -1):
        half = Fraction(m * k * (n - k), 2)
        bounds.append((k, tau * k - half, tau * k + (half + k)))
    return bounds


def _locate(bounds, n: int, x) -> str:
    tight = False
    for k, lower, upper in bounds:
        for subset in combinations(range(n), k):
            s = sum(x[i] for i in subset)
            if s > upper or s < lower:
                return "outside"
            if s == upper or s == lower:
                tight = True
    return "boundary" if tight else "interior"


def subset_location(m: int, n: int, tau, x) -> str:
    """Classify x against every subset-sum constraint (exact, eps-aware)."""
    return _locate(_subset_bounds(m, n, tau), n, x)


def grid_points(m: int, n: int, tau, window) -> list[tuple[int, ...]]:
    """Full-window scan filtered by the subset-sum oracle."""
    lo, hi = window
    bounds = _subset_bounds(m, n, tau)
    return [
        x
        for x in product(range(lo, hi + 1), repeat=n)
        if _locate(bounds, n, x) != "outside"
    ]


def block_constant_points(points, blocks) -> list[tuple[int, ...]]:
    """The points whose coordinates agree within every block (1-based)."""
    return [
        p for p in points if all(len({p[i - 1] for i in block}) == 1 for block in blocks)
    ]


def coordinate_window(m: int, n: int, tau) -> tuple[int, int]:
    """Integer range holding every coordinate of a member: the k = 1 bounds."""
    tau = as_eps_rational(tau)
    half = Fraction(m * (n - 1), 2)
    return math.floor(tau - half), math.ceil(tau + (half + 1))


def parking_functions_brute(m: int, n: int) -> list[tuple[int, ...]]:
    """(m, n)-parking functions by filtering every vector over 0..m(n-1)."""
    return [
        a
        for a in product(range(m * (n - 1) + 1), repeat=n)
        if all(v <= m * j for j, v in enumerate(sorted(a)))
    ]


def bijection_tables(m: int, n: int, tau):
    """The lattice-point / parking-function bijection as two lookup tables.

    Pairs each grid point of the zonotope with the parking function in its
    class of Z^n / ((mn+1)Z^n + Z(1,...,1)); the class of v is v minus its
    last coordinate, reduced modulo mn+1.
    """
    modulus = m * n + 1

    def class_of(v):
        return tuple((value - v[-1]) % modulus for value in v)

    parking = {class_of(a): a for a in parking_functions_brute(m, n)}
    points = grid_points(m, n, tau, coordinate_window(m, n, tau))
    forward = {x: parking[class_of(x)] for x in points}
    backward = {a: x for x, a in forward.items()}
    return forward, backward


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_location_2d(m: int, tau, x, delta=Fraction(1, 10**9)) -> str:
    """Exact point location in the n = 2 zonotope built from its vertices.

    The zonotope is the convex hull of all endpoint sums of its defining
    segments.  An infinitesimal eps component of tau is replaced by a tiny
    exact rational delta; for the integral query points used in tests this
    cannot flip any comparison (rational gaps are far larger than delta)
    while reproducing the one-sided behaviour of eps exactly.
    """
    tau = as_eps_rational(tau)
    tau0 = tau.base + tau.eps_coeff * delta
    half = Fraction(m, 2)
    segments = [(1, 0), (0, 1), (half, -half), (-half, half)]
    corners = []
    for picks in product((0, 1), repeat=len(segments)):
        px = tau0 + sum(s[0] for s, b in zip(segments, picks) if b)
        py = tau0 + sum(s[1] for s, b in zip(segments, picks) if b)
        corners.append((px, py))
    hull = _convex_hull(corners)
    signs = [
        _cross(hull[i], hull[(i + 1) % len(hull)], x) for i in range(len(hull))
    ]
    if any(s < 0 for s in signs):
        return "outside"
    if any(s == 0 for s in signs):
        return "boundary"
    return "interior"


def spanning_trees_brute(graph) -> int:
    """Count spanning trees by enumerating all (V-1)-edge subsets."""
    edges = []
    size = graph.order
    for i in range(size):
        for j in range(i + 1, size):
            edges.extend([(i, j)] * graph.mult[i][j])
    count = 0
    for subset in combinations(range(len(edges)), size - 1):
        parent = list(range(size))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        for idx in subset:
            a, b = (find(v) for v in edges[idx])
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            count += 1
    return count


def falling_factorial_form(n: int, x: int) -> Fraction:
    """(x-1)(x-2)...(x-(n-1)) / n!"""
    return Fraction(math.prod(x - j for j in range(1, n)), math.factorial(n))
