"""Spanning-tree counting and Mobius inversion over set partitions.

The companion multigraph of the zonotope has vertices {0, 1, ..., n} with m
parallel edges between every pair of distinct vertices in 1..n and a single
edge from the ground vertex 0 to each other vertex.  Its spanning trees are
counted exactly by a Laplacian cofactor (Kirchhoff), evaluated with
fraction-free integer elimination so every intermediate value stays an
arbitrary-precision integer.  Contracting the non-ground vertices along a
set partition and applying Mobius inversion on the partition lattice turns
these counts into the number of regular coordinate-permutation orbits; the
inversion is summed over block-size types, since both the Mobius value and
the contracted tree count depend only on the block sizes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations

from .orbits import normalize_partition

Partition = tuple[tuple[int, ...], ...]


class MultiGraph:
    """Undirected multigraph given by a symmetric multiplicity matrix.

    Vertex 0 is the distinguished ground vertex.  Loops are not stored; the
    diagonal is zero.  A graph is immutable and compares and hashes by
    ``mult``.
    """

    __slots__ = ("mult",)

    def __init__(self, mult: tuple[tuple[int, ...], ...]):
        size = len(mult)
        for row in mult:
            if len(row) != size:
                raise ValueError("multiplicity matrix must be square")
        for i in range(size):
            if mult[i][i] != 0:
                raise ValueError("loops are not allowed")
            for j in range(size):
                if mult[i][j] != mult[j][i] or mult[i][j] < 0:
                    raise ValueError("multiplicities must be symmetric and >= 0")
        object.__setattr__(self, "mult", mult)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mult == other.mult

    def __hash__(self):
        return hash((self.mult,))

    def __repr__(self):
        return f"MultiGraph(mult={self.mult!r})"

    @property
    def order(self) -> int:
        return len(self.mult)


def build_graph(m: int, n: int) -> MultiGraph:
    """The graph on {0..n}: m edges inside 1..n pairwise, one edge 0-i each."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    size = n + 1
    mult = [[0] * size for _ in range(size)]
    for i in range(1, size):
        mult[0][i] = mult[i][0] = 1
        for j in range(i + 1, size):
            mult[i][j] = mult[j][i] = m
    return MultiGraph(tuple(tuple(row) for row in mult))


def contract(g: MultiGraph, partition) -> MultiGraph:
    """Contract each partition block of the non-ground vertices to a point.

    Vertex 0 is never contracted.  Multiplicities add up across blocks and
    intra-block edges are dropped.
    """
    blocks = normalize_partition(partition, g.order - 1)
    groups: list[tuple[int, ...]] = [(0,)] + [b for b in blocks]
    size = len(groups)
    mult = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            total = sum(g.mult[i][j] for i in groups[a] for j in groups[b])
            mult[a][b] = mult[b][a] = total
    return MultiGraph(tuple(tuple(row) for row in mult))


def determinant(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Bareiss one-step elimination: every intermediate entry is an integer
    (each division is exact).  Pivoting takes the first nonzero entry in the
    column, frozen for determinism; a zero column means determinant 0.
    """
    a = [list(row) for row in rows]
    size = len(a)
    for row in a:
        if len(row) != size:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def laplacian(g: MultiGraph) -> list[list[int]]:
    """Degree matrix minus multiplicity matrix; rows sum to zero."""
    size = g.order
    lap = [[-g.mult[i][j] for j in range(size)] for i in range(size)]
    for i in range(size):
        lap[i][i] = sum(g.mult[i])
    return lap


def spanning_tree_count(g: MultiGraph) -> int:
    """Number of spanning trees: the ground-vertex cofactor of the Laplacian.

    All cofactors agree up to sign; the ground row and column are deleted
    and the absolute value returned.  Disconnected graphs give 0.
    """
    lap = laplacian(g)
    minor = [row[1:] for row in lap[1:]]
    return abs(determinant(minor))


def contracted_count_closed_form(m: int, n: int, partition) -> int:
    """Closed form n_1 * ... * n_t * (mn+1)^(t-1) for the contracted graph."""
    blocks = normalize_partition(partition, n)
    t = len(blocks)
    return math.prod(len(b) for b in blocks) * (m * n + 1) ** (t - 1)


def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All set partitions of {1, ..., n} in canonical (lexicographic) order."""
    if n < 1:
        raise ValueError("n must be positive")
    found: list[Partition] = []
    _place(found, [], 1, n)
    found.sort()
    return tuple(found)


def _place(found: list[Partition], blocks: list[list[int]], i: int, n: int) -> None:
    """Append each partition that adds i, ..., n to ``blocks``, one element at a time.

    A module-level function, so that no closure cycle keeps ``found`` alive
    after the enumeration.
    """
    if i > n:
        found.append(tuple(tuple(b) for b in blocks))
        return
    for block in blocks:
        block.append(i)
        _place(found, blocks, i + 1, n)
        block.pop()
    blocks.append([i])
    _place(found, blocks, i + 1, n)
    blocks.pop()


def mobius(partition) -> int:
    """Mobius value (-1)^(n-t) * prod (|block|-1)! on the partition lattice."""
    blocks = tuple(tuple(b) for b in partition)
    n = sum(len(b) for b in blocks)
    value = math.prod(math.factorial(len(b) - 1) for b in blocks)
    return value if (n - len(blocks)) % 2 == 0 else -value


def partition_types(n: int) -> Iterator[tuple[Partition, int]]:
    """One canonical set partition per block-size type, with the type's size.

    For each integer partition lambda_1 >= lambda_2 >= ... of n, yields the
    set partition {1..lambda_1}, {lambda_1+1..lambda_1+lambda_2}, ... and
    the number n! / (prod lambda_i! * prod_j mult_j!) of set partitions of
    {1, ..., n} whose block sizes are lambda, where mult_j counts the parts
    equal to j.  Types come in reverse lexicographic order of lambda.
    """
    if n < 1:
        raise ValueError("n must be positive")
    yield from _types(n, [], n, n)


def _types(n: int, parts: list[int], rest: int, largest: int) -> Iterator[tuple[Partition, int]]:
    """The types that extend ``parts`` by parts of at most ``largest`` adding up to ``rest``.

    A module-level function, so that no closure cycle outlives the walk.
    """
    if rest == 0:
        blocks = []
        start = 1
        for size in parts:
            blocks.append(tuple(range(start, start + size)))
            start += size
        count = math.factorial(n) // (
            math.prod(map(math.factorial, parts))
            * math.prod(map(math.factorial, Counter(parts).values()))
        )
        yield tuple(blocks), count
        return
    for size in range(min(rest, largest), 0, -1):
        parts.append(size)
        yield from _types(n, parts, rest - size, size)
        parts.pop()


def regular_orbit_count_mobius(m: int, n: int) -> int:
    """Count of regular orbits by Mobius inversion over contracted tree counts.

    Evaluates (1/n!) * sum over set partitions S of
    mobius(S) * #spanning trees(G/S) / prod |block|, exactly.  Every term
    depends only on the block sizes of S, so the sum runs over the p(n)
    block-size types: one Kirchhoff cofactor per type, weighted by the
    number of set partitions of that type.  A non-integral result raises
    ArithmeticError.
    """
    g = build_graph(m, n)
    total = Fraction(0)
    for partition, count in partition_types(n):
        trees = spanning_tree_count(contract(g, partition))
        weight = math.prod(len(b) for b in partition)
        total += Fraction(count * mobius(partition) * trees, weight)
    total /= math.factorial(n)
    if total.denominator != 1:
        raise ArithmeticError(f"orbit count came out non-integral: {total}")
    return int(total)


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def composition_sum(n: int, x: int) -> Fraction:
    """(-1)^n * sum over compositions of (-1)^t x^(t-1) / (t! * n_1*...*n_t).

    Equals the falling-factorial product (x-1)(x-2)...(x-(n-1)) / n!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = Fraction(0)
    for comp in compositions(n):
        t = len(comp)
        denominator = math.factorial(t) * math.prod(comp)
        total += Fraction((-1) ** t * x ** (t - 1), denominator)
    return total if n % 2 == 0 else -total


VOLUME_BY_BASES_MAX_N = 6


def volume_by_bases(m: int, n: int) -> int:
    """Lattice volume as the determinant-weighted count of vector bases.

    The generating multiset holds m copies of e_i - e_j for every pair
    j < i plus each e_i once; every n-element subset with nonzero
    determinant contributes |det| (here always 1).  A subset that repeats
    a vector has determinant 0, so the sum runs over n-subsets of the
    distinct vectors, each weighted by m^(number of e_i - e_j it holds):
    the ways to pick one copy of each.  Guarded to
    n <= VOLUME_BY_BASES_MAX_N, beyond which the subset count explodes.
    """
    if n > VOLUME_BY_BASES_MAX_N:
        raise ValueError(f"volume_by_bases is limited to n <= {VOLUME_BY_BASES_MAX_N}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    # (vector, number of copies in the multiset)
    vectors: list[tuple[tuple[int, ...], int]] = []
    for i in range(1, n + 1):
        for j in range(1, i):
            v = [0] * n
            v[i - 1] = 1
            v[j - 1] = -1
            vectors.append((tuple(v), m))
    for i in range(n):
        e = [0] * n
        e[i] = 1
        vectors.append((tuple(e), 1))
    total = 0
    for subset in combinations(vectors, n):
        det = determinant([v for v, _ in subset])
        total += abs(det) * math.prod(copies for _, copies in subset)
    return total
