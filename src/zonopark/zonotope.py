"""Membership and exact lattice-point enumeration for the shifted zonotope

    Z(m, n, tau) = tau*(1,...,1) + sum_i [0, e_i]
                   + sum_{i < j} [0, (m/2)(e_i - e_j)] + [0, (m/2)(e_j - e_i)].

The body is invariant under coordinate permutations, so its supporting
half-spaces come in n families: for k = 1..n the sum of any k coordinates is
pinched between ``tau*k - m*k*(n-k)/2`` and ``tau*k + m*k*(n-k)/2 + k``, and
for a fixed k the extreme subset sums of a point are its top-k and bottom-k
sorted sums.  Everything below works in exact arithmetic on those 2n
constraints; the shift tau may carry an infinitesimal component.  Any
m >= 0 is allowed: m = 0 leaves only the unit cube tau*(1,...,1) + [0,1]^n.

The member points are the coordinate orbits of the dominant (weakly
decreasing) ones.  ``dominant_points`` is the one scan of those: it fixes
the coordinate total (the color) and lists that color's points.
``spec.representatives`` is its scans over every color, colors ascending.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby

from .orbits import merge_orbits, normalize_partition, orbit_size
from .scalars import EpsRational, as_eps_rational


class Location(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class NotAdmissibleError(ValueError):
    """The shift parameter puts lattice points on the boundary."""


class ZonotopeSpec:
    """The triple (m, n, tau) defining the shifted zonotope, m >= 0, n >= 1.

    Construction also fixes the per-k integer thresholds for membership of
    integer points and the admissibility flag, so that queries never go
    back to exact ``EpsRational`` arithmetic.  For an integer sum T,
    ``T > upper`` iff ``T > floor(upper)``, and ``T == upper`` is only
    possible when ``upper`` is itself an integer; dually for the lower
    bounds.  ``lo_ceil``, ``lo_tight``, ``up_floor`` and ``up_tight`` are
    indexed by k (index 0 unused).  ``admissible`` is the one accessor of
    ``is_admissible(m, n, tau)`` for the spec.  These fields are derived
    from (m, n, tau), so equality, hashing and the repr ignore them.  A
    spec is immutable: assigning or deleting a field raises
    ``AttributeError``.
    """

    m: int
    n: int
    tau: EpsRational
    lo_ceil: tuple[int, ...]
    lo_tight: tuple[bool, ...]
    up_floor: tuple[int, ...]
    up_tight: tuple[bool, ...]
    admissible: bool

    def __init__(self, m: int, n: int, tau):
        if m < 0 or n < 1:
            raise ValueError("m must be a non-negative and n a positive integer")
        fields = self.__dict__
        fields.update(m=m, n=n, tau=as_eps_rational(tau))
        lo_ceil, lo_tight, up_floor, up_tight = [0], [False], [0], [False]
        for k in range(1, n + 1):
            bounds = support_bounds(self, k)
            lo_ceil.append(math.ceil(bounds.lower))
            lo_tight.append(bounds.lower.is_integer())
            up_floor.append(math.floor(bounds.upper))
            up_tight.append(bounds.upper.is_integer())
        fields.update(
            lo_ceil=tuple(lo_ceil),
            lo_tight=tuple(lo_tight),
            up_floor=tuple(up_floor),
            up_tight=tuple(up_tight),
            admissible=is_admissible(m, n, self.tau),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.n, self.tau) == (other.m, other.n, other.tau)

    def __hash__(self):
        return hash((self.m, self.n, self.tau))

    def __repr__(self):
        return f"ZonotopeSpec(m={self.m!r}, n={self.n!r}, tau={self.tau!r})"

    @cached_property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        """All weakly decreasing member tuples (boundary included), by total, then lex.

        They are the sorted representatives of the member points: the
        ``dominant_points`` of each color, colors ascending.  The scans run
        on first use and their result lives as long as the spec does.
        """
        colors = range(self.lo_ceil[self.n], self.up_floor[self.n] + 1)
        return tuple(chain.from_iterable(dominant_points(self, color) for color in colors))


class SupportBounds(namedtuple("SupportBounds", "k lower upper")):
    """Exact bounds on the sum of any k coordinates of a member point."""

    __slots__ = ()


def support_bounds(spec: ZonotopeSpec, k: int) -> SupportBounds:
    """Support values in direction of a 0/1 vector with k ones.

    upper = tau*k + m*k*(n-k)/2 + k,  lower = tau*k - m*k*(n-k)/2.
    """
    if not 1 <= k <= spec.n:
        raise ValueError(f"k must be in 1..{spec.n}, got {k}")
    half_width = Fraction(spec.m * k * (spec.n - k), 2)
    upper = spec.tau * k + (half_width + k)
    lower = spec.tau * k - half_width
    return SupportBounds(k=k, lower=lower, upper=upper)


def is_admissible(m: int, n: int, tau) -> bool:
    """True iff no integer point can lie on the boundary of Z(m, n, tau).

    A rational tau is admissible iff tau - m(n-1)/2 has denominator > n in
    lowest terms; a tau with an infinitesimal component always is.  For
    m = 0 the unit cube has a boundary lattice point iff tau is an integer.
    """
    tau = as_eps_rational(tau)
    if tau.eps_coeff != 0:
        return True
    if m == 0:
        return tau.base.denominator != 1
    return (tau.base - Fraction(m * (n - 1), 2)).denominator > n


def contains(spec: ZonotopeSpec, x) -> Location:
    """Classify an integer point as interior, boundary or outside."""
    return _locate_ascending(spec, sorted(x))


def _locate_ascending(spec: ZonotopeSpec, ascending) -> Location:
    """Classify an integer point given by its coordinates in ascending order.

    The sum of any k coordinates lies between the bottom-k and the top-k sum,
    so only those two are tested against each k's thresholds.
    """
    n = spec.n
    if len(ascending) != n:
        raise ValueError(f"expected a point of length {n}, got {len(ascending)}")
    lo_ceil, lo_tight = spec.lo_ceil, spec.lo_tight
    up_floor, up_tight = spec.up_floor, spec.up_tight
    top = 0
    bottom = 0
    tight = False
    for k in range(1, n + 1):
        top += ascending[n - k]
        bottom += ascending[k - 1]
        if top > up_floor[k] or bottom < lo_ceil[k]:
            return Location.OUTSIDE
        if (up_tight[k] and top == up_floor[k]) or (lo_tight[k] and bottom == lo_ceil[k]):
            tight = True
    return Location.BOUNDARY if tight else Location.INTERIOR


def dominant_points(spec: ZonotopeSpec, color: int) -> list[tuple[int, ...]]:
    """The weakly decreasing member points (boundary included) of one color, lex order.

    The color is the coordinate sum, and each call scans that one total
    afresh.  For a weakly decreasing tuple the top-j sum is the prefix sum,
    and the bottom-k sum is the color minus a top-(n-k) sum, so every
    constraint caps a prefix sum: by ``up_floor[j]``, and by the color less
    the least the other n-j entries can add up to.  The scan fixes one
    coordinate at a time over the range of values that keeps those caps
    and the color reachable, so every leaf it reaches is a member.
    """
    n = spec.n
    lo_ceil, up_floor = spec.lo_ceil, spec.up_floor
    if not lo_ceil[n] <= color <= up_floor[n]:
        return []
    if n == 1:
        return [(color,)]
    lo1 = lo_ceil[1]
    # the bottom n-j entries add up to at least lo_ceil[n-j], and each is at least lo1
    cap = tuple(min(up_floor[j], color - max(lo_ceil[n - j], (n - j) * lo1)) for j in range(n + 1))
    out: list[tuple[int, ...]] = []
    _descend(out, (), n, 0, up_floor[1], color, lo1, cap)
    return out


def _descend(out, prefix, left, prefix_sum, last, total, lo1, cap) -> None:
    """Append the members that extend ``prefix`` by ``left >= 2`` more entries to ``total``.

    Each entry lies in one range, computed before its loop: at least lo1
    and enough for the remaining entries, none larger, to reach ``total``;
    at most the last entry and the prefix-sum cap.  The last entry is what
    the total leaves.  A module-level function, so that no closure cycle
    keeps ``out`` alive after the scan.
    """
    depth = len(prefix)
    low = max(lo1, -((prefix_sum - total) // left))
    high = min(last, cap[depth + 1] - prefix_sum)
    if left > 2:
        for value in range(low, high + 1):
            _descend(out, prefix + (value,), left - 1, prefix_sum + value, value, total, lo1, cap)
        return
    append = out.append
    for value in range(low, high + 1):
        append(prefix + (value, total - prefix_sum - value))


def enumerate_lattice_points(spec: ZonotopeSpec) -> list[tuple[int, ...]]:
    """All integer points of the zonotope (boundary included), lex order.

    ``merge_orbits(spec.representatives)`` streams the same points.
    """
    return list(merge_orbits(spec.representatives))


def count_lattice_points(spec: ZonotopeSpec) -> int:
    """|Z ∩ Z^n| via orbit sizes of the sorted representatives."""
    return sum(orbit_size(rep) for rep in spec.representatives)


def has_boundary_lattice_point(spec: ZonotopeSpec) -> bool:
    """True iff some integer point lies exactly on the boundary."""
    return any(
        contains(spec, rep) is Location.BOUNDARY for rep in spec.representatives
    )


def count_invariant_points(spec: ZonotopeSpec, partition) -> int:
    """Number of member points (boundary included) constant on every block.

    Such a point gives each block one value, and its sorted coordinates
    are one of the weakly decreasing representatives.  So the count is,
    summed over representatives, the number of ways to give each block one
    of the representative's distinct values such that the block sizes given
    each value add up to that value's multiplicity.  That number depends
    only on the representative's multiplicities, so representatives are
    tallied by their sorted multiplicities, and each type is counted once.
    """
    blocks = normalize_partition(partition, spec.n)
    sizes = sorted((len(b) for b in blocks), reverse=True)
    # equal values of a decreasing tuple are adjacent
    types = Counter(
        tuple(sorted(len(list(run)) for _, run in groupby(rep))) for rep in spec.representatives
    )
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    return sum(tally * _ways(sizes, 0, room, memo) for room, tally in types.items())


def _ways(sizes, idx, room, memo) -> int:
    """The ways to give blocks ``idx``, ``idx + 1``, ... each a value with room for it.

    ``room`` holds, sorted, how many more coordinates each value takes; the
    count depends only on that multiset.  A module-level function, so that
    no closure cycle keeps ``memo`` alive after the count.
    """
    if idx == len(sizes):
        return 1
    key = (idx, room)
    if key not in memo:
        total = 0
        for j, left in enumerate(room):
            if left >= sizes[idx] and (j == 0 or room[j - 1] != left):
                rest = room[:j] + (left - sizes[idx],) + room[j + 1 :]
                total += room.count(left) * _ways(sizes, idx + 1, tuple(sorted(rest)), memo)
        memo[key] = total
    return memo[key]
