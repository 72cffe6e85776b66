"""Tilting-weight tables and their color decomposition.

For a shift parameter t = -p/k the table lists the dominant (weakly
decreasing) integer weights xi such that xi + staircase is a strictly
decreasing lattice point of Z(m, n, tau).  Those weights are exactly the
dominant lattice points of Z(m - 1, n, tau - (n-1)/2), so the table is the
representative scan one multiplicity down.  The table size is always the
Fuss-Catalan number, and grouping by color (coordinate sum) splits it into
exactly n consecutive blocks.  The scan runs one color at a time, with the
color as its fixed total, so ``dominant_weight_blocks`` (and with it the
``tilting`` command) holds one block at a time; ``dominant_weights`` and
``tilting_weights`` return the blocks concatenated.

Shift convention: the frozen window places tau just below t + m(n-1)/2,
i.e. tau = t + m(n-1)/2 - eps.  An alternative "high" window with
tau = t + m(n-1) + eps is kept selectable for comparison; it produces a
valid table of the same size from a different admissibility window.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from .scalars import EpsRational, as_eps_rational
from .zonotope import ZonotopeSpec, dominant_points

WINDOWS = ("low", "high")


def staircase(n: int) -> tuple[int, ...]:
    """(n-1, n-2, ..., 1, 0)."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(range(n - 1, -1, -1))


def t_grid(n: int) -> list[Fraction]:
    """Distinct values -p/k for 1 <= k <= n, 0 <= p < k, sorted decreasing."""
    if n < 1:
        raise ValueError("n must be positive")
    values = {Fraction(-p, k) for k in range(1, n + 1) for p in range(k)}
    return sorted(values, reverse=True)


def tau_for_t(m: int, n: int, t, window: str = "low") -> EpsRational:
    """Admissible shift for a grid value t, an int or a Fraction.

    "low":  t + m(n-1)/2 - eps   (the frozen table convention)
    "high": t + m(n-1) + eps     (opt-in alternative window)
    """
    if window == "low":
        return EpsRational(t, -1) + Fraction(m * (n - 1), 2)
    if window == "high":
        return EpsRational(t, +1) + m * (n - 1)
    raise ValueError(f"window must be one of {WINDOWS}, got {window!r}")


def weight_spec(m: int, n: int, tau) -> ZonotopeSpec:
    """Z(m - 1, n, tau - (n-1)/2), whose dominant points are the weights at (m, n, tau).

    Subtracting the staircase moves every top-k and bottom-k sum of a
    strictly decreasing point by exactly the change in the support bounds
    from Z(m, n, tau) to this zonotope one multiplicity down (m - 1 >= 0).
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return ZonotopeSpec(m - 1, n, tau - Fraction(n - 1, 2))


def dominant_weight_blocks(
    m: int, n: int, tau
) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """The weights xi with xi + staircase a strictly decreasing member point, by color.

    The weights are the dominant points of ``weight_spec(m, n, tau)``, and
    the scan's cost grows with the table size A_n(m, 1).  Each color is
    scanned on its own when its block is asked for, in lexicographic order,
    and reversed; so the blocks come colors ascending, each color's weights
    lexicographically descending, and only one block is held at a time.
    Each block is a ``(color, weights)`` pair in table order; empty colors
    are skipped.
    """
    spec = weight_spec(m, n, tau)
    for color in range(spec.lo_ceil[n], spec.up_floor[n] + 1):
        weights = tuple(reversed(dominant_points(spec, color)))
        if weights:
            yield color, weights


def dominant_weights(m: int, n: int, tau) -> tuple[tuple[int, ...], ...]:
    """The whole table: the blocks of ``dominant_weight_blocks`` concatenated."""
    return tuple(chain.from_iterable(weights for _, weights in dominant_weight_blocks(m, n, tau)))


class WeightTable(namedtuple("WeightTable", "m n t tau weights")):
    """One table row: the weights for a single grid value t."""

    __slots__ = ()


def tilting_weights(m: int, n: int, t, window: str = "low") -> WeightTable:
    """The weight table for grid value t, an int or a Fraction (raises if t is not on the grid)."""
    tau = tau_for_t(m, n, t, window)
    if t not in t_grid(n):
        raise ValueError(f"t = {t} is not on the grid for n = {n}")
    return WeightTable(m=m, n=n, t=Fraction(t), tau=tau, weights=dominant_weights(m, n, tau))


def color_window_start(n: int, tau) -> int:
    """Smallest possible color of a table at shift tau: ceil(n*tau) - n(n-1)/2."""
    return math.ceil(as_eps_rational(tau) * n) - n * (n - 1) // 2
