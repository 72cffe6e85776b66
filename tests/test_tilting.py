from fractions import Fraction
from itertools import combinations, product

import pytest

from zonopark.parking import fuss_catalan
from zonopark.scalars import EpsRational
from zonopark.tilting import (
    WINDOWS,
    color_window_start,
    dominant_weight_blocks,
    dominant_weights,
    staircase,
    t_grid,
    tau_for_t,
    tilting_weights,
)
from zonopark.verify import color_window
from zonopark.zonotope import ZonotopeSpec

import oracles
from golden_tables import GOLDEN_TABLES


def test_staircase_examples():
    assert staircase(2) == (1, 0)
    assert staircase(4) == (3, 2, 1, 0)
    assert staircase(1) == (0,)


def test_t_grid_examples():
    assert t_grid(2) == [Fraction(0), Fraction(-1, 2)]
    assert t_grid(3) == [Fraction(0), Fraction(-1, 3), Fraction(-1, 2), Fraction(-2, 3)]
    assert t_grid(4) == [
        Fraction(0),
        Fraction(-1, 4),
        Fraction(-1, 3),
        Fraction(-1, 2),
        Fraction(-2, 3),
        Fraction(-3, 4),
    ]


def test_tau_for_t_examples():
    assert tau_for_t(2, 2, 0) == EpsRational(1, -1)
    assert tau_for_t(2, 3, Fraction(-1, 3)) == EpsRational(Fraction(5, 3), -1)
    assert tau_for_t(2, 4, 0) == EpsRational(3, -1)
    for m, n, t in [(2, 2, 0), (3, 3, Fraction(-1, 2)), (4, 4, Fraction(-3, 4))]:
        from zonopark.zonotope import is_admissible

        assert is_admissible(m, n, tau_for_t(m, n, t))
        assert is_admissible(m, n, tau_for_t(m, n, t, window="high"))


def test_tau_for_t_high_window_differs():
    assert tau_for_t(2, 2, 0, window="high") == EpsRational(2, 1)
    low = {tuple(w) for w in tilting_weights(2, 2, 0).weights}
    high = {tuple(w) for w in tilting_weights(2, 2, 0, window="high").weights}
    assert low == {(1, 0), (1, 1)}
    assert high == {(2, 2), (3, 2)}
    assert len(high) == len(low) == fuss_catalan(2, 2)
    with pytest.raises(ValueError):
        tau_for_t(2, 2, 0, window="sideways")


def test_tilting_weights_examples():
    assert [tuple(w) for w in tilting_weights(2, 2, 0).weights] == [(1, 0), (1, 1)]
    got = {tuple(w) for w in tilting_weights(2, 3, Fraction(-1, 2)).weights}
    assert got == {(1, 1, 0), (2, 0, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1)}
    table = tilting_weights(2, 4, Fraction(-3, 4))
    assert len(table.weights) == 14
    assert {(1, 1, 1, 0), (2, 1, 0, 0)} <= {tuple(w) for w in table.weights}


def test_tilting_weights_off_grid():
    with pytest.raises(ValueError):
        tilting_weights(2, 3, Fraction(-3, 4))


def test_dominant_weights_needs_positive_m():
    # the scan runs one multiplicity down, where m = 0 is still a zonotope
    with pytest.raises(ValueError, match="m must be a positive integer"):
        dominant_weights(0, 3, Fraction(1, 2))


def test_golden_tables():
    for (m, n, t), expected in GOLDEN_TABLES.items():
        table = tilting_weights(m, n, t)
        assert {tuple(w) for w in table.weights} == set(expected), (m, n, t)
        assert len(table.weights) == len(expected)


def test_output_order_is_color_then_reverse_lex():
    # single weights (m = 1), many weights per color (m = 3) and both windows
    for m in (1, 2, 3):
        for n in range(1, 7):
            for t in t_grid(n):
                for window in WINDOWS:
                    table = tilting_weights(m, n, t, window)
                    keys = [(sum(w), tuple(-c for c in w)) for w in table.weights]
                    assert keys == sorted(keys), (m, n, t, window)
                    assert len(set(keys)) == len(keys) == fuss_catalan(m, n)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_sizes_are_fuss_catalan(m, n):
    expected = fuss_catalan(m, n)
    for t in t_grid(n):
        assert len(tilting_weights(m, n, t).weights) == expected


def colors(table):
    """The colors (coordinate sums) of a table's weights, ascending."""
    return sorted({sum(xi) for xi in table.weights})


def test_color_blocks_examples():
    table = tilting_weights(2, 2, 0)
    assert color_window_start(2, table.tau) == 1
    blocks = list(dominant_weight_blocks(2, 2, table.tau))
    assert blocks == [
        (1, ((1, 0),)),
        (2, ((1, 1),)),
    ]

    table = tilting_weights(2, 4, 0)
    assert color_window_start(4, table.tau) == 6
    sizes = [len(weights) for _, weights in dominant_weight_blocks(2, 4, table.tau)]
    assert sizes == [4, 4, 4, 2]

    table = tilting_weights(2, 3, 0)
    assert color_window_start(3, table.tau) == 3
    assert colors(table) == [3, 4, 5]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_color_window_exact(m, n):
    for t in t_grid(n):
        table = tilting_weights(m, n, t)
        u = color_window_start(n, table.tau)
        assert colors(table) == list(range(u, u + n))


def test_m1_colors_stay_inside_window():
    # for m = 1 the window bound still holds though blocks may be empty
    for n in (1, 2, 3, 4):
        for t in t_grid(n):
            table = tilting_weights(1, n, t)
            u = color_window_start(n, table.tau)
            assert set(colors(table)) <= set(range(u, u + n))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_high_window_colors_fill_their_own_window(m):
    # the window starts at the table's own tau, whichever window placed it
    for n in range(1, 7):
        for t in t_grid(n):
            table = tilting_weights(m, n, t, window="high")
            u = color_window_start(n, table.tau)
            if m >= 2:
                assert colors(table) == list(range(u, u + n)), (n, t)
            else:
                assert set(colors(table)) <= set(range(u, u + n)), (n, t)
            assert color_window([table]) == "", (n, t)


def _strictly_decreasing(points):
    return {p for p in points if all(a > b for a, b in zip(p, p[1:]))}


def test_staircase_shift_is_bijection_with_regular_dominant_points():
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4), (1, 5), (3, 5), (2, 6)]:
        for t, window in product(t_grid(n), WINDOWS):
            table = tilting_weights(m, n, t, window)
            steps = staircase(n)
            lifted = {tuple(w + s for w, s in zip(xi, steps)) for xi in table.weights}
            # the regular dominant points of Z(m, n, tau) are its strictly
            # decreasing members
            regular_dominant = _strictly_decreasing(ZonotopeSpec(m, n, table.tau).representatives)
            assert lifted == regular_dominant
            if n <= 4 or (m, n) == (1, 5):
                # where the window is small, also the strictly decreasing
                # tuples of it that meet every subset-sum constraint
                lo, hi = oracles.coordinate_window(m, n, table.tau)
                assert lifted == {
                    p
                    for p in combinations(range(hi, lo - 1, -1), n)
                    if oracles.subset_location(m, n, table.tau, p) != "outside"
                }
            # every listed weight is dominant (weakly decreasing)
            for xi in table.weights:
                assert all(a >= b for a, b in zip(xi, xi[1:]))


@pytest.mark.parametrize("m,n", [(1, 5), (2, 6), (3, 5), (2, 8)])
def test_table_is_the_regular_representatives_sorted_by_color_then_descending(m, n):
    # the strictly decreasing representatives of Z(m, n, tau) less the
    # staircase, put in table order by a sort of their own
    steps = staircase(n)
    for t, window in product(t_grid(n), WINDOWS):
        table = tilting_weights(m, n, t, window)
        regular = [
            tuple(a - s for a, s in zip(p, steps))
            for p in ZonotopeSpec(m, n, table.tau).representatives
            if all(a > b for a, b in zip(p, p[1:]))
        ]
        regular.sort(key=lambda xi: (sum(xi), [-c for c in xi]))
        assert table.weights == tuple(regular), (t, window)


def test_blocks_concatenate_to_the_table():
    for m, n in [(1, 4), (2, 5), (3, 4)]:
        for t, window in product(t_grid(n), WINDOWS):
            table = tilting_weights(m, n, t, window)
            blocks = list(dominant_weight_blocks(m, n, table.tau))
            # the table's weights grouped by coordinate sum, colors ascending
            grouped = {}
            for xi in table.weights:
                grouped.setdefault(sum(xi), []).append(xi)
            assert blocks == [(c, tuple(grouped[c])) for c in sorted(grouped)]
            assert all(weights for _, weights in blocks)


def test_weight_translation_by_integer_shift():
    for m, n in [(2, 2), (2, 3), (3, 4)]:
        for t in t_grid(n)[:2]:
            tau = tau_for_t(m, n, t)
            base = dominant_weights(m, n, tau)
            shifted = dominant_weights(m, n, tau + 2)
            assert shifted == tuple(tuple(c + 2 for c in w) for w in base)


def test_m2_n12_table_is_fuss_catalan_in_twelve_colors():
    table = tilting_weights(2, 12, 0)
    assert len(table.weights) == fuss_catalan(2, 12) == 208_012
    u = color_window_start(12, table.tau)
    assert colors(table) == list(range(u, u + 12))
