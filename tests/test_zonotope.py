import gc
import math
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from zonopark.parking import lattice_to_parking, parking_to_lattice
from zonopark.scalars import EpsRational, parse_scalar
from zonopark.tilting import tilting_weights
from zonopark.treecount import enumerate_partitions, partition_types
from zonopark.verify import admissible_taus, inadmissible_taus, sample_taus
from zonopark.zonotope import (
    Location,
    ZonotopeSpec,
    contains,
    count_invariant_points,
    count_lattice_points,
    dominant_points,
    enumerate_lattice_points,
    has_boundary_lattice_point,
    is_admissible,
    support_bounds,
)

import oracles


def spec_of(m, n, tau_text):
    return ZonotopeSpec(m, n, parse_scalar(tau_text))


# -- support bounds ----------------------------------------------------------


def test_support_bounds_examples():
    tau = EpsRational(Fraction(5, 7), -1)
    b = support_bounds(ZonotopeSpec(2, 3, tau), 2)
    assert b.upper == tau * 2 + 4 and b.lower == tau * 2 - 2

    b = support_bounds(ZonotopeSpec(2, 2, tau), 1)
    assert b.upper == tau + 2 and b.lower == tau - 1

    for m, n in [(1, 1), (2, 4), (3, 5)]:
        b = support_bounds(ZonotopeSpec(m, n, tau), n)
        assert b.upper == tau * n + n and b.lower == tau * n


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 3), (3, 5)])
def test_support_width(m, n):
    spec = ZonotopeSpec(m, n, EpsRational(Fraction(1, 7)))
    for k in range(1, n + 1):
        b = support_bounds(spec, k)
        assert b.upper - b.lower == m * k * (n - k) + k


def test_support_bounds_bad_k():
    spec = spec_of(2, 3, "1-eps")
    for k in (0, 4, -1):
        with pytest.raises(ValueError):
            support_bounds(spec, k)


def test_spec_validation():
    with pytest.raises(ValueError):
        ZonotopeSpec(-1, 2, EpsRational(1))
    with pytest.raises(ValueError):
        ZonotopeSpec(2, 0, EpsRational(1))


# -- membership --------------------------------------------------------------


def test_contains_examples():
    spec = spec_of(2, 2, "1-eps")
    assert contains(spec, (2, 1)) is Location.INTERIOR
    assert contains(spec, (3, 0)) is Location.OUTSIDE

    # at tau = 3/2 the boundary lattice points are (2,1),(1,2),(3,2),(2,3);
    # (3,1) satisfies every subset constraint strictly
    spec = spec_of(2, 2, "3/2")
    assert contains(spec, (3, 1)) is Location.INTERIOR
    for x in [(2, 1), (1, 2), (3, 2), (2, 3)]:
        assert contains(spec, x) is Location.BOUNDARY


def test_contains_matches_hull_oracle_n2():
    for m in (1, 2, 3):
        for tau_text in ["1-eps", "3/2", "5/4", "2+eps", "-1/3", "0"]:
            spec = spec_of(m, 2, tau_text)
            lo, hi = oracles.coordinate_window(m, 2, spec.tau)
            for x in [(a, b) for a in range(lo - 1, hi + 2) for b in range(lo - 1, hi + 2)]:
                got = contains(spec, x).value
                want = oracles.hull_location_2d(m, spec.tau, x)
                assert got == want, (m, tau_text, x, got, want)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 3), (2, 4)])
def test_contains_matches_subset_oracle(m, n):
    taus = sample_taus(m, n, 2) + inadmissible_taus(m, n, 2)
    for tau in taus:
        spec = ZonotopeSpec(m, n, tau)
        lo, hi = oracles.coordinate_window(m, n, tau)
        for rep in spec.representatives:
            assert contains(spec, rep).value == oracles.subset_location(m, n, tau, rep)
        # spot-check points outside as well
        corner = (hi + 1,) + (lo,) * (n - 1)
        assert contains(spec, corner).value == oracles.subset_location(m, n, tau, corner)


@pytest.mark.parametrize("m,n", [(0, 3), (1, 4), (2, 3), (3, 3), (2, 4)])
def test_scan_of_a_range_of_totals_matches_the_subset_oracle(m, n):
    # every weakly decreasing tuple of the coordinate window that meets all
    # subset-sum constraints, against the scan of each single total (colors
    # outside the range included) and the representatives of all of them
    for tau in sample_taus(m, n, 2) + inadmissible_taus(m, n, 2):
        spec = ZonotopeSpec(m, n, tau)
        lo, hi = oracles.coordinate_window(m, n, tau)
        members = sorted(
            p
            for p in combinations_with_replacement(range(hi, lo - 1, -1), n)
            if oracles.subset_location(m, n, tau, p) != "outside"
        )
        assert list(spec.representatives) == sorted(members, key=lambda p: (sum(p), p))
        for color in range(n * lo - 1, n * hi + 2):
            assert dominant_points(spec, color) == [p for p in members if sum(p) == color]


def test_scans_leave_no_reference_cycles():
    # a scan that keeps its result in a cycle holds every scanned tuple
    # until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        spec = ZonotopeSpec(2, 5, sample_taus(2, 5)[0])
        assert len(spec.representatives) == 273
        del spec
        table = tilting_weights(2, 6, 0)
        assert len(table.weights) == 132
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_recursions_leave_no_reference_cycles():
    # a recursive closure refers to itself, and that cycle keeps its state
    # alive until the cyclic collector runs
    spec = ZonotopeSpec(2, 4, sample_taus(2, 4)[0])
    assert len(spec.representatives) == 55
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_partitions(6)) == 203
        assert gc.collect() == 0
        assert sum(count for _, count in partition_types(6)) == 203
        assert gc.collect() == 0
        assert count_invariant_points(spec, ((1, 2), (3,), (4,))) == 81
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(spec_of(2, 2, "1-eps"), (1, 2, 3))


# -- admissibility -----------------------------------------------------------


def test_is_admissible_examples():
    assert not is_admissible(2, 2, Fraction(3, 2))
    assert is_admissible(2, 3, Fraction(8, 5))
    assert is_admissible(2, 2, EpsRational(1, -1))


def test_m0_is_admissible_iff_tau_is_not_an_integer():
    # the unit cube tau*(1,...,1) + [0,1]^n puts a lattice point on its
    # boundary exactly when tau is an integer
    rationals = {Fraction(p, q) for q in range(1, 7) for p in range(-8, 9)}
    taus = [EpsRational(r) for r in rationals]
    taus += [EpsRational(k, e) for k in range(-2, 3) for e in (-1, 1)]
    for n in range(1, 5):
        for tau in taus:
            spec = ZonotopeSpec(0, n, tau)
            want = tau.eps_coeff != 0 or tau.base.denominator != 1
            assert spec.admissible == is_admissible(0, n, tau) == want
            assert has_boundary_lattice_point(spec) == (not want)


def test_admissibility_boundary_dichotomy_small():
    for m in (1, 2):
        for n in (1, 2, 3):
            for tau in admissible_taus(m, n, 3):
                assert not has_boundary_lattice_point(ZonotopeSpec(m, n, tau))
            for tau in inadmissible_taus(m, n, 3):
                assert has_boundary_lattice_point(ZonotopeSpec(m, n, tau))


# -- enumeration -------------------------------------------------------------


def test_enumerate_examples():
    spec = spec_of(2, 2, "1-eps")
    assert enumerate_lattice_points(spec) == [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1)]
    assert count_lattice_points(spec) == 5 == (2 * 2 + 1) ** (2 - 1)

    spec = spec_of(2, 3, "11/6")
    assert count_lattice_points(spec) == 49


@pytest.mark.parametrize(
    "m,n,tau_text",
    [(1, 2, "7/4"), (2, 2, "1-eps"), (2, 3, "11/6"), (3, 2, "3/2"), (2, 2, "3/2")],
)
def test_enumerate_matches_grid_oracle(m, n, tau_text):
    spec = spec_of(m, n, tau_text)
    expected = oracles.grid_points(m, n, spec.tau, oracles.coordinate_window(m, n, spec.tau))
    got = enumerate_lattice_points(spec)
    assert got == sorted(expected)
    assert got == sorted(set(got))
    assert count_lattice_points(spec) == len(expected)


def test_enumeration_is_permutation_closed_and_translates():
    for m, n in [(1, 3), (2, 3), (3, 2)]:
        tau = sample_taus(m, n, 1)[0]
        spec = ZonotopeSpec(m, n, tau)
        points = set(enumerate_lattice_points(spec))
        for p in points:
            for q in permutations(p):
                assert q in points
        shifted = enumerate_lattice_points(ZonotopeSpec(m, n, tau + 1))
        assert shifted == sorted(tuple(c + 1 for c in p) for p in points)


def test_count_matches_enumeration_on_grid():
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for tau in sample_taus(m, n, 2):
                spec = ZonotopeSpec(m, n, tau)
                assert count_lattice_points(spec) == len(enumerate_lattice_points(spec))


def test_representatives_live_and_die_with_their_spec():
    spec = ZonotopeSpec(3, 5, parse_scalar("53/8"))
    assert count_lattice_points(spec) == 16**4
    # the kept representatives are the per-color scans, colors ascending
    colors = range(spec.lo_ceil[spec.n], spec.up_floor[spec.n] + 1)
    assert spec.representatives == tuple(p for c in colors for p in dominant_points(spec, c))
    # equality and hashing stay on (m, n, tau) once the scan is kept
    twin = ZonotopeSpec(3, 5, parse_scalar("53/8"))
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    ref = weakref.ref(spec)
    del spec
    assert ref() is None


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=6),
    offset=st.fractions(min_value=-3, max_value=3, max_denominator=8),
    eps=st.integers(min_value=-1, max_value=1),
)
@example(m=3, n=6, offset=Fraction(0), eps=0)
@example(m=2, n=5, offset=Fraction(2, 5), eps=0)
def test_regular_dominant_points_are_dominant_points_one_multiplicity_down(m, n, offset, eps):
    # offsets with denominator <= n and eps = 0 give inadmissible shifts,
    # whose boundary points both sides must keep
    tau = EpsRational(Fraction(m * (n - 1), 2) + offset, eps)
    steps = range(n - 1, -1, -1)
    regular = [
        tuple(a - s for a, s in zip(p, steps))
        for p in ZonotopeSpec(m, n, tau).representatives
        if all(a > b for a, b in zip(p, p[1:]))
    ]
    assert tuple(regular) == ZonotopeSpec(m - 1, n, tau - Fraction(n - 1, 2)).representatives


@pytest.mark.parametrize("n", range(1, 6))
def test_m0_is_the_unit_cube(n):
    # Z(0, n, tau) = tau*(1,...,1) + [0,1]^n holds one lattice point when
    # tau is not an integer, and it maps to the zero parking function
    for tau in sample_taus(0, n):
        spec = ZonotopeSpec(0, n, tau)
        point = (math.ceil(tau),) * n
        assert enumerate_lattice_points(spec) == [point]
        assert not has_boundary_lattice_point(spec)
        assert lattice_to_parking(point, spec) == (0,) * n
        assert parking_to_lattice((0,) * n, spec) == point


def test_degenerate_n1():
    spec = ZonotopeSpec(3, 1, EpsRational(Fraction(1, 2)))
    assert enumerate_lattice_points(spec) == [(1,)]
    assert count_lattice_points(spec) == 1
    b = support_bounds(spec, 1)
    assert b.lower == spec.tau and b.upper == spec.tau + 1
    # integer tau is the only inadmissible case and puts both endpoints on Z
    assert not is_admissible(3, 1, 2)
    assert has_boundary_lattice_point(ZonotopeSpec(3, 1, EpsRational(2)))


# -- invariant point counts --------------------------------------------------


def test_count_invariant_points_examples():
    spec = spec_of(2, 2, "1-eps")
    assert count_invariant_points(spec, [[1, 2]]) == 1  # only (1, 1)
    assert count_invariant_points(spec, [[1], [2]]) == 5

    spec = spec_of(2, 3, "11/6")
    assert count_invariant_points(spec, [[1, 2, 3]]) == 1  # only (2, 2, 2)


def test_count_invariant_points_matches_filter():
    for m, n in [(2, 3), (3, 3), (2, 4)]:
        tau = sample_taus(m, n, 1)[0]
        spec = ZonotopeSpec(m, n, tau)
        points = enumerate_lattice_points(spec)
        for blocks in enumerate_partitions(n):
            expected = sum(
                1
                for p in points
                if all(len({p[i - 1] for i in block}) == 1 for block in blocks)
            )
            assert count_invariant_points(spec, blocks) == expected


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2) for n in range(1, 5)])
def test_count_invariant_points_matches_grid_oracle(m, n):
    # admissible midpoints, both one-sided infinitesimals at the centre and
    # inadmissible shifts, whose boundary points count as members
    for tau in sample_taus(m, n, 2) + inadmissible_taus(m, n, 2):
        points = oracles.grid_points(m, n, tau, oracles.coordinate_window(m, n, tau))
        spec = ZonotopeSpec(m, n, tau)
        for blocks in enumerate_partitions(n):
            expected = len(oracles.block_constant_points(points, blocks))
            assert count_invariant_points(spec, blocks) == expected, (tau, blocks)


def test_count_invariant_points_bad_partition():
    spec = spec_of(2, 3, "11/6")
    with pytest.raises(ValueError):
        count_invariant_points(spec, [[1, 2]])
    with pytest.raises(ValueError):
        count_invariant_points(spec, [[1, 2], [2, 3]])
