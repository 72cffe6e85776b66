import functools
import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from zonopark import parking
from zonopark.parking import (
    class_index,
    enumerate_parking_functions,
    fuss_catalan,
    increasing_parking_functions,
    is_parking_function,
    lattice_to_parking,
    orbit_to_dyck,
    parking_to_lattice,
)
from zonopark.scalars import EpsRational, parse_scalar
from zonopark.verify import sample_taus
from zonopark.zonotope import Location, NotAdmissibleError, ZonotopeSpec, enumerate_lattice_points


def spec_of(m, n, tau_text):
    return ZonotopeSpec(m, n, parse_scalar(tau_text))


def test_class_index_examples():
    # the canonical classes (0, 0), (3, 0) and (1, 0), read in base 5
    assert class_index((1, 1), 2, 2) == 0
    assert class_index((0, 2), 2, 2) == 3
    assert class_index((2, 1), 2, 2) == 1
    with pytest.raises(ValueError):
        class_index((1, 1, 1), 2, 2)


def test_class_index_well_defined_on_lattice_shifts():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        q = m * n + 1
        x = [rng.randint(-8, 8) for _ in range(n)]
        c = rng.randint(-3, 3)
        y = [xi + q * rng.randint(-2, 2) + c for xi in x]
        assert class_index(x, m, n) == class_index(y, m, n)


def test_lattice_to_parking_examples():
    spec = spec_of(2, 2, "1-eps")
    assert lattice_to_parking((1, 1), spec) == (0, 0)
    assert lattice_to_parking((2, 1), spec) == (1, 0)
    assert lattice_to_parking((0, 2), spec) == (0, 2)


def test_parking_to_lattice_examples():
    spec = spec_of(2, 2, "1-eps")
    assert parking_to_lattice((0, 1), spec) == (1, 2)
    assert parking_to_lattice((0, 0), spec) == (1, 1)
    assert parking_to_lattice((2, 0), spec) == (2, 0)


def test_bijection_errors():
    spec = spec_of(2, 2, "3/2")  # not admissible
    with pytest.raises(NotAdmissibleError):
        lattice_to_parking((1, 1), spec)
    spec = spec_of(2, 2, "1-eps")
    with pytest.raises(ValueError):
        lattice_to_parking((5, 5), spec)  # not in the zonotope
    with pytest.raises(ValueError):
        parking_to_lattice((1, 1), spec)  # not a parking function


def test_bijection_error_order():
    # admissibility is checked before membership, and a length or membership
    # failure is a plain ValueError
    inadmissible = spec_of(2, 2, "3/2")
    for x in [(5, 5), (1, 1, 1)]:
        with pytest.raises(NotAdmissibleError):
            lattice_to_parking(x, inadmissible)
        with pytest.raises(ValueError) as info:
            lattice_to_parking(x, spec_of(2, 2, "1-eps"))
        assert type(info.value) is ValueError
    # the inverse checks its input is a parking function before admissibility
    for a in [(1, 1), (0, 0, 0), (-1, 0)]:
        with pytest.raises(ValueError, match="parking function") as info:
            parking_to_lattice(a, inadmissible)
        assert type(info.value) is ValueError
    with pytest.raises(NotAdmissibleError):
        parking_to_lattice((0, 1), inadmissible)


# a failed image check is a broken invariant, so each map raises a
# RuntimeError, never the ValueError of bad input
def test_inverse_map_image_check_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(parking, "_locate_ascending", lambda spec, ascending: Location.OUTSIDE)
    with pytest.raises(RuntimeError) as info:
        parking_to_lattice((0, 1), spec_of(2, 2, "1-eps"))
    assert not isinstance(info.value, ValueError)


def test_forward_map_image_check_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(parking, "_parks", lambda ascending, m: False)
    with pytest.raises(RuntimeError) as info:
        lattice_to_parking((2, 1), spec_of(2, 2, "1-eps"))
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("m, n", [(0, 3), (1, 4), (2, 3), (3, 4)])
def test_inverse_map_commutes_with_far_translations(m, n):
    # tau + d translates the zonotope by d*(1,...,1), which keeps each class
    for tau in sample_taus(m, n, 1):
        near = ZonotopeSpec(m, n, tau)
        for d in (10**6, -(10**6)):
            far = ZonotopeSpec(m, n, tau + d)
            for f in enumerate_parking_functions(m, n):
                want = tuple(value + d for value in parking_to_lattice(f, near))
                assert parking_to_lattice(f, far) == want


def test_m0_half_integer_shift_maps_its_one_point():
    spec = ZonotopeSpec(0, 2, Fraction(1, 2))
    assert spec.admissible
    assert lattice_to_parking((1, 1), spec) == (0, 0)
    assert parking_to_lattice((0, 0), spec) == (1, 1)


def test_enumerate_parking_functions_examples():
    assert enumerate_parking_functions(2, 2) == [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
        (2, 0),
    ]
    assert enumerate_parking_functions(1, 2) == [(0, 0), (0, 1), (1, 0)]
    assert not is_parking_function((1, 2), 1, 2)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 3), (3, 3), (2, 4)])
def test_parking_count(m, n):
    assert len(enumerate_parking_functions(m, n)) == (m * n + 1) ** (n - 1)


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in range(4) for n in range(1, 5)] + [(1, 5), (2, 5)]
)
def test_increasing_parking_functions_are_the_sorted_orbits(m, n):
    want = sorted({tuple(sorted(a)) for a in oracles.parking_functions_brute(m, n)})
    assert list(increasing_parking_functions(m, n)) == want


def test_increasing_parking_functions_are_lazy():
    # a list builder would not return at n = 60
    first = list(islice(increasing_parking_functions(3, 60), 3))
    assert first == [(0,) * 60, (0,) * 59 + (1,), (0,) * 59 + (2,)]
    with pytest.raises(ValueError):
        next(increasing_parking_functions(-1, 3))


def dyck_paths(m, n):
    """The (m, n)-Dyck paths: the weakly increasing (m - 1, n)-parking functions."""
    return list(increasing_parking_functions(m - 1, n))


def test_enumerate_dyck_paths_examples():
    assert dyck_paths(2, 2) == [(0, 0), (0, 1)]
    assert fuss_catalan(2, 2) == 2
    assert fuss_catalan(2, 4) == 14
    for n in (1, 2, 3, 5):
        assert dyck_paths(1, n) == [(0,) * n]
        assert fuss_catalan(1, n) == 1


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_dyck_count_matches_both_closed_forms(m, n):
    paths = dyck_paths(m, n)
    assert len(set(paths)) == len(paths)
    a = math.comb(m * n + 1, n) // (m * n + 1)
    b = math.comb(m * n, n) // ((m - 1) * n + 1)
    assert len(paths) == fuss_catalan(m, n) == a == b


def test_orbit_to_dyck_examples():
    assert orbit_to_dyck((0, 2)) == (0, 1)
    assert orbit_to_dyck((0, 1, 2)) == (0, 0, 0)
    assert orbit_to_dyck((0, 2, 4)) == (0, 1, 2)
    with pytest.raises(ValueError):
        orbit_to_dyck((2, 2))


def test_orbit_to_dyck_bijection():
    for m, n in [(1, 3), (2, 3), (3, 2), (2, 4)]:
        increasing = [
            a
            for a in enumerate_parking_functions(m, n)
            if all(x < y for x, y in zip(a, a[1:]))
        ]
        images = {orbit_to_dyck(a) for a in increasing}
        assert len(images) == len(increasing)
        assert images == set(dyck_paths(m, n))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 4)])
def test_class_bijectivity(m, n):
    q = m * n + 1
    tau = sample_taus(m, n, 1)[0]
    spec = ZonotopeSpec(m, n, tau)
    points = enumerate_lattice_points(spec)
    functions = enumerate_parking_functions(m, n)
    point_classes = {class_index(x, m, n) for x in points}
    parking_classes = {class_index(a, m, n) for a in functions}
    assert len(point_classes) == len(points) == q ** (n - 1)
    assert len(parking_classes) == len(functions) == q ** (n - 1)
    # surjectivity onto the full set of class indices
    assert point_classes == set(range(q ** (n - 1)))
    assert point_classes == parking_classes


def test_round_trip_and_equivariance():
    rng = random.Random(5)
    for m, n in [(1, 3), (2, 2), (2, 3), (3, 3)]:
        for tau in sample_taus(m, n, 1):
            spec = ZonotopeSpec(m, n, tau)
            points = enumerate_lattice_points(spec)
            for x in points:
                assert parking_to_lattice(lattice_to_parking(x, spec), spec) == x
            for a in enumerate_parking_functions(m, n):
                assert lattice_to_parking(parking_to_lattice(a, spec), spec) == a
            for _ in range(30):
                perm = rng.sample(range(n), n)
                x = points[rng.randrange(len(points))]
                left = lattice_to_parking(tuple(x[p] for p in perm), spec)
                right = tuple(lattice_to_parking(x, spec)[p] for p in perm)
                assert left == right


@pytest.mark.parametrize("m, n", [(1, 4), (2, 4), (3, 3), (1, 5)])
def test_both_maps_make_the_same_pairs(m, n):
    # the premise of verify.round_trip, which maps only the points: the
    # pairs (x, lattice_to_parking(x)) over the points are the pairs
    # (parking_to_lattice(f), f) over the parking functions
    functions = enumerate_parking_functions(m, n)
    for tau in sample_taus(m, n):
        spec = ZonotopeSpec(m, n, tau)
        from_points = {(x, lattice_to_parking(x, spec)) for x in enumerate_lattice_points(spec)}
        from_functions = {(parking_to_lattice(f, spec), f) for f in functions}
        assert from_points == from_functions
        assert len(from_points) == len(functions) == (m * n + 1) ** (n - 1)


def test_regular_orbit_count_equals_fuss_catalan():
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 3), (4, 2), (2, 4)]:
        for tau in sample_taus(m, n, 2):
            points = enumerate_lattice_points(ZonotopeSpec(m, n, tau))
            # each regular orbit has one strictly decreasing point
            regular = [p for p in points if all(a > b for a, b in zip(p, p[1:]))]
            assert len(regular) == fuss_catalan(m, n)


def _breakpoints(n):
    """The rational offsets in [0, 1] with denominator <= n."""
    return sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})


@functools.lru_cache(maxsize=None)
def _oracle_tables(m, n, tau):
    return oracles.bijection_tables(m, n, tau)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=4),
    window=st.integers(min_value=0, max_value=10),
    shape=st.sampled_from(["midpoint", "-eps", "+eps"]),
    x_offsets=st.lists(st.integers(-2, 13), min_size=4, max_size=4),
    a=st.lists(st.integers(-1, 13), min_size=4, max_size=4),
)
@example(m=3, n=4, window=5, shape="midpoint", x_offsets=[0, 0, 0, 0], a=[0, 4, 9, 0])
@example(m=3, n=4, window=0, shape="-eps", x_offsets=[5, 4, 4, 5], a=[3, 0, 10, 1])
def test_cyclic_shift_maps_agree_with_class_tables(m, n, window, shape, x_offsets, a):
    center = Fraction(m * (n - 1), 2)
    breaks = _breakpoints(n)
    i = window % (len(breaks) - 1)
    if shape == "midpoint":
        tau = EpsRational(center + (breaks[i] + breaks[i + 1]) / 2)
    else:
        tau = EpsRational(center + breaks[i], -1 if shape == "-eps" else 1)
    spec = ZonotopeSpec(m, n, tau)
    forward, backward = _oracle_tables(m, n, tau)
    assert len(forward) == len(backward) == (m * n + 1) ** (n - 1)
    for x, pf in forward.items():
        assert lattice_to_parking(x, spec) == pf
        assert parking_to_lattice(pf, spec) == x

    lo, _ = oracles.coordinate_window(m, n, tau)
    x = tuple(lo + d for d in x_offsets[:n])
    if x not in forward:
        with pytest.raises(ValueError):
            lattice_to_parking(x, spec)
    a = tuple(a[:n])
    if a not in backward:
        with pytest.raises(ValueError):
            parking_to_lattice(a, spec)

    # the breakpoint itself has denominator <= n, so it is not admissible
    threshold = ZonotopeSpec(m, n, center + breaks[i])
    some_point, some_parking = next(iter(forward.items()))
    with pytest.raises(NotAdmissibleError):
        lattice_to_parking(some_point, threshold)
    with pytest.raises(NotAdmissibleError):
        parking_to_lattice(some_parking, threshold)


def _shifted(m, n, offset, eps=0):
    return EpsRational(Fraction(m * (n - 1), 2) + offset, eps)


@pytest.mark.parametrize(
    "m,n,tau",
    [
        # whole-integer translates reach negative and large coordinates
        (2, 3, _shifted(2, 3, Fraction(1, 8) - 5)),
        (2, 3, _shifted(2, 3, Fraction(1, 8) + 5)),
        (3, 3, _shifted(3, 3, -5, -1)),
        (3, 3, _shifted(3, 3, 5, 1)),
        (1, 4, _shifted(1, 4, Fraction(9, 10) - 5)),
        (2, 4, _shifted(2, 4, 5, -1)),
        # at m = 1 the n+1 totals reach every one of the mn+1 shifts
        (1, 5, _shifted(1, 5, Fraction(1, 12))),
        # at m = 0 the zonotope is a unit cube with one point
        (0, 1, _shifted(0, 1, Fraction(1, 2))),
        (0, 3, _shifted(0, 3, Fraction(-7, 3))),
        (0, 4, _shifted(0, 4, 2, -1)),
    ],
)
def test_cyclic_shift_maps_agree_with_class_tables_at_more_shifts(m, n, tau):
    spec = ZonotopeSpec(m, n, tau)
    forward, backward = oracles.bijection_tables(m, n, tau)
    assert len(forward) == len(backward) == (m * n + 1) ** (n - 1)
    for x, pf in forward.items():
        assert lattice_to_parking(x, spec) == pf
        assert parking_to_lattice(pf, spec) == x
