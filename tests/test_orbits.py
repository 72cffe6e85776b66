import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zonopark.orbits import (
    _tails,
    merge_orbits,
    normalize_partition,
    orbit_of,
    orbit_size,
    prefix_groups,
    stabilizer_partition,
)
from zonopark.parking import fuss_catalan, increasing_parking_functions
from zonopark.zonotope import ZonotopeSpec, enumerate_lattice_points
from zonopark.scalars import parse_scalar
from zonopark.verify import sample_taus


def test_stabilizer_partition_examples():
    assert stabilizer_partition((3, 1, 3)) == ((1, 3), (2,))
    assert stabilizer_partition((1, 1, 1)) == ((1, 2, 3),)
    assert stabilizer_partition((4, 2, 0)) == ((1,), (2,), (3,))


def test_orbit_of_and_size():
    assert orbit_of((1, 1)) == [(1, 1)]
    assert orbit_of((2, 0)) == [(0, 2), (2, 0)]
    assert orbit_of((1, 0, 0)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    rng = random.Random(7)
    for _ in range(25):
        x = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 6)))
        orbit = orbit_of(x)
        assert len(orbit) == orbit_size(x) == len(set(orbit))
        assert orbit == sorted(orbit)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6).map(tuple))
def test_orbit_of_is_every_distinct_permutation_in_lex_order(x):
    assert orbit_of(x) == sorted(set(itertools.permutations(x)))


def test_iter_orbit_is_lazy():
    # the orbit of 12 distinct coordinates has 12! points, too many for a list
    orbit = merge_orbits([tuple(range(12, 0, -1))])
    assert next(orbit) == tuple(range(1, 13))
    assert next(orbit) == (*range(1, 11), 12, 11)


def _union_of_permutations(reps):
    """The oracle: every distinct permutation of every representative, sorted."""
    return sorted({p for rep in reps for p in itertools.permutations(rep)})


def assert_groups_flatten_to_the_orbits(reps):
    """The prefix groups of reps, flattened, are the union of their orbits, in order.

    Each prefix leaves two coordinates, or none at n <= 2, and none repeats.
    """
    groups = list(prefix_groups(reps))
    points = [prefix + tail for prefix, multisets in groups for tail in _tails(multisets)]
    assert points == _union_of_permutations(reps)
    prefixes = [prefix for prefix, _ in groups]
    assert len(set(prefixes)) == len(prefixes)
    if reps:
        assert {len(prefix) for prefix in prefixes} == {max(len(reps[0]) - 2, 0)}


def test_merge_orbits_is_the_sorted_union_of_the_orbits():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        multisets = {tuple(sorted(rng.choices(range(-2, 3), k=n))) for _ in range(rng.randint(1, 8))}
        # the representatives in any order, each with its coordinates in any order
        reps = [tuple(rng.sample(rep, n)) for rep in multisets]
        rng.shuffle(reps)
        merged = merge_orbits(reps)
        assert not isinstance(merged, list)
        assert list(merged) == _union_of_permutations(reps)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple))
    )
)
def test_merge_orbits_matches_the_permutation_oracle(reps):
    # one representative per orbit, as merge_orbits requires
    reps = list({tuple(sorted(rep)): rep for rep in reps}.values())
    assert list(merge_orbits(reps)) == _union_of_permutations(reps)
    assert_groups_flatten_to_the_orbits(reps)


@pytest.mark.parametrize(
    "reps",
    [
        [],
        [(4,)],
        [(2,), (-1,), (0,)],
        [(1, 1)],
        [(0, 3), (2, 2), (1, -1)],
        [(1, 1, 1)],
        [(0, 2, 0), (1, 1, 2), (2, 1, 0)],
        [(3, 3, 1, 1)],
    ],
)
def test_merge_orbits_small_cases(reps):
    assert list(merge_orbits(iter(reps))) == _union_of_permutations(reps)
    assert_groups_flatten_to_the_orbits(reps)


def assert_groups_depend_only_on_the_sorted_prefix(reps):
    """Groups with one sorted prefix carry one multisets list, in one order.

    Each sorted prefix occurs once per arrangement of its values, and first
    as itself, so the first of its groups is where its orbits are reached.
    """
    multisets_of: dict = {}
    occurrences: Counter = Counter()
    for prefix, multisets in prefix_groups(reps):
        key = tuple(sorted(prefix))
        if key not in multisets_of:
            assert prefix == key
        assert multisets_of.setdefault(key, multisets) == multisets
        occurrences[key] += 1
    assert all(count == orbit_size(key) for key, count in occurrences.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_groups_multisets_depend_only_on_its_sorted_prefix(m, n):
    # the renderers of the orbit commands render each sorted prefix's tails once
    for tau in sample_taus(m, n):
        assert_groups_depend_only_on_the_sorted_prefix(ZonotopeSpec(m, n, tau).representatives)
    assert_groups_depend_only_on_the_sorted_prefix(list(increasing_parking_functions(m, n)))


def test_merge_orbits_of_an_m0_spec():
    # m = 0 leaves the unit cube tau*(1,...,1) + [0, 1]^n: 2^n points at an
    # integer tau, one point otherwise
    for n in (1, 2, 3, 4):
        for tau, points in (("1/2", 1), ("2-eps", 1), ("1", 2**n), ("-3", 2**n)):
            reps = ZonotopeSpec(0, n, parse_scalar(tau)).representatives
            merged = list(merge_orbits(reps))
            assert merged == _union_of_permutations(reps)
            assert len(merged) == points


def test_merge_orbits_requires_one_length():
    with pytest.raises(ValueError):
        list(merge_orbits([(1, 2), (1, 2, 3)]))


def test_rep_count_identity_and_dominance():
    for m, n, tau in [(2, 3, "11/6"), (3, 3, "47/14"), (1, 4, "23/14")]:
        points = enumerate_lattice_points(ZonotopeSpec(m, n, parse_scalar(tau)))
        # each regular orbit has one strictly decreasing point
        reps = [p for p in points if all(a > b for a, b in zip(p, p[1:]))]
        distinct = [p for p in points if len(set(p)) == n]
        assert len(reps) * math.factorial(n) == len(distinct)
        assert len(reps) == fuss_catalan(m, n)
        for rep in reps:
            # subtracting the staircase leaves a weakly decreasing vector
            shifted = [c - (n - 1 - i) for i, c in enumerate(rep)]
            assert all(a >= b for a, b in zip(shifted, shifted[1:]))


def test_normalize_partition():
    assert normalize_partition([[3], [1, 2]], 3) == ((1, 2), (3,))
    with pytest.raises(ValueError):
        normalize_partition([[1, 2]], 3)
    with pytest.raises(ValueError):
        normalize_partition([[1, 2], [2, 3]], 3)
    with pytest.raises(ValueError):
        normalize_partition([[1], [], [2]], 2)
