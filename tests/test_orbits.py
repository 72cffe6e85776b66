import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zonopark import orbits
from zonopark.orbits import (
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


def test_merge_orbits_is_lazy():
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
    groups = list(prefix_groups(reps, lambda key, tails: tails))
    points = [prefix + tail for prefix, tails in groups for tail in tails]
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


def assert_each_sorted_prefix_is_rendered_once(reps):
    """The walk calls render once per sorted prefix, at the group whose prefix it is.

    The call gets the tails of that prefix's points, as the permutation
    oracle gives them, and every group of the sorted prefix, one per
    arrangement of its values, yields the very object the call returned.
    """
    oracle_tails: dict = {}
    for point in _union_of_permutations(reps):
        cut = max(len(point) - 2, 0)
        oracle_tails.setdefault(point[:cut], []).append(point[cut:])
    calls = []

    def render(key, tails):
        calls.append((key, tails))
        return object()

    rendered: dict = {}
    groups: Counter = Counter()
    for prefix, result in prefix_groups(reps, render):
        key = tuple(sorted(prefix))
        if key in rendered:
            assert len(calls) == len(rendered)
        else:
            assert len(calls) == len(rendered) + 1
            assert calls[-1] == (prefix, oracle_tails[prefix])
            assert prefix == key
            rendered[key] = result
        assert result is rendered[key]
        groups[key] += 1
    assert len(calls) == len(rendered) == len(groups)
    assert all(count == orbit_size(key) for key, count in groups.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_groups_multisets_depend_only_on_its_sorted_prefix(m, n):
    # so the walk renders each sorted prefix's tails once, for all its groups
    for tau in sample_taus(m, n):
        assert_each_sorted_prefix_is_rendered_once(ZonotopeSpec(m, n, tau).representatives)
    assert_each_sorted_prefix_is_rendered_once(list(increasing_parking_functions(m, n)))


def count_tails_calls(monkeypatch) -> list:
    """Patch the walk's ``_tails`` to note each call in the returned list."""
    calls = []
    tails = orbits._tails
    monkeypatch.setattr(orbits, "_tails", lambda multisets: calls.append(multisets) or tails(multisets))
    return calls


@pytest.mark.parametrize("m, n, tau, groups, keys", [(3, 5, "53/8", 1_792, 357), (2, 6, "5-eps", 10_985, 700)])
def test_merge_orbits_finds_the_tails_of_each_sorted_prefix_once(monkeypatch, m, n, tau, groups, keys):
    reps = ZonotopeSpec(m, n, parse_scalar(tau)).representatives
    assert sum(1 for _ in prefix_groups(reps, lambda key, tails: None)) == groups
    calls = count_tails_calls(monkeypatch)
    for _ in merge_orbits(reps):
        pass
    assert len(calls) == keys


def test_merge_orbits_holds_interned_tails_not_the_points():
    # 371,293 points at (2, 6); the 700 sorted prefixes' tails point into one
    # table of pairs; without it each tail is its own tuple, about 1.5 MiB
    reps = ZonotopeSpec(2, 6, parse_scalar("5-eps")).representatives
    tracemalloc.start()
    try:
        for _ in merge_orbits(reps):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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
