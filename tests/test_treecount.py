import math
from collections import Counter

import pytest

from zonopark.parking import fuss_catalan
from zonopark.treecount import (
    MultiGraph,
    build_graph,
    composition_sum,
    compositions,
    contract,
    contracted_count_closed_form,
    determinant,
    enumerate_partitions,
    laplacian,
    mobius,
    partition_types,
    regular_orbit_count_mobius,
    spanning_tree_count,
    volume_by_bases,
)

import oracles


def test_build_graph_examples():
    g = build_graph(2, 2)
    assert g.mult[1][2] == 2 and g.mult[0][1] == 1 and g.mult[0][2] == 1
    g = build_graph(1, 2)
    assert g.mult[1][2] == 1 and g.mult[0][1] == 1
    g = build_graph(3, 3)
    assert all(g.mult[i][j] == 3 for i in (1, 2, 3) for j in (1, 2, 3) if i != j)
    assert all(g.mult[0][i] == 1 for i in (1, 2, 3))


def test_multigraph_validation():
    with pytest.raises(ValueError):
        MultiGraph(((0, 1), (1, 0), (0, 0)))  # not square
    with pytest.raises(ValueError):
        MultiGraph(((1, 0), (0, 0)))  # loop
    with pytest.raises(ValueError):
        MultiGraph(((0, 1), (2, 0)))  # asymmetric


def test_contract_examples():
    g = build_graph(2, 2)
    merged = contract(g, [[1, 2]])
    assert merged.order == 2 and merged.mult[0][1] == 2

    assert contract(g, [[1], [2]]) == g

    g = build_graph(2, 3)
    merged = contract(g, [[1, 2], [3]])
    # vertices: 0, {1,2}, {3}
    assert merged.mult[0][1] == 2
    assert merged.mult[0][2] == 1
    assert merged.mult[1][2] == 4


def test_laplacian_rows_sum_to_zero():
    for g in [build_graph(2, 3), contract(build_graph(3, 4), [[1, 3], [2], [4]])]:
        for row in laplacian(g):
            assert sum(row) == 0


def test_determinant_basics():
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    with pytest.raises(ValueError):
        determinant([[1, 2], [3]])


def test_determinant_stays_exact_for_large_values():
    # Hilbert-like integer matrix with a known huge exact determinant:
    # scaled identity 10^6 * I has determinant 10^(6*7)
    size = 7
    big = [[10**6 if i == j else 0 for j in range(size)] for i in range(size)]
    assert determinant(big) == 10 ** (6 * size)


def test_spanning_tree_count_examples():
    assert spanning_tree_count(build_graph(2, 2)) == 5
    assert spanning_tree_count(build_graph(2, 3)) == 49
    assert spanning_tree_count(contract(build_graph(2, 2), [[1, 2]])) == 2


def test_spanning_tree_count_disconnected():
    g = MultiGraph(((0, 0, 0), (0, 0, 1), (0, 1, 0)))
    assert spanning_tree_count(g) == 0


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_spanning_tree_count_matches_brute_force(m, n):
    g = build_graph(m, n)
    assert spanning_tree_count(g) == oracles.spanning_trees_brute(g)
    for blocks in enumerate_partitions(n):
        h = contract(g, blocks)
        assert spanning_tree_count(h) == oracles.spanning_trees_brute(h)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 7))
def test_tree_count_closed_form(m, n):
    assert spanning_tree_count(build_graph(m, n)) == (n * m + 1) ** (n - 1)


def test_contracted_count_closed_form_examples():
    assert contracted_count_closed_form(2, 2, [[1, 2]]) == 2
    assert contracted_count_closed_form(2, 3, [[1], [2], [3]]) == 49
    assert contracted_count_closed_form(2, 3, [[1, 2], [3]]) == 14


@pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (3, 5)])
def test_contracted_counts_match_closed_form(m, n):
    g = build_graph(m, n)
    for blocks in enumerate_partitions(n):
        assert spanning_tree_count(contract(g, blocks)) == contracted_count_closed_form(
            m, n, blocks
        )


def test_mobius_examples():
    assert mobius([[1], [2]]) == 1
    assert mobius([[1, 2]]) == -1
    assert mobius([[1, 2, 3], [4, 5]]) == -2


def test_mobius_sums_to_zero_over_lattice():
    # the defining property of the Mobius function: summing mu over all
    # partitions coarser than the bottom (i.e. everything) gives 0 for n > 1
    for n in (2, 3, 4, 5):
        assert sum(mobius(s) for s in enumerate_partitions(n)) == 0


def test_enumerate_partitions_counts():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, expected in bell.items():
        parts = enumerate_partitions(n)
        assert len(parts) == expected
        assert len(set(parts)) == expected
        assert list(parts) == sorted(parts)
        for blocks in parts:
            assert sorted(i for b in blocks for i in b) == list(range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_types_count_every_set_partition(n):
    partitions = enumerate_partitions(n)
    by_type = Counter(tuple(sorted((len(b) for b in s), reverse=True)) for s in partitions)
    types = list(partition_types(n))
    assert sum(count for _, count in types) == len(partitions)
    assert {tuple(len(b) for b in s): count for s, count in types} == by_type
    for blocks, _ in types:
        assert blocks in partitions


def test_regular_orbit_count_mobius_examples():
    assert regular_orbit_count_mobius(2, 2) == 2  # (1/2)(5 - 2/2)
    assert regular_orbit_count_mobius(2, 3) == 5
    assert regular_orbit_count_mobius(1, 2) == 1  # (1/2)(3 - 2/2)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 6))
def test_regular_orbit_count_mobius_closed_form(m, n):
    assert regular_orbit_count_mobius(m, n) == math.comb(m * n, n) // ((m - 1) * n + 1)


@pytest.mark.parametrize("m", range(1, 4))
def test_regular_orbit_count_mobius_matches_fuss_catalan(m):
    for n in range(1, 13):
        assert regular_orbit_count_mobius(m, n) == fuss_catalan(m, n)


def test_compositions():
    assert list(compositions(1)) == [(1,)]
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions(6))) == 2**5


def test_composition_sum_examples():
    assert composition_sum(2, 7) == 3
    for x in (2, 5, 19):
        assert composition_sum(1, x) == 1
    assert composition_sum(3, 7) == 5


@pytest.mark.parametrize("n", range(1, 9))
def test_composition_sum_identity(n):
    for x in range(2, 21):
        assert composition_sum(n, x) == oracles.falling_factorial_form(n, x)


def test_volume_by_bases_examples():
    assert volume_by_bases(2, 2) == 5
    assert volume_by_bases(1, 2) == 3
    assert volume_by_bases(2, 3) == 49


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 4), (3, 3), (4, 2), (3, 5), (2, 6)])
def test_volume_by_bases_matches_tree_count(m, n):
    assert volume_by_bases(m, n) == spanning_tree_count(build_graph(m, n))


def test_volume_by_bases_guard():
    with pytest.raises(ValueError):
        volume_by_bases(2, 7)
