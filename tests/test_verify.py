import pytest

from zonopark import verify


def test_check_trees_skips_volume_by_bases_above_its_size_limit(monkeypatch):
    # verify --max-n 7 --max-m 1 used to reach volume_by_bases(1, 7), which
    # refuses that size; only the finest partition is kept so the guard is
    # reached without the full Bell(7) partition sweep
    m, n = 1, 7
    with pytest.raises(ValueError):
        verify.volume_by_bases(m, n)
    finest = tuple((i,) for i in range(1, n + 1))
    monkeypatch.setattr(verify, "enumerate_partitions", lambda size: (finest,))
    suite = verify._Suite(verify.DEFAULT_SEED)
    suite.check_trees(m, n)
    names = [r.name for r in suite.results]
    assert "volume_by_bases_agrees" not in names
    assert "tree_count_equals_lattice_count" in names
    assert all(r.ok for r in suite.results), [r for r in suite.results if not r.ok]


def test_check_trees_at_n7_runs_every_partition():
    # all Bell(7) = 877 partitions, with the invariant-point counts taken
    # from the representatives instead of a window^#blocks scan
    suite = verify._Suite(verify.DEFAULT_SEED)
    suite.check_trees(1, 7)
    assert [r.name for r in suite.results] == [
        "tree_count_closed_form",
        "contracted_closed_form",
        "tree_count_equals_lattice_count",
        "invariant_point_identity",
        "stabilizer_refinement_identity",
    ]
    assert all(r.ok for r in suite.results), [r for r in suite.results if not r.ok]
