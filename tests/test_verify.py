import functools
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import zonopark
from zonopark import parking, verify, zonotope
from zonopark.parking import enumerate_parking_functions, increasing_parking_functions
from zonopark.scalars import EpsRational
from zonopark.tilting import t_grid, tilting_weights
from zonopark.treecount import build_graph
from zonopark.zonotope import SupportBounds, ZonotopeSpec, enumerate_lattice_points

M, N = 2, 3

TREE_CHECKS = {
    "tree_count_closed_form",
    "contracted_closed_form",
    "tree_count_equals_lattice_count",
    "volume_by_bases_agrees",
    "invariant_point_identity",
    "stabilizer_refinement_identity",
}


@pytest.fixture(scope="module")
def case():
    """The inputs run_checks builds for (M, N), all of them true."""
    specs = [ZonotopeSpec(M, N, tau) for tau in verify.sample_taus(M, N)]
    graph = build_graph(M, N)
    return SimpleNamespace(
        specs=specs,
        spec=specs[0],
        points=enumerate_lattice_points(specs[0]),
        functions=enumerate_parking_functions(M, N),
        dyck=list(increasing_parking_functions(M - 1, N)),
        graph=graph,
        trees=verify.contracted_tree_counts(graph),
        tables=[tilting_weights(M, N, t) for t in t_grid(N)],
    )


def test_every_invariant_holds_on_the_true_inputs():
    results = list(verify.run_checks(max_m=M, max_n=N, seed=5))
    assert all(r.ok and r.detail == "" for r in results), [r for r in results if not r.ok]


# -- each invariant must be able to fail ---------------------------------------
#
# Every function below feeds one registry invariant a corrupted input (or a
# broken operation, for the checks whose only input is an rng) and returns
# the invariant's answer, which must be a nonempty failure detail.

CORRUPTIONS = {}


def corrupts(check):
    def register(corrupt):
        CORRUPTIONS[check.__name__] = corrupt
        return corrupt

    return register


@corrupts(verify.scalar_total_order)
def _(case, monkeypatch):
    monkeypatch.setattr(EpsRational, "__lt__", lambda a, b: False)
    return verify.scalar_total_order(random.Random(5))


@corrupts(verify.scalar_floor_ceil)
def _(case, monkeypatch):
    monkeypatch.setattr(EpsRational, "__floor__", lambda value: 0)
    return verify.scalar_floor_ceil()


@corrupts(verify.scalar_text_round_trip)
def _(case, monkeypatch):
    parse = verify.parse_scalar
    monkeypatch.setattr(verify, "parse_scalar", lambda text: parse(text) + 1)
    return verify.scalar_text_round_trip(random.Random(5))


@corrupts(verify.composition_identity)
def _(case, monkeypatch):
    composition_sum = verify.composition_sum
    monkeypatch.setattr(
        verify, "composition_sum", lambda n, x: composition_sum(n, x) + (n == 5 and x == 7)
    )
    return verify.composition_identity()


@corrupts(verify.support_width)
def _(case, monkeypatch):
    support_bounds = verify.support_bounds

    def one_too_wide(spec, k):
        bounds = support_bounds(spec, k)
        return SupportBounds(k, bounds.lower, bounds.upper + (k == 2))

    monkeypatch.setattr(verify, "support_bounds", one_too_wide)
    return verify.support_width(case.spec)


@corrupts(verify.lattice_count_tiling_index)
def _(case, monkeypatch):
    # a shift on a breakpoint, one step off its admissible window
    return verify.lattice_count_tiling_index(
        [*case.specs, ZonotopeSpec(M, N, verify.inadmissible_taus(M, N, 1)[0])]
    )


@corrupts(verify.inadmissible_has_boundary_point)
def _(case, monkeypatch):
    return verify.inadmissible_has_boundary_point([case.spec])


@corrupts(verify.sn_invariance)
def _(case, monkeypatch):
    dropped = next(p for p in case.points if len(set(p)) > 1)
    return verify.sn_invariance([p for p in case.points if p != dropped])


def _without_representative(spec, index):
    """A copy of the spec whose cached representatives lack the one at ``index``."""
    spec = ZonotopeSpec(spec.m, spec.n, spec.tau)
    reps = spec.representatives
    spec.__dict__["representatives"] = reps[:index] + reps[index + 1 :]
    return spec


@corrupts(verify.translation_law)
def _(case, monkeypatch):
    return verify.translation_law(_without_representative(case.spec, 0))


@corrupts(verify.class_bijection)
def _(case, monkeypatch):
    return verify.class_bijection(M, N, case.points, case.functions[1:])


@corrupts(verify.round_trip)
def _(case, monkeypatch):
    # one parking function lifts to the point of another
    lift, stray = verify.parking_to_lattice, case.functions[3]
    monkeypatch.setattr(
        verify,
        "parking_to_lattice",
        lambda a, spec: lift(case.functions[0] if a == stray else a, spec),
    )
    return verify.round_trip(case.spec, case.points, case.functions)


@corrupts(verify.equivariance)
def _(case, monkeypatch):
    # sorting every parking image forgets which coordinate parked where
    image = verify.lattice_to_parking
    monkeypatch.setattr(
        verify, "lattice_to_parking", lambda x, spec: tuple(sorted(image(x, spec)))
    )
    return verify.equivariance(case.spec, random.Random(5), 20)


@corrupts(verify.regular_orbit_routes)
def _(case, monkeypatch):
    return verify.regular_orbit_routes(M, N, case.points, case.dyck[1:])


@corrupts(verify.orbit_to_dyck_bijection)
def _(case, monkeypatch):
    return verify.orbit_to_dyck_bijection(case.functions, case.dyck[1:])


@corrupts(verify.tree_count_closed_form)
def _(case, monkeypatch):
    return verify.tree_count_closed_form(M, N, build_graph(M + 1, N))


@corrupts(verify.contracted_closed_form)
def _(case, monkeypatch):
    finest = tuple((i,) for i in range(1, N + 1))
    return verify.contracted_closed_form(M, N, {**case.trees, finest: case.trees[finest] + 1})


@corrupts(verify.tree_count_equals_lattice_count)
def _(case, monkeypatch):
    return verify.tree_count_equals_lattice_count(
        ZonotopeSpec(M + 1, N, verify.sample_taus(M + 1, N)[0]), case.graph
    )


@corrupts(verify.volume_by_bases_agrees)
def _(case, monkeypatch):
    return verify.volume_by_bases_agrees(M, N, build_graph(M + 1, N))


@corrupts(verify.invariant_point_identity)
def _(case, monkeypatch):
    coarsest = (tuple(range(1, N + 1)),)
    return verify.invariant_point_identity(
        case.spec, {**case.trees, coarsest: case.trees[coarsest] + 1}
    )


@corrupts(verify.stabilizer_refinement_identity)
def _(case, monkeypatch):
    return verify.stabilizer_refinement_identity(case.points[1:], case.trees)


@corrupts(verify.table_size)
def _(case, monkeypatch):
    table = case.tables[-1]
    return verify.table_size([*case.tables, table._replace(weights=table.weights[1:])])


@corrupts(verify.color_window)
def _(case, monkeypatch):
    table = case.tables[0]
    top = max(sum(w) for w in table.weights)
    kept = tuple(w for w in table.weights if sum(w) != top)
    return verify.color_window([table._replace(weights=kept)])


@corrupts(verify.weight_translation)
def _(case, monkeypatch):
    table = case.tables[0]
    return verify.weight_translation([table._replace(weights=table.weights[::-1])])


@corrupts(verify.staircase_shift_bijection)
def _(case, monkeypatch):
    table = case.tables[0]
    return verify.staircase_shift_bijection(table._replace(weights=table.weights[1:]))


def test_staircase_shift_bijection_reports_a_wrong_map_one_multiplicity_down(case, monkeypatch):
    # the weights are right, so only the restricted bijection can fail
    real = verify.lattice_to_parking

    def off_below(x, spec):
        image = real(x, spec)
        return image if spec.m == M else (*image[:-1], image[-1] + 1)

    monkeypatch.setattr(verify, "lattice_to_parking", off_below)
    detail = verify.staircase_shift_bijection(case.tables[0])
    assert "one multiplicity down" in detail


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_invariant_reports_a_corrupted_input(case, monkeypatch, name):
    detail = CORRUPTIONS[name](case, monkeypatch)
    assert isinstance(detail, str) and detail, f"{name} accepted a corrupted input"


def test_stabilizer_refinement_identity_reports_each_wrong_tree_count(case):
    # one tree count off by one, at each partition in turn
    for blocks in case.trees:
        trees = {**case.trees, blocks: case.trees[blocks] + 1}
        assert verify.stabilizer_refinement_identity(case.points, trees), blocks


def test_every_invariant_has_a_corrupted_input():
    names = {r.name for r in verify.run_checks(max_m=1, max_n=2)}
    assert names == set(CORRUPTIONS)


def test_run_checks_reads_the_high_window_tables(monkeypatch):
    # a window start that is off only for a shift with a positive eps part,
    # which only the tables of the high window have
    start = verify.color_window_start
    monkeypatch.setattr(
        verify, "color_window_start", lambda n, tau: start(n, tau) + (tau.eps_coeff > 0)
    )
    failed = {r.name for r in verify.run_checks(max_m=M, max_n=N) if not r.ok}
    assert failed == {"color_window"}


def test_run_checks_yields_each_result_as_it_is_made(monkeypatch):
    # the scalar and composition results come before any (m, n) input is
    # built; the first such input is the representatives the streams start from
    def unreachable(spec):
        raise RuntimeError("lattice points built before the first results")

    monkeypatch.setattr(ZonotopeSpec, "representatives", property(unreachable))
    results = verify.run_checks(max_m=1, max_n=1)
    first = [next(results).name for _ in range(4)]
    assert first == [
        "scalar_total_order",
        "scalar_floor_ceil",
        "scalar_text_round_trip",
        "composition_identity",
    ]
    with pytest.raises(RuntimeError, match="lattice points built"):
        next(results)


# -- streamed inputs -----------------------------------------------------------


def test_run_checks_never_builds_the_point_or_parking_lists(monkeypatch):
    def refuse(*args):
        raise RuntimeError("a list of every point or parking function was built")

    for module in (verify, zonotope, parking, zonopark):
        for name in ("enumerate_lattice_points", "enumerate_parking_functions"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    results = list(verify.run_checks(max_m=2, max_n=4))
    assert (results[-1].m, results[-1].n) == (2, 4)
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def _stream(points):
    return (p for p in points)


def test_run_checks_walks_six_streams_per_m_n(monkeypatch):
    # four of points (sn_invariance, class_bijection, round_trip and
    # stabilizer_refinement_identity) and two of parking functions
    # (class_bijection and round_trip); the orbit-level checks walk none
    streams = []
    merge = verify.merge_orbits
    monkeypatch.setattr(verify, "merge_orbits", lambda reps: streams.append(reps) or merge(reps))
    results = list(verify.run_checks(max_m=2, max_n=3))
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert len(streams) == 6 * 2 * 3 == 36


def test_sn_invariance_reports_a_repeated_point(case):
    points = list(case.points)
    points.insert(5, points[5])
    assert "not strictly increasing" in verify.sn_invariance(_stream(points))


def test_sn_invariance_reports_a_stream_out_of_lex_order(case):
    points = list(case.points)
    points[3], points[4] = points[4], points[3]
    assert "not strictly increasing" in verify.sn_invariance(_stream(points))


def test_translation_law_reports_a_missing_last_representative(case):
    reps = case.spec.representatives
    detail = verify.translation_law(_without_representative(case.spec, len(reps) - 1))
    assert detail == (
        f"representative {len(reps) - 1} at tau={case.spec.tau + 1}: "
        f"{tuple(c + 1 for c in reps[-1])} != None"
    )


def test_class_bijection_reports_a_class_met_twice(case):
    points = [*case.points[:7], case.points[6], *case.points[8:]]
    detail = verify.class_bijection(M, N, _stream(points), _stream(case.functions))
    assert detail == f"points: class of {case.points[6]} met twice"


# the parking functions are only counted, so a stream that maps back and
# forth correctly but lacks or repeats one function fails only on its count
# or its order


def test_round_trip_reports_a_dropped_parking_function(case):
    functions = [*case.functions[:4], *case.functions[5:]]
    detail = verify.round_trip(case.spec, _stream(case.points), _stream(functions))
    assert detail == f"parking functions vs points: {len(functions)} != {len(case.points)}"


def test_round_trip_reports_a_repeated_parking_function(case):
    functions = [*case.functions[:5], case.functions[4], *case.functions[5:]]
    detail = verify.round_trip(case.spec, _stream(case.points), _stream(functions))
    assert detail == (
        f"parking function {case.functions[4]} follows {case.functions[4]}: not strictly increasing"
    )


def test_round_trip_calls_each_map_once_per_point(case, monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(verify, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in ("lattice_to_parking", "parking_to_lattice"):
        monkeypatch.setattr(verify, name, counted(name))
    assert verify.round_trip(case.spec, _stream(case.points), _stream(case.functions)) == ""
    assert calls == {
        "lattice_to_parking": len(case.points),
        "parking_to_lattice": len(case.points),
    }


def test_invariant_point_identity_counts_once_per_block_size_type(case, monkeypatch):
    # at N = 3 the five set partitions have three block-size types
    calls = []
    count = verify.count_invariant_points
    monkeypatch.setattr(
        verify,
        "count_invariant_points",
        lambda spec, blocks: calls.append(blocks) or count(spec, blocks),
    )
    assert verify.invariant_point_identity(case.spec, case.trees) == ""
    assert len(case.trees) == 5
    assert sorted(sorted(map(len, blocks)) for blocks in calls) == [[1, 1, 1], [1, 2], [3]]


def test_invariant_point_identity_reports_each_wrong_tree_count(case):
    # a count off by one at a partition whose type was counted before
    for blocks in case.trees:
        trees = {**case.trees, blocks: case.trees[blocks] + 1}
        assert verify.invariant_point_identity(case.spec, trees) == (
            f"{trees[blocks]} trees, "
            f"{case.trees[blocks] // math.prod(map(len, blocks))} invariant points at {blocks}"
        )


def test_equivariance_walks_no_point_stream(case, monkeypatch):
    def refuse(reps):
        raise RuntimeError("equivariance walked the points")

    monkeypatch.setattr(verify, "merge_orbits", refuse)
    assert verify.equivariance(case.spec, random.Random(5), 20) == ""


def test_lattice_count_tiling_index_reports_a_missing_orbit(case, monkeypatch):
    # the point count is kept true, so only the orbit count can tell
    points = (M * N + 1) ** (N - 1)
    reps = case.spec.representatives
    spec = _without_representative(case.spec, 2)
    monkeypatch.setattr(verify, "count_lattice_points", lambda spec: points)
    detail = verify.lattice_count_tiling_index([spec])
    assert detail.endswith(
        f"{(True, points, False, len(reps) - 1)} != {(True, points, False, len(reps))}"
    )


# -- the size guard and the full partition sweep at n = 7 ----------------------


def test_run_checks_skips_volume_by_bases_above_its_size_limit(monkeypatch):
    # verify --max-n 7 --max-m 1 used to reach volume_by_bases(1, 7), which
    # refuses that size.  Only the finest partition is kept, and every check
    # outside the tree layer answers at once, so the grid up to n = 7 is
    # reached without the Bell(7) partition sweep, and the point and parking
    # streams those checks would read are never walked.
    with pytest.raises(ValueError):
        verify.volume_by_bases(1, 7)
    monkeypatch.setattr(
        verify, "enumerate_partitions", lambda size: (tuple((i,) for i in range(1, size + 1)),)
    )
    for name in set(CORRUPTIONS) - TREE_CHECKS:
        answer = functools.wraps(getattr(verify, name))(lambda *inputs: "")
        monkeypatch.setattr(verify, name, answer)
    results = list(verify.run_checks(max_m=1, max_n=7))
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    tree_names = {
        n: [r.name for r in results if r.name in TREE_CHECKS and r.n == n]
        for n in (6, 7)
    }
    assert tree_names[6] == [
        "tree_count_closed_form",
        "contracted_closed_form",
        "tree_count_equals_lattice_count",
        "volume_by_bases_agrees",
        "invariant_point_identity",
        "stabilizer_refinement_identity",
    ]
    assert tree_names[7] == [name for name in tree_names[6] if name != "volume_by_bases_agrees"]


def test_tree_invariants_at_n7_run_every_partition():
    # all Bell(7) = 877 partitions, with the invariant-point counts taken
    # from the representatives instead of a window^#blocks scan
    m, n = 1, 7
    spec = ZonotopeSpec(m, n, verify.sample_taus(m, n)[0])
    graph = build_graph(m, n)
    trees = verify.contracted_tree_counts(graph)
    assert len(trees) == 877
    details = [
        verify.tree_count_closed_form(m, n, graph),
        verify.contracted_closed_form(m, n, trees),
        verify.tree_count_equals_lattice_count(spec, graph),
        verify.invariant_point_identity(spec, trees),
        verify.stabilizer_refinement_identity(enumerate_lattice_points(spec), trees),
    ]
    assert details == [""] * 5
