"""The invariant registry behind the CLI ``verify`` command and the acceptance tests.

Each identity the library promises (tiling counts, boundary dichotomy, class
bijection, regular-orbit routes, tree counts, weight tables) is one public
function.  It takes its inputs explicitly and returns ``""`` when the identity
holds, else a detail naming the values it compared.  ``run_checks`` calls them
in one fixed order over a bounded (m, n) grid, the acceptance tests over theirs.

The bijection is S_n-equivariant, so the identities about orbits read one
member per orbit: the representatives or the weakly increasing parking
functions.  The point-wise checks accept any iterable of points or parking
functions; ``run_checks`` hands each a fresh lexicographic ``merge_orbits``
stream, six per (m, n), so it holds the representatives and one class bitmap
of (mn+1)^(n-1) bytes, never the points.  ``round_trip`` maps each point
there and back, and only counts the parking functions.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import combinations
from operator import add, gt, lt

from .orbits import merge_orbits, orbit_size, stabilizer_partition
from .parking import (
    class_index,
    fuss_catalan,
    increasing_parking_functions,
    lattice_to_parking,
    orbit_to_dyck,
    parking_to_lattice,
)
from .scalars import EpsRational, parse_scalar
from .tilting import (
    WINDOWS,
    WeightTable,
    color_window_start,
    dominant_weights,
    staircase,
    t_grid,
    tilting_weights,
    weight_spec,
)
from .treecount import (
    VOLUME_BY_BASES_MAX_N,
    MultiGraph,
    Partition,
    build_graph,
    contract,
    contracted_count_closed_form,
    composition_sum,
    enumerate_partitions,
    regular_orbit_count_mobius,
    spanning_tree_count,
    volume_by_bases,
)
from .zonotope import (
    ZonotopeSpec,
    count_invariant_points,
    count_lattice_points,
    has_boundary_lattice_point,
    support_bounds,
)

DEFAULT_SEED = 74207281
COMPOSITION_MAX_N = 8

Point = tuple[int, ...]


class CheckResult(namedtuple("CheckResult", "name m n ok detail", defaults=("",))):
    """One check's outcome; ``m`` and ``n`` are None for a check not tied to an (m, n)."""

    __slots__ = ()


def inadmissible_taus(m: int, n: int, count: int) -> list[EpsRational]:
    """Deterministic non-admissible rational shifts, increasing.

    They run through center + p/q for 0 <= p < q <= n, then the same plus 1,
    plus 2, and so on (center = m(n-1)/2); each has denominator <= n after
    the center is removed, so some lattice point lies on the boundary.
    """
    center = Fraction(m * (n - 1), 2)
    breaks = sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q)})
    return [EpsRational(center + i // len(breaks) + breaks[i % len(breaks)]) for i in range(count)]


def admissible_taus(m: int, n: int, count: int) -> list[EpsRational]:
    """Deterministic admissible shifts, one per admissibility window.

    The windows lie between consecutive inadmissible shifts; their midpoints
    have denominator > n after the center is removed, hence are admissible.
    """
    walls = inadmissible_taus(m, n, count + 1)
    return [(a + b) * Fraction(1, 2) for a, b in zip(walls, walls[1:])]


def sample_taus(m: int, n: int, count: int = 3) -> list[EpsRational]:
    """Admissible window midpoints plus the two one-sided infinitesimals."""
    center = Fraction(m * (n - 1), 2)
    return admissible_taus(m, n, count) + [EpsRational(center, -1), EpsRational(center, +1)]


def _differ(got, want) -> str:
    """``""`` when the two lists or sets are equal, else a few of each difference."""
    if got == want:
        return ""
    extra, missing = sorted(set(got) - set(want))[:3], sorted(set(want) - set(got))[:3]
    return f"{len(got)} vs {len(want)}: unexpected {extra}, missing {missing}"


def _strictly_decreasing(p: Point) -> bool:
    return all(map(gt, p, p[1:]))


def _unequal(got, want, what: str) -> str:
    return "" if got == want else f"{what}: {got} != {want}"


# -- scalar layer ------------------------------------------------------------


def _random_scalar(rng: random.Random) -> EpsRational:
    base = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
    return EpsRational(base, rng.randint(-3, 3))


def scalar_total_order(rng: random.Random) -> str:
    """Trichotomy, transitivity and translation invariance on random triples."""
    for _ in range(300):
        a, b, c = _random_scalar(rng), _random_scalar(rng), _random_scalar(rng)
        if (a < b) + (a == b) + (a > b) != 1:
            return f"trichotomy fails for {a}, {b}"
        if a < b and b < c and not a < c:
            return f"transitivity fails for {a}, {b}, {c}"
        if (a < b) != (a + c < b + c):
            return f"order not translation-invariant: {a}, {b}, {c}"
    return ""


def scalar_floor_ceil() -> str:
    """floor and ceil of k + c*eps step to the integer on the side of c."""
    for k in range(-4, 5):
        for coeff in (-2, -1, 1, 2):
            value = EpsRational(k, coeff)
            got = (math.floor(value), math.ceil(value))
            want = (k if coeff > 0 else k - 1, k if coeff < 0 else k + 1)
            if got != want:
                return f"floor, ceil of {value}: {got} != {want}"
    return ""


def scalar_text_round_trip(rng: random.Random) -> str:
    """Printing a scalar and parsing the text gives the scalar back."""
    for _ in range(200):
        value = _random_scalar(rng)
        if parse_scalar(str(value)) != value:
            return f"{value} parses back as {parse_scalar(str(value))}"
    return ""


def composition_identity() -> str:
    """The composition sum equals (x-1)...(x-n+1) / n! for n <= COMPOSITION_MAX_N."""
    for n in range(1, COMPOSITION_MAX_N + 1):
        for x in range(2, 21):
            want = Fraction(math.prod(x - j for j in range(1, n)), math.factorial(n))
            if composition_sum(n, x) != want:
                return f"n={n}, x={x}: {composition_sum(n, x)} != {want}"
    return ""


# -- zonotope layer ----------------------------------------------------------


def support_width(spec: ZonotopeSpec) -> str:
    """The sum of k coordinates ranges over an interval of width m*k*(n-k) + k."""
    for k in range(1, spec.n + 1):
        bounds = support_bounds(spec, k)
        if bounds.upper - bounds.lower != spec.m * k * (spec.n - k) + k:
            return f"width {bounds.upper - bounds.lower} at k={k}"
    return ""


def lattice_count_tiling_index(specs: list[ZonotopeSpec]) -> str:
    """Each spec is admissible, with (mn+1)^(n-1) points and none on the boundary.

    Its points fall into A_n(m+1, 1) orbits: the bijection is S_n-equivariant,
    so the orbits match the weakly increasing (m, n)-parking functions.
    """
    for spec in specs:
        m, n = spec.m, spec.n
        got = (
            spec.admissible,
            count_lattice_points(spec),
            has_boundary_lattice_point(spec),
            len(spec.representatives),
        )
        want = (True, (m * n + 1) ** (n - 1), False, fuss_catalan(m + 1, n))
        if got != want:
            return f"admissible, points, boundary point, orbits at tau={spec.tau}: {got} != {want}"
    return ""


def inadmissible_has_boundary_point(specs: list[ZonotopeSpec]) -> str:
    """Each spec is inadmissible and has a lattice point on its boundary."""
    for spec in specs:
        got = (spec.admissible, has_boundary_lattice_point(spec))
        if got != (False, True):
            return f"admissible, boundary point at tau={spec.tau}: {got}"
    return ""


def sn_invariance(points: Iterable[Point]) -> str:
    """The points, strictly increasing in lex order, are closed under coordinate permutations."""
    counts: Counter[Point] = Counter()
    previous = None
    for p in points:
        if previous is not None and p <= previous:
            return f"{p} follows {previous}: not strictly increasing"
        previous = p
        counts[tuple(sorted(p))] += 1
    for multiset, count in counts.items():
        if count != orbit_size(multiset):
            return f"{count} of the {orbit_size(multiset)} permutations of {multiset}"
    return ""


def translation_law(spec: ZonotopeSpec) -> str:
    """The representatives at tau + 1 are those at tau shifted by (1, ..., 1), in order.

    The shift adds n to every coordinate total and keeps lex order within a
    total, so it keeps the order of the representatives; the points, their
    orbits, then shift with them.
    """
    got = ZonotopeSpec(spec.m, spec.n, spec.tau + 1).representatives
    want = tuple(tuple(c + 1 for c in rep) for rep in spec.representatives)
    if got == want:
        return ""
    index = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    a, b = (reps[index] if index < len(reps) else None for reps in (got, want))
    return f"representative {index} at tau={spec.tau + 1}: {a} != {b}"


# -- parking layer -----------------------------------------------------------


def class_bijection(m: int, n: int, points: Iterable[Point], functions: Iterable[Point]) -> str:
    """Points and parking functions each meet every class mod (mn+1)Z^n + Z(1,...,1) once."""
    modulus = m * n + 1
    classes = modulus ** (n - 1)
    # one byte a class; bit 1 marks a point, bit 2 a parking function
    marks = bytearray(classes)
    for what, bit, elements in (("points", 1, points), ("parking functions", 2, functions)):
        count = 0
        for x in elements:
            index = class_index(x, m, n)
            if marks[index] & bit:
                return f"{what}: class of {x} met twice"
            marks[index] |= bit
            count += 1
        if count != classes:
            return f"{what}: {count} classes, not (mn+1)^(n-1) = {classes}"
    return ""


def round_trip(spec: ZonotopeSpec, points: Iterable[Point], functions: Iterable[Point]) -> str:
    """lattice_to_parking and parking_to_lattice invert each other on both sets.

    Only the points are mapped: each point x must come back as
    parking_to_lattice(lattice_to_parking(x)).  That makes lattice_to_parking
    injective, and each of its images parks, or the map would raise.  The
    parking functions are only counted, and must be strictly increasing in
    lex order, hence distinct.  If they are as many as the points, the
    images are all of them, so lattice_to_parking(parking_to_lattice(f)) is
    f for each f too.  The premise is that the two streams hold every point
    and every parking function; lattice_count_tiling_index and
    class_bijection check the point set.
    """
    count = 0
    for count, x in enumerate(points, 1):
        image = lattice_to_parking(x, spec)
        back = parking_to_lattice(image, spec)
        if back != x:
            return f"{x} -> {image} -> {back}"
    previous, total = None, 0
    for total, f in enumerate(functions, 1):
        if previous is not None and f <= previous:
            return f"parking function {f} follows {previous}: not strictly increasing"
        previous = f
    return _unequal(total, count, "parking functions vs points")


def equivariance(spec: ZonotopeSpec, rng: random.Random, samples: int) -> str:
    """lattice_to_parking commutes with random permutations of random points.

    Each point is a random arrangement of a random representative, so the
    samples are drawn without walking the points.
    """
    reps, n = spec.representatives, spec.n
    for _ in range(samples):
        rep = rng.choice(reps)
        x = tuple(rep[i] for i in rng.sample(range(n), n))
        perm = rng.sample(range(n), n)
        left = lattice_to_parking(tuple(x[p] for p in perm), spec)
        image = lattice_to_parking(x, spec)
        right = tuple(image[p] for p in perm)
        if left != right:
            return f"at x={x}, perm={perm}: {left} != {right}"
    return ""


def regular_orbit_routes(m: int, n: int, points: Iterable[Point], dyck: list[Point]) -> str:
    """Regular orbits, Dyck paths, Mobius inversion and Fuss-Catalan give one count."""
    # each regular orbit has one strictly decreasing member, among the
    # representatives as among permutation-closed points
    orbits, mobius = sum(map(_strictly_decreasing, points)), regular_orbit_count_mobius(m, n)
    routes = dict(orbits=orbits, dyck=len(dyck), mobius=mobius, closed_form=fuss_catalan(m, n))
    return "" if len(set(routes.values())) == 1 else str(routes)


def orbit_to_dyck_bijection(functions: Iterable[Point], dyck: list[Point]) -> str:
    """orbit_to_dyck maps the strictly increasing parking functions onto the Dyck paths.

    ``functions`` may be all parking functions or only the weakly increasing
    ones: each regular orbit has exactly one strictly increasing member in both.
    """
    increasing = [a for a in functions if all(map(lt, a, a[1:]))]
    images = {orbit_to_dyck(a) for a in increasing}
    if len(images) != len(increasing):
        return f"{len(increasing)} increasing parking functions, {len(images)} images"
    return _differ(images, set(dyck))


# -- spanning trees ----------------------------------------------------------


def contracted_tree_counts(graph: MultiGraph) -> dict[Partition, int]:
    """The spanning-tree count of each contraction of the graph, by set partition."""
    partitions = enumerate_partitions(graph.order - 1)
    return {blocks: spanning_tree_count(contract(graph, blocks)) for blocks in partitions}


def tree_count_closed_form(m: int, n: int, graph: MultiGraph) -> str:
    """The graph has (mn+1)^(n-1) spanning trees."""
    return _unequal(spanning_tree_count(graph), (m * n + 1) ** (n - 1), "spanning trees")


def contracted_closed_form(m: int, n: int, trees: dict[Partition, int]) -> str:
    """Each contracted count is n_1 * ... * n_t * (mn+1)^(t-1)."""
    for blocks, count in trees.items():
        if count != contracted_count_closed_form(m, n, blocks):
            return f"{count} trees at {blocks}"
    return ""


def tree_count_equals_lattice_count(spec: ZonotopeSpec, graph: MultiGraph) -> str:
    """The graph has as many spanning trees as the zonotope has lattice points."""
    return _unequal(spanning_tree_count(graph), count_lattice_points(spec), "trees vs points")


def volume_by_bases_agrees(m: int, n: int, graph: MultiGraph) -> str:
    """The determinant-weighted count of bases equals the spanning-tree count."""
    return _unequal(volume_by_bases(m, n), spanning_tree_count(graph), "volume vs trees")


def invariant_point_identity(spec: ZonotopeSpec, trees: dict[Partition, int]) -> str:
    """Contracted trees = block-size product * points constant on each block.

    The invariant-point count depends only on the sorted block sizes, so it
    is taken once per size type.
    """
    by_sizes: dict[tuple[int, ...], int] = {}
    for blocks, count in trees.items():
        sizes = tuple(sorted(map(len, blocks)))
        if sizes not in by_sizes:
            by_sizes[sizes] = count_invariant_points(spec, blocks)
        invariant = by_sizes[sizes]
        if count != math.prod(sizes) * invariant:
            return f"{count} trees, {invariant} invariant points at {blocks}"
    return ""


def _shared_pairs(blocks: Partition) -> int:
    """One bit for each pair of positions that lie in the same block."""
    n = sum(map(len, blocks))
    return sum(1 << (i * n + j) for block in blocks for i, j in combinations(block, 2))


def stabilizer_refinement_identity(points: Iterable[Point], trees: dict[Partition, int]) -> str:
    """Contracted trees = block-size product * points whose stabilizer is coarser."""
    # equal coordinates share the position of their first copy, so these
    # patterns have the stabilizers of the points they come from
    patterns = Counter(tuple(map(p.index, p)) for p in points)
    histogram: Counter[Partition] = Counter()
    for pattern, count in patterns.items():
        histogram[stabilizer_partition(pattern)] += count
    # a partition refines a stabilizer iff the stabilizer keeps together
    # every pair of positions the partition keeps together
    shared = [(_shared_pairs(s), c) for s, c in histogram.items()]
    for blocks, count in trees.items():
        pairs = _shared_pairs(blocks)
        coarser = sum(c for together, c in shared if pairs & together == pairs)
        if count != math.prod(map(len, blocks)) * coarser:
            return f"{count} trees, {coarser} points with a coarser stabilizer at {blocks}"
    return ""


# -- weight tables -----------------------------------------------------------


def table_size(tables: list[WeightTable]) -> str:
    """Each table holds A_n(m, 1) weights."""
    for table in tables:
        if len(table.weights) != fuss_catalan(table.m, table.n):
            return f"{len(table.weights)} weights at t={table.t}"
    return ""


def color_window(tables: list[WeightTable]) -> str:
    """Colors lie in {u, ..., u+n-1}, and for m >= 2 fill it."""
    for table in tables:
        u = color_window_start(table.n, table.tau)
        window = list(range(u, u + table.n))
        colors = sorted({sum(xi) for xi in table.weights})
        if not set(colors) <= set(window) or (table.m >= 2 and colors != window):
            return f"colors {colors} at t={table.t}, window {window}"
    return ""


def weight_translation(tables: list[WeightTable]) -> str:
    """Shifting tau by 1 adds (1, ..., 1) to each weight and keeps the table order."""
    for table in tables:
        shifted = dominant_weights(table.m, table.n, table.tau + 1)
        want = tuple(tuple(c + 1 for c in w) for w in table.weights)
        if shifted != want:
            return f"weights at tau={table.tau + 1}: {shifted[:4]} != {want[:4]}"
    return ""


def staircase_shift_bijection(table: WeightTable) -> str:
    """Adding the staircase to the weights gives the regular dominant points.

    The bijection restricts to them one multiplicity down: for each weight
    xi and x = xi + staircase, the sorted parking function of x minus
    (0, 1, ..., n-1) is the sorted parking function of xi on
    Z(m - 1, n, tau - (n-1)/2).
    """
    spec = ZonotopeSpec(table.m, table.n, table.tau)
    # a strictly decreasing point is the representative of its own orbit
    regular_dominant = set(filter(_strictly_decreasing, spec.representatives))
    steps = staircase(table.n)
    lifted = {xi: tuple(map(add, xi, steps)) for xi in table.weights}
    detail = _differ(set(lifted.values()), regular_dominant)
    if detail:
        return detail
    down = weight_spec(table.m, table.n, table.tau)
    for xi, x in lifted.items():
        restricted = tuple(a - k for k, a in enumerate(sorted(lattice_to_parking(x, spec))))
        below = tuple(sorted(lattice_to_parking(xi, down)))
        if restricted != below:
            return f"{x} maps to {restricted} less (0, ..., n-1), {xi} one multiplicity down to {below}"
    return ""


def run_checks(max_m: int, max_n: int, seed: int = DEFAULT_SEED) -> Iterator[CheckResult]:
    """Each invariant's result for 1 <= m <= max_m, 1 <= n <= max_n, yielded as it is made."""
    rng = random.Random(seed)

    def run(m: int | None, n: int | None, checks) -> Iterator[CheckResult]:
        for check, *inputs in checks:
            detail = check(*inputs)
            yield CheckResult(check.__name__, m, n, not detail, detail)

    scalar_checks = [(scalar_total_order, rng), (scalar_floor_ceil,), (scalar_text_round_trip, rng)]
    yield from run(None, None, [*scalar_checks, (composition_identity,)])
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            # inputs shared by several checks of this (m, n), made once; each
            # point-wise check gets its own lazy stream of the points or the
            # parking functions
            specs = [ZonotopeSpec(m, n, tau) for tau in sample_taus(m, n)]
            spec, reps = specs[0], specs[0].representatives
            increasing = tuple(increasing_parking_functions(m, n))
            dyck = tuple(increasing_parking_functions(m - 1, n))
            graph = build_graph(m, n)
            trees = contracted_tree_counts(graph)
            tables = [tilting_weights(m, n, t, window) for window in WINDOWS for t in t_grid(n)]
            inadmissible = [ZonotopeSpec(m, n, tau) for tau in inadmissible_taus(m, n, 3)]
            # the subset count of volume_by_bases explodes beyond these sizes
            bases = n <= VOLUME_BY_BASES_MAX_N and (n <= 4 or m <= 2)
            checks = [
                (support_width, spec),
                (lattice_count_tiling_index, specs),
                (inadmissible_has_boundary_point, inadmissible),
                (sn_invariance, merge_orbits(reps)),
                (translation_law, spec),
                (class_bijection, m, n, merge_orbits(reps), merge_orbits(increasing)),
                (round_trip, spec, merge_orbits(reps), merge_orbits(increasing)),
                (equivariance, spec, rng, 20),
                (regular_orbit_routes, m, n, reps, dyck),
                (orbit_to_dyck_bijection, increasing, dyck),
                (tree_count_closed_form, m, n, graph),
                (contracted_closed_form, m, n, trees),
                (tree_count_equals_lattice_count, spec, graph),
                *([(volume_by_bases_agrees, m, n, graph)] if bases else []),
                (invariant_point_identity, spec, trees),
                (stabilizer_refinement_identity, merge_orbits(reps), trees),
                (table_size, tables),
                (color_window, tables),
                (weight_translation, tables),
                (staircase_shift_bijection, tables[0]),
            ]
            yield from run(m, n, checks)
