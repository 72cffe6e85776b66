"""Self-contained invariant checks behind the CLI ``verify`` command.

Every structural identity the library promises is re-checked here over a
bounded (m, n) grid with deterministically sampled shift parameters: tiling
counts, boundary dichotomy, class bijections, the three regular-orbit
counting routes, spanning-tree closed forms, stabilizer refinement
identities, and the weight-table properties.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .orbits import is_regular, regular_orbit_reps, stabilizer_partition
from .parking import (
    canonical_class,
    enumerate_dyck_paths,
    enumerate_parking_functions,
    fuss_catalan,
    lattice_to_parking,
    orbit_to_dyck,
    parking_to_lattice,
)
from .scalars import EpsRational, parse_scalar
from .tilting import (
    color_blocks,
    color_window_start,
    dominant_weights,
    staircase,
    t_grid,
    tilting_weights,
)
from .treecount import (
    VOLUME_BY_BASES_MAX_N,
    build_graph,
    contract,
    contracted_count_closed_form,
    composition_sum,
    enumerate_partitions,
    refines,
    regular_orbit_count_mobius,
    spanning_tree_count,
    volume_by_bases,
)
from .zonotope import (
    ZonotopeSpec,
    count_invariant_points,
    count_lattice_points,
    enumerate_lattice_points,
    has_boundary_lattice_point,
    is_admissible,
    support_bounds,
)

DEFAULT_SEED = 74207281


@dataclass
class CheckResult:
    name: str
    params: dict
    ok: bool
    detail: str = ""


def admissible_taus(m: int, n: int, count: int) -> list[EpsRational]:
    """Deterministic admissible shifts, one per admissibility window.

    Midpoints of consecutive breakpoints {p/q : q <= n} have denominator
    > n, hence are admissible; integer shifts of the breakpoint pattern
    give further, distinct windows.
    """
    center = Fraction(m * (n - 1), 2)
    breaks = sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})
    mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
    values: list[EpsRational] = []
    shift = 0
    while len(values) < count:
        for mid in mids:
            values.append(EpsRational(center + shift + mid))
            if len(values) == count:
                break
        shift += 1
    return values


def inadmissible_taus(m: int, n: int, count: int) -> list[EpsRational]:
    """Deterministic non-admissible rational shifts (denominator <= n)."""
    center = Fraction(m * (n - 1), 2)
    breaks = sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})
    values: list[EpsRational] = []
    shift = 0
    while len(values) < count:
        for offset in breaks[:-1]:
            values.append(EpsRational(center + shift + offset))
            if len(values) == count:
                break
        shift += 1
    return values


def sample_taus(m: int, n: int, count: int = 3) -> list[EpsRational]:
    """Admissible window midpoints plus the two one-sided infinitesimals."""
    center = Fraction(m * (n - 1), 2)
    extras = [EpsRational(center, -1), EpsRational(center, +1)]
    return admissible_taus(m, n, count) + extras


def _perm_apply(perm, x):
    return tuple(x[p] for p in perm)


class _Suite:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.results: list[CheckResult] = []
        # (m, n), the spec at the first sampled shift and its lattice points
        self._tau0: tuple[tuple[int, int], ZonotopeSpec, list[tuple[int, ...]]] | None = None

    def tau0_lattice(self, m: int, n: int) -> tuple[ZonotopeSpec, list[tuple[int, ...]]]:
        """The spec at the first sampled shift and its lattice points.

        Several checks of one (m, n) read them, so the latest (m, n) is kept.
        """
        if self._tau0 is None or self._tau0[0] != (m, n):
            spec = ZonotopeSpec(m, n, sample_taus(m, n)[0])
            self._tau0 = ((m, n), spec, enumerate_lattice_points(spec))
        return self._tau0[1], self._tau0[2]

    def record(self, name: str, params: dict, ok: bool, detail: str = ""):
        self.results.append(CheckResult(name=name, params=params, ok=ok, detail=detail))

    # -- scalar layer ------------------------------------------------------

    def check_scalars(self):
        rng = self.rng

        def rand_scalar():
            base = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            return EpsRational(base, rng.randint(-3, 3))

        ok = True
        detail = ""
        for _ in range(300):
            a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
            if (a < b) + (a == b) + (a > b) != 1:
                ok, detail = False, f"trichotomy fails for {a}, {b}"
                break
            if a < b and b < c and not a < c:
                ok, detail = False, f"transitivity fails for {a}, {b}, {c}"
                break
            if (a < b) != (a + c < b + c):
                ok, detail = False, f"order not translation-invariant: {a}, {b}, {c}"
                break
        self.record("scalar_total_order", {}, ok, detail)

        ok = True
        detail = ""
        for k in range(-4, 5):
            for coeff in (-2, -1, 1, 2):
                value = EpsRational(k, coeff)
                if math.floor(value) != (k if coeff > 0 else k - 1):
                    ok, detail = False, f"floor({value})"
                if math.ceil(value) != (k if coeff < 0 else k + 1):
                    ok, detail = False, f"ceil({value})"
        self.record("scalar_floor_ceil", {}, ok, detail)

        ok = True
        detail = ""
        for _ in range(200):
            value = rand_scalar()
            if parse_scalar(str(value)) != value:
                ok, detail = False, f"round trip fails for {value}"
                break
        self.record("scalar_text_round_trip", {}, ok, detail)

    # -- zonotope layer ----------------------------------------------------

    def check_zonotope(self, m: int, n: int):
        params = {"m": m, "n": n}
        expected = (m * n + 1) ** (n - 1)

        ok = True
        detail = ""
        spec = ZonotopeSpec(m, n, EpsRational(0, -1))
        for k in range(1, n + 1):
            bounds = support_bounds(spec, k)
            if bounds.upper - bounds.lower != m * k * (n - k) + k:
                ok, detail = False, f"width wrong at k={k}"
        self.record("support_width", params, ok, detail)

        ok = True
        detail = ""
        for tau in sample_taus(m, n):
            spec = ZonotopeSpec(m, n, tau)
            if not is_admissible(m, n, tau):
                ok, detail = False, f"sampled tau {tau} not admissible"
                break
            if count_lattice_points(spec) != expected:
                ok, detail = False, f"count mismatch at tau={tau}"
                break
            if has_boundary_lattice_point(spec):
                ok, detail = False, f"boundary point at admissible tau={tau}"
                break
        self.record("lattice_count_tiling_index", params, ok, detail)

        ok = True
        detail = ""
        for tau in inadmissible_taus(m, n, 3):
            if is_admissible(m, n, tau):
                ok, detail = False, f"sampled tau {tau} unexpectedly admissible"
                break
            if not has_boundary_lattice_point(ZonotopeSpec(m, n, tau)):
                ok, detail = False, f"no boundary point at inadmissible tau={tau}"
                break
        self.record("inadmissible_has_boundary_point", params, ok, detail)

        spec, points = self.tau0_lattice(m, n)
        ok = True
        detail = ""
        try:
            regular_orbit_reps(points)  # raises when not permutation-closed
        except ValueError as exc:
            ok, detail = False, str(exc)
        self.record("sn_invariance", params, ok, detail)

        shifted = enumerate_lattice_points(ZonotopeSpec(m, n, spec.tau + 1))
        translated = sorted(tuple(c + 1 for c in p) for p in points)
        self.record("translation_law", params, shifted == translated)

    # -- parking layer -----------------------------------------------------

    def check_parking(self, m: int, n: int, permutations: int = 20):
        params = {"m": m, "n": n}
        expected = (m * n + 1) ** (n - 1)
        spec, points = self.tau0_lattice(m, n)
        functions = enumerate_parking_functions(m, n)

        point_classes = {canonical_class(x, m, n) for x in points}
        parking_classes = {canonical_class(a, m, n) for a in functions}
        ok = (
            len(points) == len(point_classes) == expected
            and len(functions) == len(parking_classes) == expected
            and point_classes == parking_classes
        )
        self.record("class_bijection", params, ok)

        ok = all(parking_to_lattice(lattice_to_parking(x, spec), spec) == x for x in points)
        ok = ok and all(
            lattice_to_parking(parking_to_lattice(a, spec), spec) == a for a in functions
        )
        self.record("round_trip", params, ok)

        ok = True
        detail = ""
        for _ in range(permutations):
            perm = self.rng.sample(range(n), n)
            x = points[self.rng.randrange(len(points))]
            lhs = lattice_to_parking(_perm_apply(perm, x), spec)
            rhs = _perm_apply(perm, lattice_to_parking(x, spec))
            if lhs != rhs:
                ok, detail = False, f"equivariance fails at x={x}, perm={perm}"
                break
        self.record("equivariance", params, ok, detail)

        reps = regular_orbit_reps(points)
        dyck = enumerate_dyck_paths(m, n)
        routes = {
            "orbits": len(reps),
            "dyck": len(dyck),
            "mobius": regular_orbit_count_mobius(m, n),
            "closed_form": fuss_catalan(m, n),
        }
        ok = len(set(routes.values())) == 1
        self.record("regular_orbit_routes", params, ok, "" if ok else str(routes))

        increasing = [
            a for a in functions if all(x < y for x, y in zip(a, a[1:]))
        ]
        images = {orbit_to_dyck(a) for a in increasing}
        ok = len(increasing) == len(images) and images == set(dyck)
        self.record("orbit_to_dyck_bijection", params, ok)

    # -- spanning trees ----------------------------------------------------

    def check_trees(self, m: int, n: int):
        params = {"m": m, "n": n}
        g = build_graph(m, n)
        self.record(
            "tree_count_closed_form",
            params,
            spanning_tree_count(g) == (n * m + 1) ** (n - 1),
        )

        partitions = enumerate_partitions(n)
        trees = [spanning_tree_count(contract(g, s)) for s in partitions]
        ok = all(
            count == contracted_count_closed_form(m, n, s)
            for s, count in zip(partitions, trees)
        )
        self.record("contracted_closed_form", params, ok)

        spec, points = self.tau0_lattice(m, n)
        self.record(
            "tree_count_equals_lattice_count",
            params,
            spanning_tree_count(g) == count_lattice_points(spec),
        )

        # the subset count explodes beyond these sizes
        if n <= VOLUME_BY_BASES_MAX_N and (n <= 4 or m <= 2):
            self.record(
                "volume_by_bases_agrees",
                params,
                volume_by_bases(m, n) == spanning_tree_count(g),
            )

        ok = True
        detail = ""
        for s, count in zip(partitions, trees):
            weight = math.prod(len(b) for b in s)
            if count != weight * count_invariant_points(spec, s):
                ok, detail = False, f"invariant-count identity fails at {s}"
                break
        self.record("invariant_point_identity", params, ok, detail)

        histogram = Counter(stabilizer_partition(p) for p in points)
        ok = True
        detail = ""
        for s, count in zip(partitions, trees):
            weight = math.prod(len(b) for b in s)
            total = sum(c for s2, c in histogram.items() if refines(s, s2))
            if count != weight * total:
                ok, detail = False, f"refinement identity fails at {s}"
                break
        self.record("stabilizer_refinement_identity", params, ok, detail)

    # -- weight tables -----------------------------------------------------

    def check_tilting(self, m: int, n: int):
        params = {"m": m, "n": n}
        expected = fuss_catalan(m, n)
        steps = staircase(n)

        size_ok = True
        color_ok = True
        shift_ok = True
        detail = ""
        for t in t_grid(n):
            table = tilting_weights(m, n, t)
            if len(table.weights) != expected:
                size_ok, detail = False, f"size {len(table.weights)} at t={t}"
            blocks = color_blocks(table)
            u = color_window_start(m, n, t)
            colors = [block.color for block in blocks]
            if not set(colors) <= set(range(u, u + n)):
                color_ok, detail = False, f"colors {colors} escape window at t={t}"
            if m >= 2 and colors != list(range(u, u + n)):
                color_ok, detail = False, f"missing colors {colors} at t={t}"

            # shifting by the all-ones vector preserves the table order
            shifted = dominant_weights(m, n, table.tau + 1)
            expected_shift = tuple(tuple(c + 1 for c in w) for w in table.weights)
            if shifted != expected_shift:
                shift_ok, detail = False, f"translation fails at t={t}"
        self.record("table_size", params, size_ok, detail if not size_ok else "")
        self.record("color_window", params, color_ok, detail if not color_ok else "")
        self.record("weight_translation", params, shift_ok, detail if not shift_ok else "")

        t0 = t_grid(n)[0]
        table = tilting_weights(m, n, t0)
        spec = ZonotopeSpec(m, n, table.tau)
        regular_dominant = {
            p
            for p in enumerate_lattice_points(spec)
            if is_regular(p) and all(a > b for a, b in zip(p, p[1:]))
        }
        lifted = {tuple(w + s for w, s in zip(xi, steps)) for xi in table.weights}
        self.record("staircase_shift_bijection", params, lifted == regular_dominant)

    # -- composition identity ---------------------------------------------

    def check_composition_identity(self, max_n: int = 8):
        ok = True
        detail = ""
        for n in range(1, max_n + 1):
            for x in range(2, 21):
                rhs = Fraction(
                    math.prod(x - j for j in range(1, n)), math.factorial(n)
                )
                if composition_sum(n, x) != rhs:
                    ok, detail = False, f"identity fails at n={n}, x={x}"
                    break
        self.record("composition_identity", {"max_n": max_n}, ok, detail)


def run_checks(max_m: int = 3, max_n: int = 4, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the full invariant suite for 1 <= m <= max_m, 1 <= n <= max_n."""
    suite = _Suite(seed)
    suite.check_scalars()
    suite.check_composition_identity()
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            suite.check_zonotope(m, n)
            suite.check_parking(m, n)
            suite.check_trees(m, n)
            suite.check_tilting(m, n)
    return suite.results
