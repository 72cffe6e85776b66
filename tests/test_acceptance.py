"""Acceptance suite: one test per criterion, exact tolerances, timed where stated.

Each test prints a single ``criterion N: PASS/FAIL`` line; every comparison
is exact integer/rational equality (zero tolerance).
"""

import math
import random
import time

from zonopark.parking import (
    enumerate_parking_functions,
    fuss_catalan,
    increasing_parking_functions,
)
from zonopark.tilting import t_grid, tilting_weights
from zonopark.treecount import build_graph, composition_sum
from zonopark.verify import (
    admissible_taus,
    class_bijection,
    color_window,
    contracted_closed_form,
    contracted_tree_counts,
    equivariance,
    inadmissible_has_boundary_point,
    inadmissible_taus,
    invariant_point_identity,
    lattice_count_tiling_index,
    regular_orbit_routes,
    round_trip,
    sample_taus,
    sn_invariance,
    stabilizer_refinement_identity,
    tree_count_closed_form,
    volume_by_bases_agrees,
)
from zonopark.zonotope import ZonotopeSpec, enumerate_lattice_points

from golden_tables import GOLDEN_TABLES
from oracles import falling_factorial_form


def report(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {status} - {label}")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def test_criterion_01_golden_tables():
    start = time.perf_counter()
    failures = []
    for (m, n, t), expected in GOLDEN_TABLES.items():
        got = {tuple(w) for w in tilting_weights(m, n, t).weights}
        if got != set(expected):
            failures.append((m, n, t))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    if len(GOLDEN_TABLES) != 12:
        failures.append("expected 12 golden tables")
    report(1, f"12 golden weight tables reproduced exactly in {elapsed:.3f}s", failures)


def test_criterion_02_counts():
    failures = []
    for n, expected in ((2, 2), (3, 5), (4, 14)):
        if fuss_catalan(2, n) != expected:
            failures.append(("closed form", n, expected))
        for t in t_grid(n):
            size = len(tilting_weights(2, n, t).weights)
            if size != expected:
                failures.append(("table size", n, t, size))
    for m in range(1, 6):
        for n in range(1, 9):
            a = math.comb(m * n + 1, n) // (m * n + 1)
            b = math.comb(m * n, n) // ((m - 1) * n + 1)
            if not (fuss_catalan(m, n) == a == b):
                failures.append(("cross-check", m, n))
    report(2, "table sizes and Fuss-Catalan closed forms agree", failures)


def test_criterion_03_lattice_cardinality():
    start = time.perf_counter()
    failures = []
    windows = 0
    for m in range(1, 4):
        for n in range(1, 6):
            specs = [ZonotopeSpec(m, n, tau) for tau in admissible_taus(m, n, 10)]
            windows += len(specs)
            detail = lattice_count_tiling_index(specs)
            if detail:
                failures.append((m, n, detail))
    elapsed = time.perf_counter() - start
    if windows < 10 * 3 * 5:
        failures.append("window sweep too small")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(3, f"|Z ∩ Z^n| = (mn+1)^(n-1) over {windows} windows in {elapsed:.2f}s", failures)


def test_criterion_04_bijection_suite():
    rng = random.Random(90017)
    failures = []
    for m in range(1, 4):
        for n in range(1, 5):
            spec = ZonotopeSpec(m, n, sample_taus(m, n, 1)[0])
            points = enumerate_lattice_points(spec)
            functions = enumerate_parking_functions(m, n)
            for check, detail in (
                ("bijectivity", class_bijection(m, n, points, functions)),
                ("round trip", round_trip(spec, points, functions)),
                ("equivariance", equivariance(spec, rng, 100)),
            ):
                if detail:
                    failures.append((check, m, n, detail))
    report(4, "class bijections, round trips and 100-permutation equivariance", failures)


def test_criterion_05_regular_orbits_three_routes():
    failures = []
    for m in range(1, 5):
        for n in range(1, 6):
            # the (m, n)-Dyck paths are the weakly increasing (m - 1, n)-parking functions
            dyck = list(increasing_parking_functions(m - 1, n))
            for tau in sample_taus(m, n, 1):
                points = enumerate_lattice_points(ZonotopeSpec(m, n, tau))
                # the orbit count takes the points to be closed under permutations
                detail = sn_invariance(points) or regular_orbit_routes(m, n, points, dyck)
                if detail:
                    failures.append((m, n, str(tau), detail))
    report(5, "direct, Dyck and Mobius regular-orbit counts all agree", failures)


def test_criterion_06_matrix_tree():
    failures = []
    for m in range(1, 5):
        for n in range(1, 7):
            detail = tree_count_closed_form(m, n, build_graph(m, n))
            if detail:
                failures.append(("tree count", m, n, detail))
    for m in range(1, 5):
        for n in range(1, 6):
            detail = contracted_closed_form(m, n, contracted_tree_counts(build_graph(m, n)))
            if detail:
                failures.append(("contracted", m, n, detail))
    for m in range(1, 5):
        for n in range(1, 5):
            detail = volume_by_bases_agrees(m, n, build_graph(m, n))
            if detail:
                failures.append(("volume", m, n, detail))
    report(6, "Kirchhoff counts, contractions and base volumes match closed forms", failures)


def test_criterion_07_boundary_dichotomy():
    failures = []
    inadmissible_seen = 0
    admissible_seen = 0
    for m in range(1, 4):
        for n in range(1, 5):
            inadmissible = [ZonotopeSpec(m, n, tau) for tau in inadmissible_taus(m, n, 2)]
            admissible = [ZonotopeSpec(m, n, tau) for tau in sample_taus(m, n, 2)]
            inadmissible_seen += len(inadmissible)
            admissible_seen += len(admissible)
            for side, detail in (
                ("inadmissible", inadmissible_has_boundary_point(inadmissible)),
                ("admissible", lattice_count_tiling_index(admissible)),
            ):
                if detail:
                    failures.append((side, m, n, detail))
    if inadmissible_seen < 20 or admissible_seen < 20:
        failures.append(("sample too small", inadmissible_seen, admissible_seen))
    report(
        7,
        f"boundary dichotomy over {inadmissible_seen} inadmissible / "
        f"{admissible_seen} admissible shifts",
        failures,
    )


def test_criterion_08_stabilizer_refinement():
    failures = []
    for m in range(1, 4):
        for n in range(1, 5):
            spec = ZonotopeSpec(m, n, sample_taus(m, n, 1)[0])
            points = enumerate_lattice_points(spec)
            trees = contracted_tree_counts(build_graph(m, n))
            for identity, detail in (
                ("invariant-count identity", invariant_point_identity(spec, trees)),
                ("refinement identity", stabilizer_refinement_identity(points, trees)),
            ):
                if detail:
                    failures.append((identity, m, n, detail))
    report(8, "stabilizer refinement and invariant-count identities", failures)


def test_criterion_09_composition_identity():
    failures = []
    for n in range(1, 9):
        for x in range(2, 21):
            if composition_sum(n, x) != falling_factorial_form(n, x):
                failures.append((n, x))
    report(9, "composition sum equals falling-factorial product (n <= 8)", failures)


def test_criterion_10_color_decomposition():
    failures = []
    for m in (2, 3):
        for n in range(1, 5):
            detail = color_window([tilting_weights(m, n, t) for t in t_grid(n)])
            if detail:
                failures.append((m, n, detail))
    report(10, "colors fill exactly {u, ..., u+n-1} with no empty block", failures)
