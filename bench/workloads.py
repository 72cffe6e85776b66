"""The benchmark's workloads: seeded CLI arguments and independent output checks.

Each workload is one ``zonopark`` CLI invocation.  The seed picks the input
(a shift ``tau``, a grid value ``t`` or the verify seed); the size of the
answer never depends on it.  The inputs are generated here, and every output
check re-derives its conditions from the paper's definitions with the
standard library only: nothing in this file imports ``zonopark``.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable, Iterable
from fractions import Fraction


class CheckFailed(Exception):
    """An output violated one of the workload's exact conditions."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _admissible(m: int, n: int, tau: Fraction) -> bool:
    """A rational shift is admissible iff tau - m(n-1)/2 has denominator > n."""
    return (tau - Fraction(m * (n - 1), 2)).denominator > n


def _membership_thresholds(m: int, n: int, base: Fraction, eps: int):
    """Integer bounds on the top-k and bottom-k sums of a member point.

    The zonotope pinches the sum of any k coordinates between
    ``tau*k - m*k*(n-k)/2`` and ``tau*k + m*k*(n-k)/2 + k``, where
    ``tau = base + eps*epsilon`` for a positive infinitesimal epsilon.
    An integer sum S satisfies ``S <= b + c*epsilon`` iff ``S < b``, or
    ``S == b`` and ``c >= 0``; the bounds below fold that into integers.
    """
    max_top = [0] * (n + 1)
    min_bottom = [0] * (n + 1)
    for k in range(1, n + 1):
        half = Fraction(m * k * (n - k), 2)
        upper = base * k + half + k
        lower = base * k - half
        top = math.floor(upper)
        if upper.denominator == 1 and eps < 0:
            top -= 1
        bottom = math.ceil(lower)
        if lower.denominator == 1 and eps > 0:
            bottom += 1
        max_top[k] = top
        min_bottom[k] = bottom
    return max_top, min_bottom


def _is_member(point, n: int, max_top, min_bottom) -> bool:
    ascending = sorted(point)
    top = bottom = 0
    for k in range(1, n + 1):
        top += ascending[n - k]
        bottom += ascending[k - 1]
        if top > max_top[k] or bottom < min_bottom[k]:
            return False
    return True


def _is_parking_function(a, m: int, n: int) -> bool:
    """Weakly increasing rearrangement b satisfies 0 <= b_j <= m*(j-1)."""
    return len(a) == n and all(0 <= v <= m * j for j, v in enumerate(sorted(a)))


def _class_index(v, modulus: int) -> int:
    """Index of v's class in Z^n / (modulus*Z^n + Z*(1,...,1))."""
    last = v[-1]
    index = 0
    for value in v[:-1]:
        index = index * modulus + (value - last) % modulus
    return index


def _int_vector(value, n: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == n
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    )


def _records(lines: Iterable[bytes]):
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            raise CheckFailed(f"not a JSON line: {line[:80]!r}") from None
        _require(isinstance(record, dict), f"not a JSON object: {line[:80]!r}")
        yield record


def _header(record, kind: str, m, n, tau) -> None:
    expected = {"kind": kind, "m": m, "n": n, "tau": tau}
    got = {key: record.get(key) for key in expected}
    _require(got == expected, f"record header {got} != {expected}")


# -- lattice-stream -----------------------------------------------------------


def _lattice_stream_argv(seed: int) -> list[str]:
    m, n = 3, 5
    rng = random.Random(seed)
    while True:
        q = rng.randint(n + 1, 4 * n)
        p = rng.randint(1, q - 1)
        tau = Fraction(m * (n - 1), 2) + Fraction(p, q)
        if _admissible(m, n, tau):
            return ["bijection", "--m", str(m), "--n", str(n), "--tau", str(tau)]


def _check_lattice_stream(argv: list[str], lines: Iterable[bytes]) -> None:
    """(mn+1)^(n-1) distinct lex-sorted member points, each paired with a
    parking function of its class, the classes all distinct."""
    m, n, tau = int(argv[2]), int(argv[4]), Fraction(argv[6])
    modulus = m * n + 1
    expected = modulus ** (n - 1)
    max_top, min_bottom = _membership_thresholds(m, n, tau, 0)
    seen = bytearray(expected)
    previous = None
    count = 0
    summary = None
    for record in _records(lines):
        _require(summary is None, "records after the summary")
        if record.get("kind") == "summary":
            _header(record, "summary", m, n, argv[6])
            summary = record
            continue
        _header(record, "pair", m, n, argv[6])
        payload = record.get("payload")
        _require(isinstance(payload, dict), f"bad payload {payload!r}")
        x, a = payload.get("lattice"), payload.get("parking")
        _require(_int_vector(x, n) and _int_vector(a, n), f"bad pair {payload}")
        _require(previous is None or x > previous, f"{x} does not follow {previous}")
        previous = x
        _require(_is_member(x, n, max_top, min_bottom), f"{x} is not in the zonotope")
        _require(_is_parking_function(a, m, n), f"{a} is not a parking function")
        index = _class_index(x, modulus)
        _require(index == _class_index(a, modulus), f"{x} and {a} differ in class")
        _require(not seen[index], f"class of {x} repeats")
        seen[index] = 1
        count += 1
    _require(count == expected, f"{count} points, expected {expected}")
    _require(summary is not None, "missing summary record")
    _require(summary.get("payload") == {"count": expected}, f"bad summary {summary}")


# -- tilting-table ------------------------------------------------------------


def _t_grid(n: int) -> list[Fraction]:
    return sorted({Fraction(-p, k) for k in range(1, n + 1) for p in range(k)}, reverse=True)


def _tilting_table_argv(seed: int) -> list[str]:
    m, n = 2, 10
    t = random.Random(seed).choice(_t_grid(n))
    return ["tilting", "--m", str(m), "--n", str(n), "--t", str(t)]


def _check_tilting_table(argv: list[str], lines: Iterable[bytes]) -> None:
    """comb(mn+1, n)/(mn+1) distinct dominant weights xi, each with
    xi + staircase in Z(m, n, t + m(n-1)/2 - eps), in exactly n consecutive
    colors (coordinate sums), listed by color and then descending."""
    m, n, t = int(argv[2]), int(argv[4]), Fraction(argv[6])
    _require(t in _t_grid(n), f"t = {t} is off the grid")
    expected = math.comb(m * n + 1, n) // (m * n + 1)
    base = t + Fraction(m * (n - 1), 2)
    tau_text = f"{base}-eps"
    max_top, min_bottom = _membership_thresholds(m, n, base, -1)
    steps = range(n - 1, -1, -1)
    histogram: dict[int, int] = {}
    previous = None
    summary = None
    for record in _records(lines):
        _require(summary is None, "records after the summary")
        if record.get("kind") == "summary":
            _header(record, "summary", m, n, tau_text)
            summary = record
            continue
        _header(record, "weight", m, n, tau_text)
        xi, color = record.get("payload"), record.get("color")
        _require(_int_vector(xi, n), f"bad weight {xi!r}")
        _require(color == sum(xi), f"color {color} of {xi} is not its sum")
        _require(all(a >= b for a, b in zip(xi, xi[1:])), f"{xi} is not dominant")
        point = [w + s for w, s in zip(xi, steps)]
        _require(_is_member(point, n, max_top, min_bottom), f"{point} is not in the zonotope")
        key = (color, [-c for c in xi])
        _require(previous is None or key > previous, f"{xi} is out of order")
        previous = key
        histogram[color] = histogram.get(color, 0) + 1
    count = sum(histogram.values())
    _require(count == expected, f"{count} weights, expected {expected}")
    colors = sorted(histogram)
    _require(colors == list(range(colors[0], colors[0] + n)), f"colors {colors}")
    want = {"t": str(t), "count": expected, "colors": {str(c): histogram[c] for c in colors}}
    _require(summary is not None and summary.get("payload") == want, f"bad summary {summary}")


# -- verify-grid --------------------------------------------------------------


def _verify_grid_argv(seed: int) -> list[str]:
    return ["verify", "--max-n", "5", "--max-m", "2", "--seed", str(seed)]


def _check_verify_grid(argv: list[str], lines: Iterable[bytes]) -> None:
    """Every check record is ok and the summary reports zero failures."""
    checks = 0
    summary = None
    for record in _records(lines):
        _require(summary is None, "records after the summary")
        if record.get("kind") == "summary":
            summary = record
            continue
        _require(record.get("kind") == "check", f"unexpected record {record}")
        payload = record.get("payload")
        _require(isinstance(payload, dict) and payload.get("ok") is True, f"failed check {payload}")
        checks += 1
    _require(checks > 0, "no check records")
    want = {"checks": checks, "failures": 0}
    _require(summary is not None and summary.get("payload") == want, f"bad summary {summary}")


# -- mobius-trees -------------------------------------------------------------


def _mobius_trees_argv(seed: int) -> list[str]:
    # the command has no free input; the seed is unused
    return ["mobius-count", "--m", "2", "--n", "9"]


def _check_mobius_trees(argv: list[str], lines: Iterable[bytes]) -> None:
    """One record whose payload is the Fuss-Catalan number A_n(m, 1)."""
    m, n = int(argv[2]), int(argv[4])
    records = list(_records(lines))
    _require(len(records) == 1, f"{len(records)} records, expected 1")
    _header(records[0], "mobius_count", m, n, None)
    closed_form = math.comb(m * n + 1, n) // (m * n + 1)
    payload = records[0].get("payload")
    _require(payload == closed_form, f"payload {payload} != {closed_form}")


# -- no-work invocation -------------------------------------------------------

NO_WORK_ARGV = ["catalan", "--m", "1", "--n", "1"]
NO_WORK_OUTPUT = b'{"kind":"catalan","m":1,"n":1,"tau":null,"payload":1}\n'


class Workload:
    """A name, the CLI arguments for a seed, and the check of their output."""

    def __init__(
        self,
        name: str,
        argv: Callable[[int], list[str]],
        check: Callable[[list[str], Iterable[bytes]], None],
    ):
        self.name = name
        self.argv = argv
        self.check = check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lattice-stream", _lattice_stream_argv, _check_lattice_stream),
        Workload("tilting-table", _tilting_table_argv, _check_tilting_table),
        Workload("verify-grid", _verify_grid_argv, _check_verify_grid),
        Workload("mobius-trees", _mobius_trees_argv, _check_mobius_trees),
    )
}
