"""Deterministic command-line interface: JSON-lines (or TSV) on stdout.

Every record is a single JSON object with the fields ``kind, m, n, tau``
followed by any record-specific fields and a ``payload``.  Output contains
integers, strings and nulls only; never floating point.  Identical
arguments always produce byte-identical output.

Every command writes its records as they are made, so an error can end
the output after some records.  ``enumerate``, ``bijection`` and
``parking`` never hold the points, and write one prefix group of the
orbit walk at a time: the records that share all but their last two
coordinates, with the prefix rendered once.  The walk hands each sorted
prefix's tails to the command once per call, which renders them as a
template that the prefix's groups fill in; each tail is one
representative less two coordinates, so these commands hold
O(n^2 * #representatives).  ``bijection`` maps each orbit once, on its
representative, relabels the coordinates of its points, and renders the
image of a prefix once per shift in the group; if a map fails, the
records before that orbit's first point are written first.  ``dyck``
holds only its current path, and ``tilting`` one color block of its
table at a time, each scanned just before it is written.  The bulk
records render their constant part once per command and fill in their
integer vectors.  ``verify`` writes and flushes each check as it
finishes, so a reader through a pipe has it before the next check runs
and a killed run loses no finished check; it settles its exit code after
the last one.  The bulk commands leave stdout block-buffered:
they make thousands of records in milliseconds, and a flush per prefix
group would be a write to the pipe per group.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 admissibility violation, 4 internal error (any other exception, reported
as ``error: internal: ...`` and a traceback), 141 (128 + SIGPIPE) when the
reader closes stdout before the output ends, with nothing on stderr.
``traceback`` is imported only on an internal error, so that it is not
part of every command's start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .orbits import normalize_partition, prefix_groups
from .parking import fuss_catalan, increasing_parking_functions, lattice_to_parking
from .scalars import parse_scalar
from .tilting import WINDOWS, dominant_weight_blocks, t_grid, tau_for_t
from .treecount import build_graph, contract, regular_orbit_count_mobius, spanning_tree_count
from .verify import DEFAULT_SEED, run_checks
from .zonotope import NotAdmissibleError, ZonotopeSpec


class UsageError(ValueError):
    pass


def _parse_tau(text: str):
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _admissible_spec(args) -> ZonotopeSpec:
    spec = ZonotopeSpec(args.m, args.n, _parse_tau(args.tau))
    if not spec.admissible:
        raise NotAdmissibleError(
            f"tau = {spec.tau} is not admissible for m={args.m}, n={args.n}"
        )
    return spec


def _parse_partition(text: str, n: int):
    try:
        blocks = [
            [int(piece) for piece in chunk.split(",") if piece != ""]
            for chunk in text.split("|")
        ]
        return normalize_partition(blocks, n)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from None


def _partition_text(blocks) -> str:
    return "|".join(",".join(str(i) for i in block) for block in blocks)


# -- command handlers -------------------------------------------------------
#
# Every handler is a generator: it checks its arguments, yields its records
# as text as soon as they are made, one line or one prefix group of lines
# at a time, and returns its exit code.  The checks come first, so usage
# and admissibility errors arrive before any output.  The bulk records
# (points, pairs, parking functions, Dyck paths and weights) fill their
# integer vectors into a template rendered once.


def _cmd_enumerate(args):
    spec = _admissible_spec(args)
    tau_text = str(spec.tau)
    reps = spec.representatives
    count = yield from _group_lines(args.format, "point", args.m, args.n, tau_text, reps)
    yield _line(args.format, "summary", args.m, args.n, tau_text, {"count": count})
    return 0


def _cmd_bijection(args):
    spec = _admissible_spec(args)
    tau_text = str(spec.tau)
    payload = {"lattice": [_SLOT], "parking": [_SLOT]}
    head, middle, end = _template(args.format, "pair", args.m, args.n, tau_text, payload)
    modulus = args.m * args.n + 1
    # The map is S_n-equivariant, so each orbit is mapped once, on its weakly
    # decreasing representative, when the stream first reaches it, and its
    # points are relabelled coordinate by coordinate.  Orbits with the same
    # shift share one value -> image text table.
    shift_of_orbit: dict[tuple[int, ...], int] = {}
    relabel_by_shift: dict[int, dict[int, str]] = {}

    def render(key, tails):
        # The records of a sorted prefix's groups as a _group_template whose
        # parking fields, 3 + i, take the middle and the parking prefix under
        # the i-th shift's table.  Each orbit is first reached at its first
        # tail in the key's first group, and mapped there; if a map fails,
        # the records before that tail come back with the error.
        fields: dict[int, str] = {}
        pieces, error = [], None
        try:
            for tail in tails:
                rep = tuple(sorted(key + tail, reverse=True))
                shift = shift_of_orbit.get(rep)
                if shift is None:
                    image = lattice_to_parking(rep, spec)
                    shift = shift_of_orbit[rep] = (rep[0] - image[0]) % modulus
                    relabel_by_shift.setdefault(shift, {}).update(zip(rep, map(str, image)))
                if shift not in fields:
                    fields[shift] = f"{{{len(fields) + 3}}}"
                parking = ",".join(map(relabel_by_shift[shift].__getitem__, tail))
                pieces.append(",".join(map(str, tail)) + fields[shift] + parking)
        except Exception as exc:
            error = exc
        return _group_template(pieces), tuple(fields), len(pieces), error

    count = 0
    for prefix, (template, shifts, size, error) in prefix_groups(spec.representatives, render):
        count += size
        start = head + _prefix_text(prefix)
        parkings = [
            middle + "".join([relabel[v] + "," for v in prefix])
            for relabel in map(relabel_by_shift.__getitem__, shifts)
        ]
        yield template.format(end + start, start, end, *parkings)
        if error is not None:
            raise error
    yield _line(args.format, "summary", args.m, args.n, tau_text, {"count": count})
    return 0


def _cmd_parking(args):
    reps = increasing_parking_functions(args.m, args.n)
    count = yield from _group_lines(args.format, "parking", args.m, args.n, None, reps)
    yield _line(args.format, "summary", args.m, args.n, None, {"count": count})
    return 0


def _cmd_dyck(args):
    paths = increasing_parking_functions(args.m - 1, args.n)
    count = yield from _vector_lines(args.format, "dyck", args.m, args.n, None, paths)
    yield _line(args.format, "summary", args.m, args.n, None, {"count": count})
    return 0


def _cmd_catalan(args):
    yield _line(args.format, "catalan", args.m, args.n, None, fuss_catalan(args.m, args.n))
    return 0


def _cmd_trees(args):
    graph, extra = build_graph(args.m, args.n), {}
    if args.partition is not None:
        blocks = _parse_partition(args.partition, args.n)
        graph, extra = contract(graph, blocks), {"partition": _partition_text(blocks)}
    yield _line(args.format, "trees", args.m, args.n, None, spanning_tree_count(graph), **extra)
    return 0


def _cmd_mobius_count(args):
    count = regular_orbit_count_mobius(args.m, args.n)
    yield _line(args.format, "mobius_count", args.m, args.n, None, count)
    return 0


def _cmd_tilting(args):
    try:
        t = Fraction(args.t)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad t value {args.t!r}: {exc}") from None
    if t not in t_grid(args.n):
        raise UsageError(f"t = {t} is not on the grid for n = {args.n}")
    tau = tau_for_t(args.m, args.n, t, window=args.window)
    tau_text = str(tau)
    histogram = {}
    for color, weights in dominant_weight_blocks(args.m, args.n, tau):
        histogram[str(color)] = len(weights)
        yield from _vector_lines(
            args.format, "weight", args.m, args.n, tau_text, weights, color=color
        )
    summary = {"t": str(t), "count": sum(histogram.values()), "colors": histogram}
    yield _line(args.format, "summary", args.m, args.n, tau_text, summary)
    return 0


def _cmd_verify(args):
    # failures are counted here rather than returned by run_checks, since a
    # wrapper around a public generator, such as a tracer's, drops its return value
    checks = failures = 0
    for checks, result in enumerate(run_checks(args.max_m, args.max_n, args.seed), 1):
        failures += not result.ok
        payload = {"name": result.name, "ok": result.ok}
        if result.detail:
            payload["detail"] = result.detail
        yield _line(args.format, "check", result.m, result.n, None, payload)
    summary = {"checks": checks, "failures": failures}
    yield _line(args.format, "summary", None, None, None, summary)
    return 1 if failures else 0


# -- output -----------------------------------------------------------------


def _flatten(value, nested: bool = False) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(item) for item in value)
    if isinstance(value, dict):
        if nested:
            return ",".join(f"{k}:{_flatten(v, True)}" for k, v in value.items())
        return ";".join(f"{k}={_flatten(v, True)}" for k, v in value.items())
    return str(value)


def _line(fmt: str, kind: str, m, n, tau, payload, **extra) -> str:
    """One record as a line of output: a JSON object, or tab-separated fields."""
    record = {"kind": kind, "m": m, "n": n, "tau": tau, **extra, "payload": payload}
    if fmt == "json":
        return json.dumps(record, separators=(",", ":")) + "\n"
    return "\t".join(_flatten(v) for v in record.values()) + "\n"


# stands for an integer vector in a template; no rendered field contains it
_SLOT = "@"


def _template(fmt: str, kind: str, m, n, tau, payload, **extra) -> list[str]:
    """The constant pieces of the records of one kind, rendered once.

    ``payload`` holds ``[_SLOT]`` where each record has an integer vector.  A
    record is the pieces with ``",".join(map(str, vector))`` between them,
    which is how ``_line`` renders a vector in both formats.
    """
    slot = json.dumps(_SLOT) if fmt == "json" else _SLOT
    return _line(fmt, kind, m, n, tau, payload, **extra).split(slot)


def _vector_lines(fmt: str, kind: str, m, n, tau, vectors, **extra):
    """Yield one record per integer vector, as its payload; return how many."""
    head, tail = _template(fmt, kind, m, n, tau, [_SLOT], **extra)
    count = 0
    for count, vector in enumerate(vectors, 1):
        yield head + ",".join(map(str, vector)) + tail
    return count


def _prefix_text(prefix) -> str:
    """The coordinates of a prefix as text, each followed by a comma."""
    return "".join([f"{value}," for value in prefix])


def _group_template(tails) -> str:
    """A ``str.format`` template for the records of a prefix group, from its tails' texts.

    Field 0 goes between two records, the end of one and the start of the
    next; field 1 is the start of the first record and field 2 the end of
    the last.  So a tail costs one field, not two.  No tails, no records.
    """
    text = "{0}".join(tails)
    return "{1}" + text + "{2}" if text else ""


def _group_lines(fmt: str, kind: str, m, n, tau, reps):
    """Yield the records of each prefix group of reps as one string, one per point; return how many.

    Each sorted prefix's tails are rendered once, as a ``_group_template``
    that each of its groups fills in with the head and its own prefix.
    """
    head, end = _template(fmt, kind, m, n, tau, [_SLOT])

    def render(key, tails):
        return _group_template([",".join(map(str, tail)) for tail in tails]), len(tails)

    count = 0
    for prefix, (template, size) in prefix_groups(reps, render):
        count += size
        start = head + _prefix_text(prefix)
        yield template.format(end + start, start, end)
    return count


def _emit(lines, out, flush: bool) -> int:
    """Write each string a handler yields, a line or a prefix group of lines; return its exit code.

    With ``flush`` it flushes ``out`` after each string, so the reader has
    it before the next one is made; without, ``out`` flushes when its
    buffer fills.
    """
    while True:
        try:
            line = next(lines)
        except StopIteration as done:
            return done.value
        out.write(line)
        if flush:
            out.flush()


# -- parser -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_mn(parser: argparse.ArgumentParser):
    parser.add_argument("--m", type=_positive_int, required=True, help="edge multiplicity m >= 1")
    parser.add_argument("--n", type=_positive_int, required=True, help="dimension n >= 1")
    parser.add_argument(
        "--format", choices=("json", "tsv"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonopark",
        description="Exact lattice-point combinatorics of the shifted zonotope.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the lattice points of the zonotope")
    _add_mn(p)
    p.add_argument("--tau", required=True, help="shift, e.g. 11/6 or 1-eps")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("bijection", help="emit lattice point / parking function pairs")
    _add_mn(p)
    p.add_argument("--tau", required=True, help="shift, e.g. 11/6 or 1-eps")
    p.set_defaults(handler=_cmd_bijection)

    p = sub.add_parser("parking", help="list all (m, n)-parking functions")
    _add_mn(p)
    p.set_defaults(handler=_cmd_parking)

    p = sub.add_parser("dyck", help="list all (m, n)-Dyck paths")
    _add_mn(p)
    p.set_defaults(handler=_cmd_dyck)

    p = sub.add_parser("catalan", help="print the Fuss-Catalan number A_n(m, 1)")
    _add_mn(p)
    p.set_defaults(handler=_cmd_catalan)

    p = sub.add_parser("trees", help="count spanning trees of the companion graph")
    _add_mn(p)
    p.add_argument(
        "--partition",
        default=None,
        help="contract blocks first; blocks joined by '|', elements by ',' (e.g. 1,2|3)",
    )
    p.set_defaults(handler=_cmd_trees)

    p = sub.add_parser(
        "mobius-count", help="count regular orbits via Mobius inversion over tree counts"
    )
    _add_mn(p)
    p.set_defaults(handler=_cmd_mobius_count)

    p = sub.add_parser("tilting", help="print the weight table for a grid value t")
    _add_mn(p)
    p.add_argument("--t", required=True, help="grid value, e.g. 0 or -2/3")
    p.add_argument(
        "--window",
        choices=WINDOWS,
        default="low",
        help="shift convention; 'high' selects the alternative window",
    )
    p.set_defaults(handler=_cmd_tilting)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--max-n", dest="max_n", type=_positive_int, default=4)
    p.add_argument("--max-m", dest="max_m", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--format", choices=("json", "tsv"), default="json", help="output format"
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def _fuse_flag_values(argv: list[str]) -> list[str]:
    """Join value-taking flags with their argument so '-2/3' is not read as a flag."""
    fused = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--t", "--tau") and i + 1 < len(argv):
            fused.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            fused.append(argv[i])
            i += 1
    return fused


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_fuse_flag_values(raw))
    try:
        code = _emit(args.handler(args), sys.stdout, flush=args.handler is _cmd_verify)
        # a closed pipe must show here, not in the flush at interpreter exit
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotAdmissibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so
        # the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:
        import traceback

        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
