"""Run one zonopark CLI invocation in-process with a span around every public function.

    PYTHONPATH=src python3 bench/traced.py {timing|memory} <cli arguments>

The tracer wraps, from outside, every public function of each
``zonopark`` module and the operators of ``EpsRational``, both where each
is defined and wherever another module re-binds its name (for example
``parking.contains``), so that no child span is lost.  Spans are kept in
memory as flat arrays with parent links; when the invocation ends they are
reduced to per-function call counts and self times (a span's duration
minus that of its child spans).  A wrapper costs about two microseconds a
call; the part spent outside its span falls into the caller's self time.
For a generator function every resume is one span.  The CLI writes to a sink that hashes and counts its
output.

The ``memory`` pass also runs ``tracemalloc`` and records the allocation
peak above the start of each outermost ``zonotope`` span and of
``cli.main``.  Its timings are not reported, because ``tracemalloc`` slows
allocation-heavy code unevenly.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import array
import functools
import hashlib
import importlib
import inspect
import io
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction

LAYERS = ("scalars", "zonotope", "orbits", "parking", "treecount", "tilting", "verify", "cli")
EPS_SKIP = {"__setattr__", "__repr__"}  # EpsRational methods left unwrapped
# layers whose allocation peak the memory pass records
MEMORY_LAYERS = ("zonotope", "cli")
MIB = 1024 * 1024


class OutputSink(io.RawIOBase):
    """Stands in for stdout: hashes, counts and drops the bytes written."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0

    def writable(self):
        return True

    def write(self, data):
        data = bytes(data)
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += data.count(b"\n")
        return len(data)


class Tracer:
    def __init__(self, memory: bool):
        self.names: list[str] = []
        self.fid = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        # a per-span measure of the result (its length, or a determinant's
        # order); -1 where none is taken
        self.size = array.array("q")
        self.stack = [-1]
        self.candidates = 0  # window ** blocks, summed over count_invariant_points
        self.memory = memory
        self.mem_open: list[list[int]] = []
        self.mem_depth = dict.fromkeys(MEMORY_LAYERS, 0)
        self.alloc_peak = dict.fromkeys(MEMORY_LAYERS, 0)

    # -- allocation peaks -------------------------------------------------

    def _mem_enter(self):
        current, peak = tracemalloc.get_traced_memory()
        for frame in self.mem_open:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self.mem_open.append([current, current])

    def _mem_exit(self, layer: str):
        _, peak = tracemalloc.get_traced_memory()
        start, highest = self.mem_open.pop()
        highest = max(highest, peak)
        for frame in self.mem_open:
            frame[1] = max(frame[1], highest)
        self.alloc_peak[layer] = max(self.alloc_peak[layer], highest - start)

    # -- spans --------------------------------------------------------------

    def wrap(self, layer: str, name: str, func, measure=None):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        fids, parents, starts, ends, sizes = self.fid, self.parent, self.start, self.end, self.size
        stack = self.stack
        clock = time.perf_counter_ns
        tracked = self.memory and layer in MEMORY_LAYERS
        depth = self.mem_depth

        def open_span() -> int:
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            sizes.append(-1)
            stack.append(index)
            starts.append(clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    index = open_span()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield value

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracked:
                outermost = depth[layer] == 0
                depth[layer] += 1
                if outermost:
                    self._mem_enter()
            index = open_span()
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(index)
                if tracked:
                    depth[layer] -= 1
                    if outermost:
                        self._mem_exit(layer)
            if measure is not None:
                sizes[index] = measure(self, args, kwargs, result)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def reduce(self, nested):
        """Per-function totals over all spans, in one pass from the last span.

        Children are recorded after their parent, so by the time a span is
        reached every child has added its duration to it.  ``nested`` lists
        (function, parent function) pairs whose spans are also counted, with
        their measures, per pair.
        """
        count, functions = len(self.fid), len(self.names)
        child = array.array("q", bytes(8 * count))
        fids, parents, starts, ends, sizes = self.fid, self.parent, self.start, self.end, self.size
        calls, self_ns = [0] * functions, [0] * functions
        size_sum, size_max = [0] * functions, [0] * functions
        watched = {pair[0] for pair in nested}
        under = {pair: [0, 0] for pair in nested}
        for i in range(count - 1, -1, -1):
            f, p = fids[i], parents[i]
            duration = ends[i] - starts[i]
            calls[f] += 1
            self_ns[f] += duration - child[i]
            size = sizes[i]
            if size >= 0:
                size_sum[f] += size
                size_max[f] = max(size_max[f], size)
            if p >= 0:
                child[p] += duration
                if f in watched and (f, fids[p]) in under:
                    totals = under[(f, fids[p])]
                    totals[0] += 1
                    totals[1] += max(size, 0)
        return calls, self_ns, size_sum, size_max, under


# -- per-span measures --------------------------------------------------------


def _length(tracer, args, kwargs, result):
    return len(result)


def _order(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return len(rows)


def _invariant_hits(tracer, args, kwargs, result):
    """Record window ** #blocks, the candidates a brute-force count scans.

    The window is the integer range of one coordinate, from
    floor(tau - m(n-1)/2) to ceil(tau + m(n-1)/2 + 1), computed from the
    shift's rational part and infinitesimal sign without library code.
    """
    spec = args[0] if args else kwargs["spec"]
    partition = args[1] if len(args) > 1 else kwargs["partition"]
    base, eps = spec.tau.base, spec.tau.eps_coeff
    half = Fraction(spec.m * (spec.n - 1), 2)
    lower, upper = base - half, base + half + 1
    lo = math.floor(lower) - (1 if lower.denominator == 1 and eps < 0 else 0)
    hi = math.ceil(upper) + (1 if upper.denominator == 1 and eps > 0 else 0)
    tracer.candidates += (hi - lo + 1) ** len(partition)
    return result


MEASURES = {
    ("zonotope", "dominant_points"): _length,
    ("zonotope", "enumerate_lattice_points"): _length,
    ("zonotope", "count_invariant_points"): _invariant_hits,
    ("orbits", "orbit_of"): _length,
    ("parking", "enumerate_parking_functions"): _length,
    ("treecount", "determinant"): _order,
    ("tilting", "dominant_weights"): _length,
}


def install(tracer: Tracer):
    """Wrap every public function and re-bind it wherever a zonopark module imported it.

    The operators and public methods of ``EpsRational`` are wrapped on the
    class, with span names such as ``eps_eq`` for ``__eq__``.
    """
    package = importlib.import_module("zonopark")
    modules = {layer: importlib.import_module(f"zonopark.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            public = not name.startswith("_") and callable(obj) and not isinstance(obj, type)
            if public and getattr(obj, "__module__", None) == module.__name__:
                wrappers[id(obj)] = tracer.wrap(layer, name, obj, MEASURES.get((layer, name)))
    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
    eps_rational = modules["scalars"].EpsRational
    for name, obj in list(vars(eps_rational).items()):
        dunder = name.startswith("__") and name.endswith("__")
        if inspect.isfunction(obj) and name not in EPS_SKIP and (dunder or not name.startswith("_")):
            setattr(eps_rational, name, tracer.wrap("scalars", "eps_" + name.strip("_"), obj))
    return modules["cli"]


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(tracer: Tracer, sink: OutputSink, wall_ns: int) -> dict:
    index = {name: i for i, name in enumerate(tracer.names)}
    candidates = (index["parking.is_parking_function"], index["parking.enumerate_parking_functions"])
    scanned = (index["zonotope.dominant_points"], index["tilting.dominant_weights"])
    calls, self_ns, size_sum, size_max, under = tracer.reduce([candidates, scanned])

    def total(name: str) -> int:
        return size_sum[index[name]]

    layer_self = dict.fromkeys(LAYERS, 0)
    for name, i in index.items():
        layer_self[name.split(".", 1)[0]] += self_ns[i]
    exact = {f"{name}.calls": calls[i] for name, i in index.items()}
    exact.update(
        {
            "zonotope.count_invariant_points.hit_ratio": _ratio(
                total("zonotope.count_invariant_points"), tracer.candidates
            ),
            "zonotope.dominant_points.reps": total("zonotope.dominant_points"),
            "zonotope.enumerate_lattice_points.points": total("zonotope.enumerate_lattice_points"),
            "orbits.orbit_of.points": total("orbits.orbit_of"),
            "parking.enumerate_parking_functions.keep_ratio": _ratio(
                total("parking.enumerate_parking_functions"), under[candidates][0]
            ),
            "treecount.determinant.max_order": size_max[index["treecount.determinant"]],
            "tilting.dominant_weights.keep_ratio": _ratio(
                total("tilting.dominant_weights"), under[scanned][1]
            ),
            "cli.records": sink.lines,
            "cli.bytes_out": sink.bytes,
        }
    )
    return {
        "spans": len(tracer.fid),
        "wall_s": wall_ns / 1e9,
        "layer_self_s": {layer: ns / 1e9 for layer, ns in layer_self.items()},
        "self_s": {name: self_ns[i] / 1e9 for name, i in index.items()},
        "exact": exact,
        "alloc_peak_mib": {layer: peak / MIB for layer, peak in tracer.alloc_peak.items()},
        "sha256": sink.sha.hexdigest(),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("timing", "memory"):
        print(__doc__, file=sys.stderr)
        return 2
    memory = argv[0] == "memory"
    tracer = Tracer(memory)
    cli = install(tracer)
    real_stdout = sys.stdout
    sink = OutputSink()
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    if memory:
        tracemalloc.start()
    started = time.perf_counter_ns()
    try:
        code = cli.main(argv[1:])
        sys.stdout.flush()
    finally:
        wall_ns = time.perf_counter_ns() - started
        if memory:
            tracemalloc.stop()
        sys.stdout = real_stdout
    result = summarize(tracer, sink, wall_ns)
    result["exit_code"] = code
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
