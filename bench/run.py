"""Benchmark harness for the zonopark CLI (standard library only).

    python3 -S bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it on a source checkout; it runs the CLI from that checkout's ``src``.
The workloads and their output checks are in ``bench/workloads.py``, the
metric names and units in ``BENCHMARK.json``.

With ``--trace 0`` it spawns the CLI, one invocation at a time, for about
``--seconds`` seconds (at least three invocations), and reports medians of

- ``wall_s``: spawn to exit;
- ``cpu_s``: the child's user plus system time, from ``os.wait4``;
- ``first_record_s``: spawn to the first byte on stdout;
- ``peak_rss_mib``: the child's ``ru_maxrss``;
- ``setup_s``: spawn to exit of a no-work invocation (interpreter start
  plus ``import zonopark.cli``), the median of several made first.

A child spawned from this process starts with this process's peak RSS as
its ``ru_maxrss``.  So the harness stays small: it runs without ``site``
(``-S``), imports little, and drains and hashes the children's stdout as
it arrives instead of buffering it.  A probe checks on every run that a
no-work invocation reports its own peak RSS.  The first invocation's
output is spooled to ``bench/.work`` and checked in full after the timed
loop; every other invocation must reproduce it byte for byte.  An
invocation fails on a nonzero exit, a timeout or a failed check, and
``failed / attempted`` in the result line is the error rate.

With ``--trace 1`` it makes one untraced invocation and then two traced
ones, each in a fresh interpreter (``bench/traced.py``): a ``timing`` pass
for per-layer self times and exact work counters, and a ``memory`` pass
under ``tracemalloc`` for allocation peaks.  The exact counters must agree
between the passes and with any earlier traced run of the same sources,
workload and seed in this checkout (kept in ``bench/.state``).

Everything else measured (tail percentiles, sample counts, output hashes,
all counters, the environment) is printed as one JSON line before the
result line, which is the last line of stdout.
"""

import argparse
import io
import json
import math
import os
import select
import signal
import sys
import time

try:  # the built-in hash: hashlib's OpenSSL would add ~4 MiB to this process
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from workloads import NO_WORK_ARGV, NO_WORK_OUTPUT, WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_INVOCATIONS = 15
MIN_SAMPLES = 3
INVOCATION_TIMEOUT_S = 60.0
RUN_LIMIT_S = 165.0  # a run must end within 180 s
RSS_TOLERANCE_MIB = 1.5
# a child that imports the CLI and prints its own peak RSS in KiB
RSS_PROBE = (
    "import zonopark.cli\n"
    "with open('/proc/self/status') as f:\n"
    "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
)


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Invocation:
    __slots__ = (
        "wall_s", "cpu_s", "first_record_s", "peak_rss_mib",
        "exit_code", "timed_out", "sha256", "bytes_out", "stderr_tail",
    )

    @property
    def exited_cleanly(self) -> bool:
        return self.exit_code == 0 and not self.timed_out

    def describe(self) -> str:
        if self.timed_out:
            return "timed out"
        return f"exit {self.exit_code}: {self.stderr_tail.strip()[-300:]}"


def invoke(cmd, env, timeout_s, spool=None) -> Invocation:
    """Run one child to its exit, draining and hashing its stdout as it arrives."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    pidfd = os.pidfd_open(pid)
    poller = select.poll()
    for fd in (out_r, err_r, pidfd):
        poller.register(fd, select.POLLIN)
    pending = {out_r, err_r, pidfd}
    inv = Invocation()
    inv.first_record_s = None
    inv.bytes_out = 0
    inv.timed_out = False
    digest = sha256()
    stderr_tail = b""
    deadline = start + timeout_s
    try:
        while pending:
            left = deadline - time.perf_counter()
            if left <= 0:
                inv.timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            for fd, _ in poller.poll(left * 1000):
                data = b"" if fd == pidfd else os.read(fd, 1 << 16)
                if not data:
                    poller.unregister(fd)
                    pending.discard(fd)
                elif fd == out_r:
                    if inv.first_record_s is None:
                        inv.first_record_s = time.perf_counter() - start
                    digest.update(data)
                    inv.bytes_out += len(data)
                    if spool is not None:
                        spool.write(data)
                else:
                    stderr_tail = (stderr_tail + data)[-2048:]
        _, status, usage = os.wait4(pid, 0)
        inv.wall_s = time.perf_counter() - start
    finally:
        for fd in (out_r, err_r, pidfd):
            os.close(fd)
    inv.cpu_s = usage.ru_utime + usage.ru_stime
    inv.peak_rss_mib = usage.ru_maxrss / 1024
    inv.exit_code = os.waitstatus_to_exitcode(status)
    inv.sha256 = digest.hexdigest()
    inv.stderr_tail = stderr_tail.decode(errors="replace")
    return inv


class Run:
    """One benchmark run: the children's environment, time limit and failures."""

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0  # invocations that failed
        self.problems = []

    def invoke(self, args, spool=None):
        """Run the interpreter with these arguments; None once the run is out of time."""
        timeout = min(INVOCATION_TIMEOUT_S, self.started + RUN_LIMIT_S - time.perf_counter())
        if timeout <= 0:
            self.fail("run out of time", invocation=False)
            return None
        self.attempted += 1
        return invoke([sys.executable, *args], self.env, timeout, spool)

    def fail(self, message: str, invocation: bool = True) -> None:
        self.failed += invocation
        self.problems.append(message)


def cli(argv):
    return ["-m", "zonopark.cli", *argv]


def tail_percentile(values):
    """The highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered)) - 1
        if len(ordered) - 1 - rank >= 10:
            return {"p": p, "value": ordered[rank]}
    return None


def timing_summary(values):
    return {"median": median(values), "tail": tail_percentile(values), "n": len(values)}


def own_peak_rss_mib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


# -- set-up -------------------------------------------------------------------


def setup(run: Run):
    """No-work invocation wall times, and the peak-RSS self-check."""
    expected = sha256(NO_WORK_OUTPUT).hexdigest()
    walls, rss = [], []
    for _ in range(SETUP_INVOCATIONS):
        inv = run.invoke(cli(NO_WORK_ARGV))
        if inv is None:
            break
        if inv.exited_cleanly and inv.sha256 == expected:
            walls.append(inv.wall_s)
            rss.append(inv.peak_rss_mib)
        else:
            run.fail(f"no-work invocation: {inv.describe()}")
    probe_out = io.BytesIO()
    probe = run.invoke(["-c", RSS_PROBE], probe_out)
    check = {"no_work_rss_mib": median(rss) if rss else None, "harness_rss_mib": own_peak_rss_mib()}
    if probe is None or not probe.exited_cleanly:
        run.fail(f"rss probe: {probe.describe() if probe else 'not run'}", probe is not None)
        return walls, check
    own = int(probe_out.getvalue()) / 1024
    check.update(probe_self_reported_mib=own, probe_wait4_mib=probe.peak_rss_mib)
    # ru_maxrss must match the child's own high-water mark, and a no-work
    # invocation must sit at that of an interpreter that imported the CLI
    check["ok"] = bool(rss) and (
        abs(probe.peak_rss_mib - own) <= RSS_TOLERANCE_MIB
        and abs(check["no_work_rss_mib"] - own) <= RSS_TOLERANCE_MIB
    )
    if not check["ok"]:
        run.fail(f"peak-RSS self-check failed (is the harness run with -S?): {check}", invocation=False)
    return walls, check


# -- measurement --------------------------------------------------------------


def measure(run: Run, workload, argv, budget_s: float, min_samples: int):
    """Invoke the workload until the budget is spent; check every output.

    Returns the invocations that passed and the sha256 of the checked output.
    """
    spool_path = os.path.join(HERE, ".work", f"{workload.name}.out")
    os.makedirs(os.path.dirname(spool_path), exist_ok=True)
    invocations = []
    start = time.perf_counter()
    while True:
        if invocations:
            inv = run.invoke(cli(argv))
        else:
            with open(spool_path, "wb") as spool:
                inv = run.invoke(cli(argv), spool)
        if inv is None:
            break
        invocations.append(inv)
        elapsed = time.perf_counter() - start
        typical = median([i.wall_s for i in invocations])
        if len(invocations) >= min_samples and elapsed + typical > budget_s:
            break
    expected = None
    if invocations and invocations[0].exited_cleanly:
        try:
            with open(spool_path, "rb") as lines:
                workload.check(argv, lines)
            expected = invocations[0].sha256
        except CheckFailed as exc:
            run.fail(f"output check: {exc}", invocation=False)
    os.remove(spool_path)
    passed = []
    for inv in invocations:
        if not inv.exited_cleanly:
            run.fail(f"workload invocation: {inv.describe()}")
        elif inv.sha256 != expected:
            run.fail("workload invocation: output is not the checked output")
        else:
            passed.append(inv)
    return passed, expected


def end_to_end(run: Run, workload, argv, seconds: float):
    setup_walls, rss_check = setup(run)
    passed, digest = measure(run, workload, argv, seconds, MIN_SAMPLES)
    if not (passed and setup_walls):
        return {}, {"sha256": digest, "rss_self_check": rss_check}
    series = {
        name: [getattr(inv, name) for inv in passed]
        for name in ("wall_s", "cpu_s", "first_record_s", "peak_rss_mib")
    }
    series["setup_s"] = setup_walls
    values = {name: median(v) for name, v in series.items()}
    detail = {
        "sha256": digest,
        "bytes_out": passed[0].bytes_out,
        "rss_self_check": rss_check,
        "timings": {name: timing_summary(v) for name, v in series.items()},
        "samples": series,
    }
    return values, detail


# -- traced run ---------------------------------------------------------------


def source_digest() -> str:
    digest = sha256()
    for directory in (os.path.join(ROOT, "src", "zonopark"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as source:
                    digest.update(name.encode() + b"\0" + source.read())
    return digest.hexdigest()[:16]


def traced_pass(run: Run, mode: str, argv):
    out = io.BytesIO()
    inv = run.invoke([os.path.join(HERE, "traced.py"), mode, *argv], out)
    if inv is None or not inv.exited_cleanly:
        if inv is not None:
            run.fail(f"traced {mode} pass: {inv.describe()}")
        return inv, None
    return inv, json.loads(out.getvalue())


def check_exact(run: Run, exact: dict, workload, seed: int) -> None:
    """The counters of a traced run must repeat for the same sources and seed."""
    state_dir = os.path.join(HERE, ".state")
    path = os.path.join(state_dir, f"{source_digest()}-{workload.name}-{seed}.json")
    if os.path.exists(path):
        with open(path) as saved:
            if json.load(saved) != exact:
                run.fail(f"exact counters differ from an earlier run ({os.path.basename(path)})", invocation=False)
        return
    os.makedirs(state_dir, exist_ok=True)
    with open(path, "w") as saved:
        json.dump(exact, saved, sort_keys=True)


def traced(run: Run, workload, argv, seed: int):
    passed, digest = measure(run, workload, argv, 0, 1)
    timing_inv, timing = traced_pass(run, "timing", argv)
    _, memory = traced_pass(run, "memory", argv)
    if not (passed and timing and memory):
        return {}, {}
    for mode, result in (("timing", timing), ("memory", memory)):
        if result["sha256"] != digest or result["exit_code"] != 0:
            run.fail(f"traced {mode} pass changed the output or the exit code", invocation=False)
    exact = timing["exact"]
    if memory["exact"] != exact:
        run.fail("exact counters differ between the timing and memory passes", invocation=False)
    check_exact(run, exact, workload, seed)
    untraced = [inv.wall_s for inv in passed]
    values = dict(exact)
    values.update({f"{layer}.self_s": s for layer, s in timing["layer_self_s"].items()})
    values.update({f"{name}.self_s": s for name, s in timing["self_s"].items()})
    values.update({f"{layer}.alloc_peak_mib": p for layer, p in memory["alloc_peak_mib"].items()})
    values["trace.overhead_s"] = timing_inv.wall_s - median(untraced)
    total = sum(timing["layer_self_s"].values())
    detail = {
        "sha256": digest,
        "untraced_wall_s": timing_summary(untraced),
        "traced_wall_s": timing_inv.wall_s,
        "spans": timing["spans"],
        "layer_share": {k: v / total for k, v in timing["layer_self_s"].items()},
        "self_s": timing["self_s"],
        "exact": exact,
    }
    return values, detail


# -- entry point --------------------------------------------------------------


def git_commit():
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as branch:
                return branch.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            return next((line.split()[0] for line in packed if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "zonopark", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: no zonopark sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path) as spec_file:
        spec = json.load(spec_file)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    environment = {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }
    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.seed)
    run = Run()
    if args.trace:
        values, detail = traced(run, workload, argv, args.seed)
    else:
        values, detail = end_to_end(run, workload, argv, args.seconds)
    environment["loadavg_after"] = os.getloadavg()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": argv,
        "environment": environment,
        "error_rate": run.failed / max(run.attempted, 1),
        "problems": run.problems,
        # named metrics of functions the sources no longer have; reported as 0
        "absent": [m["name"] for m in metrics if values and m["name"] not in values],
        **detail,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
