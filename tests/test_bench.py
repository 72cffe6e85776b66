import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# each argv with counters its run must read: the records its command
# writes for a grid of checks, for 49 bijection pairs with their summary from
# a generator handler, and for 14 weights with their summary, whose color
# blocks are scanned one at a time and still add up to the table size
TRACED_RUNS = [
    (["timing", "verify", "--max-n", "2", "--max-m", "1"], {"cli.records": 45}),
    (["timing", "bijection", "--m", "2", "--n", "3", "--tau", "11/6"], {"cli.records": 50}),
    (
        ["timing", "tilting", "--m", "2", "--n", "4", "--t", "0"],
        {"cli.records": 15, "zonotope.dominant_points.reps": 14},
    ),
]


def test_traced_harness_finds_every_named_metric():
    # a renamed library function would leave a per-layer metric of the
    # benchmark without a source, or stop the tracer's summary outright
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        named = {metric["name"] for metric in json.load(spec)["per_layer"]}
    counters = {name for name in named if not name.endswith(("_s", "_mib"))}
    for argv, expected in TRACED_RUNS:
        done = subprocess.run(
            [sys.executable, "-S", os.path.join(ROOT, "bench", "traced.py"), *argv],
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        result = json.loads(done.stdout)
        assert result["exit_code"] == 0, argv
        assert {name: result["exact"][name] for name in expected} == expected, argv
        # the metric names bench/run.py builds from one traced result
        found = set(result["exact"])
        found.update(f"{name}.self_s" for name in (*result["self_s"], *result["layer_self_s"]))
        found.update(f"{layer}.alloc_peak_mib" for layer in result["alloc_peak_mib"])
        assert named - {"trace.overhead_s"} <= found, argv
        assert counters and counters <= set(result["exact"]), argv
