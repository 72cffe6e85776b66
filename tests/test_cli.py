import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from zonopark import cli, orbits
from zonopark.cli import build_parser, main
from zonopark.parking import fuss_catalan, lattice_to_parking
from zonopark.scalars import EpsRational, parse_scalar
from zonopark.verify import admissible_taus, run_checks
from zonopark.zonotope import ZonotopeSpec, dominant_points, enumerate_lattice_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines()]


def assert_no_floats(value):
    assert not isinstance(value, float), f"float leaked into output: {value!r}"
    if isinstance(value, dict):
        for v in value.values():
            assert_no_floats(v)
    elif isinstance(value, list):
        for v in value:
            assert_no_floats(v)


def test_enumerate_small(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "2", "--tau", "1-eps")
    assert code == 0 and err == ""
    records = json_lines(out)
    points = [r for r in records if r["kind"] == "point"]
    assert [r["payload"] for r in points] == [
        [0, 2], [1, 1], [1, 2], [2, 0], [2, 1],
    ]
    assert all(r["tau"] == "1-eps" and r["m"] == 2 and r["n"] == 2 for r in points)
    summary = records[-1]
    assert summary["kind"] == "summary" and summary["payload"] == {"count": 5}
    for record in records:
        assert list(record)[:4] == ["kind", "m", "n", "tau"]
        assert_no_floats(record)


def test_enumerate_count_49(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3", "--tau", "11/6")
    assert code == 0
    records = json_lines(out)
    assert sum(1 for r in records if r["kind"] == "point") == 49
    assert records[-1]["payload"] == {"count": 49}


def test_enumerate_inadmissible_exits_3(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "2", "--tau", "3/2")
    assert code == 3
    assert out == ""
    assert "not admissible" in err


def test_enumerate_bad_tau_exits_2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "2", "--tau", "wat")
    assert code == 2 and out == ""


@pytest.mark.parametrize("tau", ["1/0", "0/0", "1/0-eps"])
def test_enumerate_zero_denominator_tau_exits_2(capsys, tau):
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "2", "--tau", tau)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_bijection_pairs(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--m", "2", "--n", "2", "--tau", "1-eps")
    assert code == 0
    pairs = [r["payload"] for r in json_lines(out) if r["kind"] == "pair"]
    assert {"lattice": [2, 1], "parking": [1, 0]} in pairs
    assert {"lattice": [1, 1], "parking": [0, 0]} in pairs
    assert len(pairs) == 5


def test_parking_and_dyck(capsys):
    code, out, _ = run_cli(capsys, "parking", "--m", "2", "--n", "2")
    assert code == 0
    records = json_lines(out)
    assert [r["payload"] for r in records if r["kind"] == "parking"] == [
        [0, 0], [0, 1], [0, 2], [1, 0], [2, 0],
    ]
    assert records[-1]["payload"] == {"count": 5}

    code, out, _ = run_cli(capsys, "dyck", "--m", "2", "--n", "2")
    assert code == 0
    records = json_lines(out)
    assert [r["payload"] for r in records if r["kind"] == "dyck"] == [[0, 0], [0, 1]]


def test_catalan(capsys):
    code, out, _ = run_cli(capsys, "catalan", "--m", "2", "--n", "4")
    assert code == 0
    (record,) = json_lines(out)
    assert record["kind"] == "catalan" and record["payload"] == 14


def test_trees_with_and_without_partition(capsys):
    code, out, _ = run_cli(capsys, "trees", "--m", "2", "--n", "3")
    assert code == 0
    (record,) = json_lines(out)
    assert record["payload"] == 49 and record["tau"] is None

    code, out, _ = run_cli(capsys, "trees", "--m", "2", "--n", "3", "--partition", "1,2|3")
    assert code == 0
    (record,) = json_lines(out)
    assert record["payload"] == 14 and record["partition"] == "1,2|3"

    code, out, err = run_cli(capsys, "trees", "--m", "2", "--n", "3", "--partition", "1|2")
    assert code == 2 and "partition" in err


def test_mobius_count(capsys):
    code, out, _ = run_cli(capsys, "mobius-count", "--m", "2", "--n", "3")
    assert code == 0
    (record,) = json_lines(out)
    assert record["kind"] == "mobius_count" and record["payload"] == 5


def test_tilting_table(capsys):
    code, out, _ = run_cli(capsys, "tilting", "--m", "2", "--n", "2", "--t", "0")
    assert code == 0
    records = json_lines(out)
    weights = [r for r in records if r["kind"] == "weight"]
    assert [r["payload"] for r in weights] == [[1, 0], [1, 1]]
    assert [r["color"] for r in weights] == [1, 2]
    assert records[-1]["payload"] == {"t": "0", "count": 2, "colors": {"1": 1, "2": 1}}


def test_tilting_negative_t_value(capsys):
    code, out, _ = run_cli(capsys, "tilting", "--m", "2", "--n", "3", "--t", "-2/3")
    assert code == 0
    records = json_lines(out)
    got = {tuple(r["payload"]) for r in records if r["kind"] == "weight"}
    assert got == {(1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1), (2, 1, 0)}

    code, out, _ = run_cli(capsys, "tilting", "--m", "2", "--n", "4", "--t", "-1/4")
    records = json_lines(out)
    assert sum(1 for r in records if r["kind"] == "weight") == 14


# sha256 of the full stdout of each run, taken from the version that
# filtered the weakly decreasing scan, so every later scan must reproduce
# every byte
TILTING_OUTPUT_SHA256 = {
    ("--m", "2", "--n", "8", "--t", "0", "--window", "low"):
        "1b6ea79d062202f588f5bccd53a121dc55f6ab24010c601035c2f896edc4b2e2",
    ("--m", "2", "--n", "8", "--t", "0", "--window", "high"):
        "efe164dd003a583a14384d31709d86ac66012029aa9228c8a8409218b6af0c85",
    ("--m", "2", "--n", "8", "--t", "-3/7"):
        "06c3fc9b0042db61ddadf43168fb329e5b9f3c76965bd7f5c20a4f429cb72594",
    ("--m", "3", "--n", "7", "--t", "-1/2"):
        "a8eb77d1bf44686aa68e4e5497675b1d35d3cb7c19d8a6b61d1cf8641afb7f75",
    # the pins below were taken from the version that sorted the weights by
    # color and negated weight; m = 1 has a single weight, and the high
    # window at (3, 6) puts many of its 1,428 weights in each color
    ("--m", "1", "--n", "5", "--t", "-2/5"):
        "4de0e6889f105acd7e011120a20d879b75faa3b7b26bcbbdd923724747862807",
    ("--m", "3", "--n", "6", "--t", "-1/3", "--window", "high", "--format", "tsv"):
        "b4816d318afe114ad5212dcfddd92f7397ea9d68927966c8ca39b40956635127",
    # the pins below were taken from the version that scanned the strictly
    # decreasing points of Z(m, n, tau) and subtracted the staircase; they
    # cover a table whose scan one multiplicity down has m = 0, a 969-weight
    # table at m = 4, and n = 1, where the staircase is empty
    ("--m", "1", "--n", "6", "--t", "-1/2", "--window", "high"):
        "5712ca770cb590777231d2a8281f925c3a77f5deb27440331ad0673053d1f36b",
    ("--m", "4", "--n", "5", "--t", "-3/5"):
        "e9cdb7dde4b92d43dd3001c32d0f1632d5b245d11ecd5fa4ab50b9589f424948",
    ("--m", "2", "--n", "1", "--t", "0"):
        "7e4b7af38716790769b4edfb7e3f5c0f04cc03e59e385f453f74503a422f242c",
}


@pytest.mark.parametrize("args", sorted(TILTING_OUTPUT_SHA256))
def test_tilting_output_is_pinned(capsys, args):
    code, out, err = run_cli(capsys, "tilting", *args)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TILTING_OUTPUT_SHA256[args]


# sha256 of the full stdout of each run, taken from the version that looked
# the bijection up in per-class tables and filtered every candidate parking
# function, so the cyclic-shift map and the orbit merge must reproduce them
STREAM_OUTPUT_SHA256 = {
    ("bijection", "--m", "3", "--n", "5", "--tau", "53/8"):
        "2340e829d7b77156371024ee5879731a282d877e481ee9dbb797ca00eaf046bf",
    ("bijection", "--m", "2", "--n", "4", "--tau", "3-eps"):
        "b66a17b48f6b986b1471cb0c28397b32bafda9dfb73b0126c4413e06ed4142f3",
    ("bijection", "--m", "1", "--n", "5", "--tau", "2+eps", "--format", "tsv"):
        "6bd4bb623fa298ed9084e45581c48fb618c797ec1b2f000e97f995ac26ab96c6",
    # the pins below were taken from the version that called
    # lattice_to_parking on every point and json.dumps on every record;
    # the first point here, [-3,-2,0], has negative coordinates
    ("bijection", "--m", "2", "--n", "3", "--tau", "-7/4"):
        "2d106fb77c842a4196cce38b27db54a7dd8cc0e306d247baed634dfeccf8b398",
    ("bijection", "--m", "2", "--n", "3", "--tau", "-7/4", "--format", "tsv"):
        "a00c67f3fef52ab5cfaf98583aca12df0c39eeefd1f0fa6bd1312bd5f5d31e89",
    # two-digit values in the nested TSV payload
    ("bijection", "--m", "3", "--n", "4", "--tau", "41/8", "--format", "tsv"):
        "00cfb2d2e0c3dbfbd96c3b23f6901da4d41b2e25476b8830991cfce2272d979f",
    ("parking", "--m", "2", "--n", "5"):
        "88690747f371590686058d4657e25a6a3a3397515f781e473c470abc185f875b",
    ("parking", "--m", "3", "--n", "4", "--format", "tsv"):
        "6412f8a68fda9995e948e5c14ce0f44cd90da60c43db2d953f4795797aca3212",
    # taken from the version that listed the increasing parking functions
    # through a recursive builder
    ("parking", "--m", "1", "--n", "5"):
        "b1c9f4243a99c18980f028afcb149e41dc6db05ba1bd0be7e40f38a5dbf7d860",
    # taken from the version that wrote one record per yield: each of these
    # has an empty prefix (n <= 2), and at n = 1 tails of one coordinate
    ("bijection", "--m", "2", "--n", "1", "--tau", "1/3"):
        "ce43444a8f69ffddcc13bcfc48618eff700974359a9c4d798df7ce29dd04246b",
    ("bijection", "--m", "3", "--n", "2", "--tau", "7/3", "--format", "tsv"):
        "d0627a694d8970a3e4f964e5aa3fabeb56c0179392697a3ca645ad1eb6348ea9",
    ("enumerate", "--m", "2", "--n", "2", "--tau", "4/3", "--format", "tsv"):
        "9e3135f0dccf1edd1ad1c48c0edfb9bb394e25d75a8c968872ff852624978db3",
    ("enumerate", "--m", "3", "--n", "1", "--tau", "1/2"):
        "81baef3680bf12620b6423b75fee1ade1ab8bbe97be0bf9de6b26acb0f684a52",
    ("parking", "--m", "3", "--n", "2"):
        "256f01404d8dc30b926280c0a4aa2e258c61bdb8c78d022f751f82b35a075b2f",
    ("parking", "--m", "2", "--n", "1", "--format", "tsv"):
        "182929e30715872c6aa07164ff5a79f5e8c6bf2ecb90b1d57cdf51591667322d",
}


@pytest.mark.parametrize("args", sorted(STREAM_OUTPUT_SHA256))
def test_stream_output_is_pinned(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == STREAM_OUTPUT_SHA256[args]


# sha256 of the full stdout of each run, taken from the version whose checks
# were methods of one suite object, so the invariant registry must keep the
# names, the order and the details of every record
VERIFY_OUTPUT_SHA256 = {
    ("verify",): "c6fde452699f8abe558fafda2a21fe486d91088f36170b1b16df4972c79ea3d5",
    ("verify", "--max-n", "5", "--max-m", "2", "--seed", "7"):
        "a74b66a9b819fd67e84b7b0a57a1ac3951c6cbb36a6f2def77a90c271295a341",
}


@pytest.mark.parametrize("args", sorted(VERIFY_OUTPUT_SHA256))
def test_verify_output_is_pinned(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_OUTPUT_SHA256[args]


# sha256 of the full stdout of each run, taken from the version that built
# every point list before writing its first record and whose verify wrote
# nothing until its grid was done, so the orbit stream and the generator
# handlers must reproduce every byte
COMMAND_OUTPUT_SHA256 = {
    ("enumerate", "--m", "2", "--n", "4", "--tau", "3-eps"):
        "70bfc426471a920634c2a709f4a9251f5a774ef4568d61bb77e0c8d30ff883ce",
    ("enumerate", "--m", "3", "--n", "3", "--tau", "31/8", "--format", "tsv"):
        "7e87633a3a7f8b36abf43bb4a2a7a2a1ce9f7b2c38e888d5adf323d840e56b3a",
    # admissible, and its first point [-3,-2,0] has negative coordinates
    ("enumerate", "--m", "2", "--n", "3", "--tau", "-7/4"):
        "e8adc2b11fdae9d21e982d945af8751ac3642318a11dc356cac827efb7b92e1f",
    ("enumerate", "--m", "2", "--n", "3", "--tau", "-7/4", "--format", "tsv"):
        "0f28295620a51eab432287a4839e6345de24e6371f5527e8ec7afd4c051ca56a",
    ("dyck", "--m", "3", "--n", "5"):
        "a9b5dd72e7fc3225678b40d936fab839be8b49b9653df5cbaceead22971035d3",
    ("dyck", "--m", "2", "--n", "6", "--format", "tsv"):
        "a5313ca6d78de1ccef92d7a0fd2a294c5a124e739882b1eb2463275a846561b0",
    # taken from the version that built every Dyck path into a list; at
    # m = 1 the bound m - 1 is 0, so there is one path
    ("dyck", "--m", "1", "--n", "4"):
        "4c40af81ce663e11efa18e7bcefd4b209b4cde8685e0e361df8295b064ada6bc",
    ("dyck", "--m", "3", "--n", "7"):
        "3551dec6e7a255fbd4f035527e1017df5cc9fa95101f4deb9f7a51e7fcbc8a48",
    ("tilting", "--m", "2", "--n", "6", "--t", "-1/3", "--format", "tsv"):
        "1f150c1ca3c6eb19c2ad569418b42ef26857acb806698032f43ca41e4f4f978e",
    ("verify", "--max-n", "3", "--max-m", "2", "--format", "tsv"):
        "e7d97d71f587976f6177366d4843982ad6e8a3d3e6192fb95a5b7ffac9359724",
    ("trees", "--m", "3", "--n", "4", "--partition", "1,3|2|4"):
        "9d7ef87af21610c0e9ea713bf9d00e5f8dc149034f56f54e7830d66aeff3e5c8",
    ("trees", "--m", "2", "--n", "5", "--partition", "2|1,4,5|3", "--format", "tsv"):
        "96e19905afa7c28e7e009e81f8f22f4a8b119e6ee13b46b1ba90f13662e7fbc1",
    ("catalan", "--m", "3", "--n", "6"):
        "b32ec9fb61e18c67b033283290ec8e84e07ba383fd67c3e52f32dc8f8b8513be",
    ("catalan", "--m", "2", "--n", "9", "--format", "tsv"):
        "37aca46e9251cd6d3d3b519bac71e310d1e9a06a8fa97fa60284b29bf08ba3f5",
    ("mobius-count", "--m", "2", "--n", "6"):
        "0709d969bc62536dd56c926c1175e0b81ea5ed247332ce736fc56ae6b953bdcb",
    ("mobius-count", "--m", "3", "--n", "5", "--format", "tsv"):
        "b651b74d7edc9f8c8041c7a8b690179eea5931e03938e981bc56194bd54873fb",
}


@pytest.mark.parametrize("args", sorted(COMMAND_OUTPUT_SHA256))
def test_command_output_is_pinned(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_OUTPUT_SHA256[args]


@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "--m", "2", "--n", "5", "--tau", "4-eps"),
        ("parking", "--m", "2", "--n", "5"),
        ("bijection", "--m", "2", "--n", "5", "--tau", "4-eps"),
        ("dyck", "--m", "3", "--n", "8"),
    ],
)
def test_streaming_commands_hold_only_the_representatives(monkeypatch, args):
    # 14,641 records for each of the first three; holding them all as tuples
    # peaks above 1.2 MiB, while the merged orbit stream holds one generator
    # per representative (and bijection one relabel table per shift).  The
    # 43,263 Dyck paths of (3, 8) held as a list peak near 4.9 MiB; the
    # successor scan holds only the current path
    code, peak = traced_peak(monkeypatch, args)
    assert code == 0
    assert peak < 0.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_bijection_renders_each_sorted_prefix_in_bounded_memory(monkeypatch):
    # the 1,792 groups at (3, 5) share 357 sorted prefixes, each kept as one
    # template string, about 0.2 MiB in all; run alone the command peaks
    # near 0.8 MiB; one string per tail would add 13,056 string headers,
    # about 0.6 MiB
    code, peak = traced_peak(monkeypatch, ("bijection", "--m", "3", "--n", "5", "--tau", "53/8"))
    assert code == 0
    assert peak < 1.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def traced_peak(monkeypatch, args):
    """Run the command into devnull; return its exit code and traced peak in bytes."""
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(list(args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, peak


@pytest.fixture
def scanned_colors(monkeypatch):
    """Each color the tilting command scans, with the size of its block."""
    scans = []

    def recording(spec, color):
        points = dominant_points(spec, color)
        scans.append((color, len(points)))
        return points

    monkeypatch.setattr("zonopark.tilting.dominant_points", recording)
    return scans


@pytest.mark.parametrize("argv", [("--m", "1", "--n", "5", "--t=-2/5"), ("--m", "2", "--n", "6", "--t=0")])
def test_tilting_scans_a_color_only_when_its_block_is_written(scanned_colors, argv):
    # m = 1 has a single weight, so the colors below its own are empty
    args = build_parser().parse_args(["tilting", *argv])
    lines = args.handler(args)
    first = json.loads(next(lines))
    assert first["kind"] == "weight"
    colors = [color for color, _ in scanned_colors]
    assert colors == list(range(colors[0], first["color"] + 1))
    assert [size for _, size in scanned_colors[:-1]] == [0] * (len(colors) - 1)
    assert scanned_colors[-1][1] > 0


def test_tilting_holds_one_color_block_at_a_time(scanned_colors, monkeypatch):
    # the largest of the ten colors at (2, 10) holds 1,969 of the 16,796 weights
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["tilting", "--m", "2", "--n", "10", "--t", "0"])
    assert code == 0
    sizes = [size for _, size in scanned_colors]
    assert sum(sizes) == fuss_catalan(2, 10) == 16_796
    assert max(sizes) == 1_969


def test_bijection_maps_each_orbit_once(monkeypatch):
    calls = []

    def counting(rep, spec):
        calls.append(rep)
        return lattice_to_parking(rep, spec)

    monkeypatch.setattr("zonopark.cli.lattice_to_parking", counting)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["bijection", "--m", "3", "--n", "5", "--tau", "53/8"])
    assert code == 0
    # 969 calls for 65,536 pairs, each on a weakly decreasing representative
    reps = ZonotopeSpec(3, 5, parse_scalar("53/8")).representatives
    assert len(calls) == len(reps) == 969
    assert set(calls) == set(reps)
    assert all(type(rep) is tuple and list(rep) == sorted(rep, reverse=True) for rep in calls)


def test_bijection_yields_one_string_per_prefix_group():
    # 65,536 pairs in 1,792 groups of a length-3 prefix, then the summary
    args = ("bijection", "--m", "3", "--n", "5", "--tau", "53/8")
    parsed = build_parser().parse_args(list(args))
    chunks = list(parsed.handler(parsed))
    assert len(chunks) == 1_793
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == STREAM_OUTPUT_SHA256[args]


def test_render_memos_live_for_one_call():
    # each call keys its templates on the sorted prefix; a memo shared across
    # calls would hand one spec's records to another with the same prefixes
    def container_sizes():
        return {
            (module.__name__, name): len(value)
            for module in (cli, orbits)
            for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        }

    before = container_sizes()
    for args in [
        ("bijection", "--m", "3", "--n", "5", "--tau", "53/8"),
        ("parking", "--m", "2", "--n", "5"),
        ("bijection", "--m", "2", "--n", "4", "--tau", "3-eps"),
        ("parking", "--m", "3", "--n", "4", "--format", "tsv"),
    ]:
        parsed = build_parser().parse_args(list(args))
        out = "".join(parsed.handler(parsed))
        assert hashlib.sha256(out.encode()).hexdigest() == STREAM_OUTPUT_SHA256[args]
    assert container_sizes() == before


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_bijection_pairs_equal_the_map_point_by_point(capsys, m, n):
    center = Fraction(m * (n - 1), 2)
    rational = admissible_taus(m, n, 1)[0]
    # a window midpoint, the center from below and above, and the midpoint
    # moved down until every coordinate is negative
    taus = [rational, EpsRational(center, -1), EpsRational(center, 1), rational - (m * (n - 1) + 2)]
    for tau in taus:
        spec = ZonotopeSpec(m, n, tau)
        code, out, err = run_cli(capsys, "bijection", "--m", str(m), "--n", str(n), "--tau", str(tau))
        assert code == 0 and err == ""
        pairs = [r["payload"] for r in json_lines(out)[:-1]]
        want = [(x, lattice_to_parking(x, spec)) for x in enumerate_lattice_points(spec)]
        assert [(tuple(p["lattice"]), tuple(p["parking"])) for p in pairs] == want, str(tau)


def test_verify_failure_exits_1(capsys, monkeypatch):
    def scalar_floor_ceil():
        return "floor, ceil broken on purpose"

    monkeypatch.setattr("zonopark.verify.scalar_floor_ceil", scalar_floor_ceil)
    code, out, err = run_cli(capsys, "verify", "--max-n", "1", "--max-m", "1")
    assert code == 1 and err == ""
    records = json_lines(out)
    failed = [r["payload"] for r in records if r["kind"] == "check" and not r["payload"]["ok"]]
    assert failed == [
        {"name": "scalar_floor_ceil", "ok": False, "detail": "floor, ceil broken on purpose"}
    ]
    assert records[-1]["kind"] == "summary"
    assert records[-1]["payload"] == {"checks": len(records) - 1, "failures": 1}


def test_verify_bounds_must_be_positive(capsys):
    for bounds in (("--max-n", "0", "--max-m", "-3"), ("--max-n", "2", "--max-m", "0")):
        with pytest.raises(SystemExit) as info:
            main(["verify", *bounds])
        assert info.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ("bijection", "--m", "2", "--n", "4", "--tau", "3-eps"),
        # round_trip reaches the image checks of both maps
        ("verify", "--max-n", "5", "--max-m", "2", "--seed", "7"),
    ],
    ids=lambda args: args[0],
)
def test_bijection_output_does_not_rest_on_asserts(args):
    done = subprocess.run(
        [sys.executable, "-O", "-m", "zonopark.cli", *args], capture_output=True, check=True
    )
    pins = {**STREAM_OUTPUT_SHA256, **VERIFY_OUTPUT_SHA256}
    assert hashlib.sha256(done.stdout).hexdigest() == pins[args]


@pytest.mark.parametrize(
    "args",
    [
        ("bijection", "--m", "3", "--n", "5", "--tau", "53/8"),
        # verify flushes each record, so the closed pipe shows inside _emit's loop
        ("verify", "--max-n", "5", "--max-m", "2"),
    ],
    ids=lambda args: args[0],
)
def test_closed_stdout_exits_141_quietly(args):
    child = subprocess.Popen(
        [sys.executable, "-m", "zonopark.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline().startswith(b'{"kind":"')
    child.stdout.close()
    try:
        code = child.wait(timeout=60)
        err = child.stderr.read()
    finally:
        child.kill()
        child.stderr.close()
    assert code == 141 and err == b""


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_verify_hands_each_check_to_the_reader_before_the_next_runs(monkeypatch, fmt):
    # text over a block buffer, as stdout is over a pipe: bytes reach the
    # reader only when the buffer fills or is flushed
    reader = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(reader)))
    lines_read = []

    def watched(max_m, max_n, seed):
        for result in run_checks(max_m, max_n, seed):
            lines_read.append(reader.getvalue().count(b"\n"))
            yield result

    monkeypatch.setattr("zonopark.cli.run_checks", watched)
    assert main(["verify", "--max-n", "2", "--max-m", "2", "--format", fmt]) == 0
    assert len(lines_read) > 1
    assert lines_read == list(range(len(lines_read)))


class FlushCountingSink:
    """A stdout that keeps nothing and notes after how many writes each flush came."""

    def __init__(self):
        self.writes = 0
        self.flushes = []

    def write(self, text):
        self.writes += 1

    def flush(self):
        self.flushes.append(self.writes)


@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "--m", "2", "--n", "5", "--tau", "4-eps"),
        ("bijection", "--m", "3", "--n", "5", "--tau", "53/8"),
        ("parking", "--m", "2", "--n", "5"),
        ("dyck", "--m", "3", "--n", "8"),
        ("tilting", "--m", "2", "--n", "10", "--t", "0"),
    ],
    ids=lambda args: args[0],
)
def test_bulk_commands_stay_block_buffered(monkeypatch, args):
    # thousands of strings in milliseconds: a flush each would be a write
    # system call each, so only main's final flush may come
    sink = FlushCountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(list(args)) == 0
    assert sink.writes > 100
    assert sink.flushes == [sink.writes]


@pytest.mark.parametrize("error", [RuntimeError("broken invariant"), ValueError("bare")])
def test_internal_error_exits_4(capsys, monkeypatch, error):
    def failing(args):
        raise error

    monkeypatch.setattr("zonopark.cli._cmd_catalan", failing)
    code, out, err = run_cli(capsys, "catalan", "--m", "2", "--n", "4")
    assert code == 4 and out == ""
    assert err.startswith("error: internal: ") and str(error) in err
    assert "Traceback (most recent call last)" in err


def test_error_mid_stream_exits_4(capsys, monkeypatch):
    # bijection maps each orbit when the stream first reaches it; the orbit
    # of (2, 1) starts mid-stream, at [1, 2], after [0, 2] and [1, 1]
    def failing_pair(rep, spec):
        if rep == (2, 1):
            raise RuntimeError("no parking function")
        return (0, 0)

    monkeypatch.setattr("zonopark.cli.lattice_to_parking", failing_pair)
    code, out, err = run_cli(capsys, "bijection", "--m", "2", "--n", "2", "--tau", "1-eps")
    assert code == 4
    # the records before the failing orbit were already written
    assert [r["payload"]["lattice"] for r in json_lines(out)] == [[0, 2], [1, 1]]
    assert err.startswith("error: internal: RuntimeError: no parking function")


def test_error_on_a_template_miss_exits_4(capsys, monkeypatch):
    # at n = 4 the groups of a sorted prefix after its first fill in its
    # template; an orbit first reached mid-group, after such groups, must
    # still end the output right before its first point, and an orbit
    # reached at the first point must end it before any record
    args = ("bijection", "--m", "2", "--n", "4", "--tau", "3-eps")
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines(keepends=True)[:-1]
    points = [tuple(json.loads(line)["payload"]["lattice"]) for line in lines]
    reached, reused, first = set(), False, None
    for i, point in enumerate(points):
        reused = reused or list(point[:2]) != sorted(point[:2])
        rep = tuple(sorted(point, reverse=True))
        if rep not in reached:
            reached.add(rep)
            if reused and points[i - 1][:2] == point[:2]:
                first = i
                break
    assert first is not None

    for cut in (first, 0):
        failing = tuple(sorted(points[cut], reverse=True))

        def failing_map(rep, spec):
            if rep == failing:
                raise RuntimeError("no parking function")
            return lattice_to_parking(rep, spec)

        monkeypatch.setattr("zonopark.cli.lattice_to_parking", failing_map)
        code, out, err = run_cli(capsys, *args)
        assert code == 4
        assert out == "".join(lines[:cut])
        assert err.startswith("error: internal: RuntimeError: no parking function")


@pytest.mark.parametrize("mn", [("--m", "0", "--n", "4"), ("--m", "2", "--n", "0")])
def test_nonpositive_m_or_n_is_a_usage_error(capsys, mn):
    with pytest.raises(SystemExit) as info:
        main(["catalan", *mn])
    assert info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_tilting_off_grid_exits_2(capsys):
    code, out, err = run_cli(capsys, "tilting", "--m", "2", "--n", "2", "--t", "-1/3")
    assert code == 2 and out == ""


def test_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--m", "2", "--n", "2", "--tau", "1-eps", "--format", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point\t2\t2\t1-eps\t0,2"
    assert lines[-1] == "summary\t2\t2\t1-eps\tcount=5"

    code, out, _ = run_cli(
        capsys, "tilting", "--m", "2", "--n", "2", "--t", "0", "--format", "tsv"
    )
    lines = out.splitlines()
    assert lines[0] == "weight\t2\t2\t1-eps\t1\t1,0"
    assert lines[-1] == "summary\t2\t2\t1-eps\tt=0;count=2;colors=1:1,2:1"


def test_verify_small_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--max-m", "1")
    assert code == 0
    records = json_lines(out)
    checks = [r for r in records if r["kind"] == "check"]
    assert checks and all(r["payload"]["ok"] for r in checks)
    assert records[-1]["payload"]["failures"] == 0


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--m", "2"])  # missing required flags
    assert info.value.code == 2


def test_console_output_is_byte_identical():
    argv = [sys.executable, "-m", "zonopark.cli"]
    for args in (
        ["enumerate", "--m", "2", "--n", "3", "--tau", "11/6"],
        ["tilting", "--m", "2", "--n", "4", "--t", "-1/2", "--format", "tsv"],
        ["verify", "--max-n", "2", "--max-m", "2"],
    ):
        first = subprocess.run(argv + args, capture_output=True, check=True)
        second = subprocess.run(argv + args, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
