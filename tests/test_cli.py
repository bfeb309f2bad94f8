import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmqaoa import __version__, cli, oracle
from gmqaoa.cli import main
from gmqaoa.core import MAX_ABS_OBJECTIVE, build_spectrum
from gmqaoa.problems import maxcut_objective, parse_graph
from helpers import elimination_forced, level_state

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a flag value with exit code 2
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_init(path, amplitudes):
    path.write_text(json.dumps([[float(a.real), float(a.imag)] for a in amplitudes]))
    return str(path)


def test_analyze_house(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--maxcut", str(DATA / "house.graph"))
    assert code == 0
    report = json.loads(out)
    assert report["overlaps"]["d"] == 5
    assert report["dla"]["dim"] == 26
    assert report["spectrum"]["r"] == 5
    assert report["inputs"]["problem_sha256"] == sha256_of(DATA / "house.graph")
    assert report["version"]


def test_analyze_isotypic_block(tmp_path, capsys):
    # the irreducible W0 of dimension d and q**n - d invariant lines
    injective = tmp_path / "injective.json"
    injective.write_text(json.dumps({"q": 2, "n": 2, "values": [0, 1, 2, 3]}))
    cases = [
        (("--maxcut", str(DATA / "p3.graph")), 3, 5),
        (("--table", str(injective)), 4, 0),
        (("--maxcut", str(DATA / "house.graph")), 5, 27),
    ]
    for problem, irreducible, lines in cases:
        code, out, _ = run_cli(capsys, "analyze", *problem)
        assert code == 0
        assert json.loads(out)["isotypic"] == {"irreducible_dim": irreducible, "invariant_lines": lines}


@pytest.mark.parametrize("size", [0, 64, 1 << 20, (1 << 20) + 1])
def test_sha256_hex_matches_hashlib(size):
    data = bytes(range(256)) * (size // 256) + bytes(size % 256)
    assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(cli._builtin_sha256 is None, reason="no built-in SHA-256 in this build")
def test_verify_loads_no_openssl_hash():
    # importing hashlib maps OpenSSL's libcrypto (3.6 MiB resident) through
    # _hashlib; simulate and sweep map it anyway, through numpy.random
    src = str(Path(cli.__file__).resolve().parent.parent)
    for command in ("verify", "analyze"):
        script = (
            "import contextlib, io, sys\n"
            "from gmqaoa.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main([{command!r}, '--maxcut', {str(DATA / 'p3.graph')!r}])\n"
            "print(code, '_hashlib' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.split() == ["0", "False"], command


def test_verify_loads_no_numpy_ma():
    # numpy 2's unique imports numpy.ma, about 10 ms, unless it is asked
    # for indices; numpy 1.x imports numpy.ma with numpy itself
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from gmqaoa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['verify', '--maxcut', {str(DATA / 'p3.graph')!r}])\n"
        "print(code, eager or 'numpy.ma' not in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == ["0", "True"]


@pytest.mark.skipif(cli._builtin_sha256 is None, reason="no built-in SHA-256 in this build")
def test_sha256_hex_hashes_large_inputs_without_openssl():
    # the built-in hash takes inputs of every size, so 2 MiB maps no libcrypto
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "from gmqaoa.cli import _sha256_hex\n"
        "print(_sha256_hex(bytes(range(256)) * 8192), '_hashlib' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    expected = hashlib.sha256(bytes(range(256)) * 8192).hexdigest()
    assert done.stdout.split() == [expected, "False"]


def test_analyze_p4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--maxcut", str(DATA / "p4.graph"))
    assert code == 0
    report = json.loads(out)
    assert report["dla"]["dim"] == 17
    assert report["loss_stats"]["loss_variance"] == pytest.approx(0.25)
    assert report["loss_stats"]["expected_loss"] == pytest.approx(1.5)


def test_analyze_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--maxcut", str(DATA / "p3.graph"))
    report = json.loads(out)
    assert json.dumps(report, indent=2) + "\n" == out


def test_analyze_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    header, row = rows
    record = dict(zip(header, row))
    assert record["dla_dim"] == "10"
    assert record["levels"] == "2:2|1:4|0:2"
    assert record["commutant_dim"] == "12"


def test_csv_levels_cell_keeps_every_digit(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"q": 2, "n": 1, "values": [1000000, 1000001]}))
    code, out, _ = run_cli(capsys, "analyze", "--table", str(table), "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["levels"] == "1000001:1|1000000:1"


def test_analyze_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 two\n1 2\n")
    code, _, err = run_cli(capsys, "analyze", "--maxcut", str(bad))
    assert code == 2
    assert "error" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--maxcut", "/nonexistent/g.graph")
    assert code == 2


def test_analyze_requires_exactly_one_problem(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--cnf", str(DATA / "example.cnf")
    )
    assert code == 2


def test_analyze_coloring(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--coloring", str(DATA / "triangle.graph"), "--colors", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["problem"]["q"] == 3
    assert report["spectrum"]["r"] == 3  # violation counts 0, 1, 3
    assert report["dla"]["dim"] == 10


def test_analyze_coloring_requires_colors(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--coloring", str(DATA / "triangle.graph"))
    assert code == 2


def test_analyze_coloring_refuses_large_alphabet_before_its_table(capsys):
    # 10**5 colors on the triangle: q**n is refused before the q x q term table
    code, out, err = run_cli(
        capsys, "analyze", "--coloring", str(DATA / "triangle.graph"), "--colors", "100000"
    )
    assert code == 2
    assert out == ""
    assert "dense-table limit" in err


def test_analyze_cnf_and_table(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--cnf", str(DATA / "example.cnf"))
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "--table", str(DATA / "identity_n1.json"))
    assert code == 0
    assert json.loads(out)["commutant"]["dim"] == 1


def test_analyze_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--threshold", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["overlaps"]["d"] == 2
    assert report["dla"]["dim"] == 5


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "abc"])
def test_non_finite_threshold_rejected(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--maxcut", str(DATA / "p3.graph"), f"--threshold={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --threshold:" in captured.err


def test_negative_threshold_accepted(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--threshold=-1")
    assert code == 0
    assert json.loads(out)["config"]["problem"]["threshold"]["t"] == -1.0


def test_analyze_custom_init_basis_state(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text("[1, 0]")
    code, out, _ = run_cli(
        capsys, "analyze", "--table", str(DATA / "identity_n1.json"), "--init", str(init)
    )
    assert code == 0
    report = json.loads(out)
    assert report["overlaps"]["d"] == 1
    assert report["dla"]["dim"] == 2
    assert report["inputs"]["init_sha256"] == sha256_of(init)


def test_analyze_complex_init_accepted(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text("[[0.7071067811865476, 0], [0, 0.7071067811865476]]")
    code, out, _ = run_cli(
        capsys, "analyze", "--table", str(DATA / "identity_n1.json"), "--init", str(init)
    )
    assert code == 0
    report = json.loads(out)
    assert report["overlaps"]["d"] == 2
    assert report["dla"]["dim"] == 4


def test_verify_identity_table_one_dimensional_center(capsys):
    code, out, _ = run_cli(capsys, "verify", "--table", str(DATA / "identity_n1.json"))
    assert code == 0
    report = json.loads(out)
    assert report["dla"]["dim"] == report["oracle"]["closure"]["dimension"] == 4
    assert report["dla"]["center_dim"] == 1


def test_p3_sum_zero_state_verify_and_simulate(tmp_path, capsys):
    # c proportional to (0.5, 0.3, -0.8): the c_j sum to zero, yet the
    # two-string cut-2 level keeps H_p nonzero outside W0
    table = maxcut_objective(parse_graph((DATA / "p3.graph").read_text()))
    state = level_state(table.values, {2.0: 0.5, 1.0: 0.3, 0.0: -0.8})
    init = write_init(tmp_path / "init.json", state.amplitudes)
    code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "p3.graph"), "--init", init)
    assert code == 0
    report = json.loads(out)
    assert report["dla"]["dim"] == report["oracle"]["closure"]["dimension"] == 10
    code, out, _ = run_cli(
        capsys, "simulate", "--maxcut", str(DATA / "p3.graph"), "--init", init,
        "--depth", "8", "--samples", "64",
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["mean"]["target"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("graph", ["p3.graph", "house.graph"])
def test_level_phases_leave_predictions_unchanged(tmp_path, capsys, graph):
    # sum_j e^{i phi_j} P_j commutes with both generators
    table = maxcut_objective(parse_graph((DATA / graph).read_text()))
    rng = np.random.default_rng(5)
    amps = rng.normal(size=table.size) + 1j * rng.normal(size=table.size)
    amps /= np.linalg.norm(amps)
    levels = np.unique(table.values, return_inverse=True)[1]
    phases = np.exp(2j * np.pi * rng.random(levels.max() + 1))
    reports = []
    for name, vec in (("base", amps), ("phased", amps * phases[levels])):
        init = write_init(tmp_path / f"{name}.json", vec)
        code, out, _ = run_cli(capsys, "analyze", "--maxcut", str(DATA / graph), "--init", init)
        assert code == 0
        reports.append(json.loads(out))
    base, phased = reports
    for section in ("dla", "commutant", "isotypic", "loss_stats"):
        assert phased[section] == base[section], section
    assert np.max(np.abs(np.subtract(phased["overlaps"]["c"], base["overlaps"]["c"]))) <= 1e-12


def test_verify_global_phase_matches_uniform(tmp_path, capsys):
    p3 = str(DATA / "p3.graph")
    init = write_init(tmp_path / "init.json", np.full(8, 1j / np.sqrt(8)))
    code, out, _ = run_cli(capsys, "verify", "--maxcut", p3, "--init", init)
    assert code == 0
    _, uniform_out, _ = run_cli(capsys, "verify", "--maxcut", p3)
    verdicts = json.loads(out)["oracle"]["verdicts"]
    uniform_verdicts = json.loads(uniform_out)["oracle"]["verdicts"]
    assert {k: v["verdict"] for k, v in verdicts.items()} == {
        k: v["verdict"] for k, v in uniform_verdicts.items()
    }
    assert verdicts["dla_dim"] == uniform_verdicts["dla_dim"]
    assert verdicts["commutant_dim"] == uniform_verdicts["commutant_dim"]


def test_analyze_boolean_table_rejected(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text('{"q": 2, "n": true, "values": [true, false]}')
    code, out, err = run_cli(capsys, "analyze", "--table", str(table))
    assert code == 2
    assert out == ""
    assert "integers" in err


@pytest.mark.parametrize(
    "amplitudes",
    [
        "[true, false]", "[[true, 0], [0, 0]]", '[["a", 1], [0, 0]]', "[NaN, 1]",
        "[1" + "0" * 400 + ", 0]", "[1e308, 1e308]",
    ],
    ids=["bools", "bool-pair", "string-pair", "nan", "overflow", "square-overflow"],
)
def test_analyze_bad_init_amplitudes_rejected(tmp_path, capsys, amplitudes):
    init = tmp_path / "init.json"
    init.write_text(amplitudes)
    code, out, _ = run_cli(
        capsys, "analyze", "--table", str(DATA / "identity_n1.json"), "--init", str(init)
    )
    assert code == 2
    assert out == ""


def test_verify_p3(capsys):
    code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "p3.graph"))
    assert code == 0
    report = json.loads(out)
    oracle = report["oracle"]
    assert oracle["closure"]["dimension"] == 10
    # each of the 10 elements commuted with the 4 generators, iH and the
    # mixer's parts on the level gaps 0, 1 and 2 (graded_pieces); the CSV
    # leaves the count out
    assert oracle["closure"]["candidates"] == 40
    verdicts = oracle["verdicts"]
    assert verdicts["commutant_dim"]["observed"] == 12
    assert verdicts["dla_dim"]["verdict"] == "match"
    assert verdicts["commutant_dim"]["verdict"] == "match"
    assert verdicts["isotypic"]["verdict"] == "match"
    # the oracle section restates no number its verdicts or the config hold
    restated = {"commutant_dim", "tol_rank", "w0_residual", "complement_line_residual", "tol_invariant"}
    assert not restated & oracle.keys()
    assert "tol_indep" not in oracle["closure"]


def test_verify_c6(capsys):
    code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "c6.graph"))
    assert code == 0
    report = json.loads(out)
    oracle = report["oracle"]
    assert oracle["verdicts"]["commutant_dim"]["observed"] == 1685
    margin = oracle["commutant_margin"]
    assert margin["max_null"] < report["config"]["tolerances"]["tol_rank"] < margin["min_nonnull"]
    assert all(v["verdict"] == "match" for v in oracle["verdicts"].values())


def test_verify_reduced_grover_closure_at_d13(tmp_path, capsys):
    # 13 distinct values: the level-span closure has d**2 + 1 = 170 elements
    table = tmp_path / "d13.json"
    values = list(range(13)) + [0, 1, 2]
    table.write_text(json.dumps({"q": 2, "n": 4, "values": values}))
    code, out, _ = run_cli(capsys, "verify", "--table", str(table))
    assert code == 0
    assert json.loads(out)["oracle"]["closure"]["dimension"] == 170


def _refuse(*args, **kwargs):
    raise AssertionError("called on the elimination path")


_LEVEL_PATH_COMMANDS = (
    ("analyze",),
    ("simulate", "--depth", "4", "--samples", "64", "--seed", "3"),
    ("sweep", "--depths", "1,3", "--samples", "32", "--format", "json"),
    ("verify",),
)


@pytest.mark.parametrize(
    "kind, name",
    [("--maxcut", f"{g}.graph") for g in ("p3", "p4", "c4", "c6", "k4", "triangle", "house")]
    + [("--cnf", "example.cnf")],
    ids=lambda value: value.lstrip("-"),
)
def test_reports_equal_on_both_level_paths(capsys, monkeypatch, kind, name):
    # elimination, forced past its width rule, builds no table or state
    # outside verify's oracles, and its reports equal the dense path's byte for byte
    reports = {}
    for command, *extra in _LEVEL_PATH_COMMANDS:
        argv = (command, kind, str(DATA / name), *extra)
        with monkeypatch.context() as patched, elimination_forced():
            patched.setattr(cli, "build_spectrum", _refuse)
            if command != "verify":
                patched.setattr(cli, "_local_objective", _refuse)
                patched.setattr(cli, "uniform_state", _refuse)
            eliminated = run_cli(capsys, *argv)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "local_spectrum", lambda *args: None)
            dense = run_cli(capsys, *argv)
        assert eliminated == dense and dense[0] == 0
        reports[command] = json.loads(dense[1])
    for key in ("problem", "spectrum", "overlaps", "dla", "commutant", "isotypic", "loss_stats"):
        assert reports["verify"][key] == reports["analyze"][key]


def test_level_path_follows_the_width_rule(tmp_path, capsys, monkeypatch):
    # c6 is counted by elimination; K4's first factor would span all four
    # sites, and --threshold and --init need the dense table
    built = []
    monkeypatch.setattr(cli, "build_spectrum", lambda table: built.append(table.n) or build_spectrum(table))
    init = write_init(tmp_path / "init.json", np.full(64, 0.125, dtype=complex))
    for extra in (("c6",), ("k4",), ("c6", "--threshold", "4"), ("c6", "--init", init)):
        code, *_ = run_cli(capsys, "analyze", "--maxcut", str(DATA / f"{extra[0]}.graph"), *extra[1:])
        assert code == 0
    assert built == [4, 6, 6]


def test_verify_faint_supported_level(tmp_path, capsys):
    # p3 with its cut-0 level (strings 000 and 111) at norm 1e-5
    rest = ((1 - 1e-10) / 6) ** 0.5
    low = 1e-5 / 2**0.5
    init = tmp_path / "init.json"
    init.write_text(json.dumps([low, rest, rest, rest, rest, rest, rest, low]))
    code, out, _ = run_cli(
        capsys, "verify", "--maxcut", str(DATA / "p3.graph"), "--init", str(init)
    )
    assert code == 0
    report = json.loads(out)
    assert report["overlaps"]["d"] == 3
    assert report["oracle"]["verdicts"]["commutant_dim"]["observed"] == report["commutant"]["dim"] == 12
    assert all(v["verdict"] == "match" for v in report["oracle"]["verdicts"].values())


@pytest.mark.parametrize(
    "graph, rerun_from", [("p3", 1e-4), ("house", 3e-4), ("c6", 3e-4)], ids=["p3", "house", "c6"]
)
def test_verify_faint_lowest_level(tmp_path, capsys, graph, rerun_from):
    # the lowest level at norm eps, the rest uniform: the closure on the
    # level span finds the predicted algebra where the dense one does not.
    # The generator run's smallest acceptance is about 3.6 eps on p3 and
    # 1.2 eps on house and c6, so from rerun_from it falls under _TRUSTED
    # and these verdicts come from the all-pairs rerun
    for eps in (1e-2, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-8):
        code, report = verify_faint_lowest_level(tmp_path, capsys, graph, eps)
        assert code == 0, eps
        closure = report["oracle"]["closure"]
        assert closure["dimension"] == report["dla"]["dim"], eps
        assert closure["schedule"] == ("all-pairs" if eps <= rerun_from else "generators"), eps
        assert all(v["verdict"] == "match" for v in report["oracle"]["verdicts"].values()), eps


@pytest.mark.parametrize(
    "argv",
    [
        ["--maxcut", "p3.graph"], ["--maxcut", "p4.graph"], ["--maxcut", "c4.graph"],
        ["--maxcut", "c6.graph"], ["--maxcut", "k4.graph"], ["--maxcut", "triangle.graph"],
        ["--maxcut", "house.graph"], ["--cnf", "example.cnf"], ["--table", "identity_n1.json"],
        ["--coloring", "triangle.graph", "--colors", "3"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_verify_closure_margin_spans_six_decades(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", argv[0], str(DATA / argv[1]), *argv[2:])
    assert code == 0
    closure = json.loads(out)["oracle"]["closure"]
    assert closure["max_residual_discarded"] <= 1e-6 * closure["min_residual_accepted"]


def test_verify_x_mixer(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--maxcut", str(DATA / "p3.graph"), "--mixer", "x"
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["closure"]["dimension"] == 9
    assert report["oracle"]["verdicts"]["dla_dim"]["verdict"] == "not-run"


def test_verify_x_mixer_builds_no_dense_basis(capsys):
    # house closes to 248 elements in two packed real arrays, 496 and 528
    # floats wide (4.1 MiB when full), and verify takes the report alone:
    # a (1024, 32, 32) complex basis would be 16 MiB on its own
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "house.graph"), "--mixer", "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["oracle"]["closure"]["dimension"] == 248
    assert peak < 6 * 2**20


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--maxcut", str(DATA / "p3.graph"), "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    record = dict(zip(rows[0], rows[1]))
    assert record["closure_dim"] == "10"
    assert record["verdict_commutant"] == "match"


def test_verify_exit_one_on_mismatch(capsys, monkeypatch):
    import gmqaoa.cli as cli_module

    monkeypatch.setattr(cli_module, "predict_commutant", lambda *a, **k: 999)
    code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "p3.graph"))
    assert code == 1
    report = json.loads(out)
    assert report["oracle"]["verdicts"]["commutant_dim"]["verdict"] == "mismatch"


def test_verify_isotypic_mismatch_exits_one(capsys, monkeypatch):
    # the standard basis split of p3 is orthonormal but not invariant under the Grover DLA
    eye = list(np.eye(8, dtype=complex))
    monkeypatch.setattr(cli, "isotypic_split", lambda *a, **k: (eye[:1], eye[1:]))
    code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "p3.graph"))
    assert code == 1
    isotypic = json.loads(out)["oracle"]["verdicts"]["isotypic"]
    assert isotypic["verdict"] == "mismatch"
    assert isotypic["w0_residual"] > 0.1 and isotypic["line_residual"] > 0.1


def _one_line(w0, lines):
    return w0, lines[:1]


def _copies_of_one_line(w0, lines):
    return w0, [lines[0]] * len(lines)


def _skewed_lines(w0, lines):
    # two unit lines of one level: each still invariant, but no longer orthogonal
    return w0, [lines[0], (lines[0] + lines[1]) / np.sqrt(2), *lines[2:]]


@pytest.mark.parametrize("broken", [_one_line, _copies_of_one_line, _skewed_lines])
def test_verify_isotypic_refuses_a_split_of_the_wrong_shape(capsys, monkeypatch, broken):
    # every line of these splits is invariant, so only the frame and count checks see them
    split = cli.isotypic_split
    monkeypatch.setattr(cli, "isotypic_split", lambda *a, **k: broken(*split(*a, **k)))
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(
            capsys, "verify", "--maxcut", str(DATA / "house.graph"), "--format", fmt
        )
        assert code == 1
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["verdict_isotypic"] == "mismatch"
    _, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "house.graph"))
    isotypic = json.loads(out)["oracle"]["verdicts"]["isotypic"]
    assert isotypic["verdict"] == "mismatch"
    assert isotypic["predicted"] == {"irreducible_dim": 5, "invariant_lines": 27}
    assert isotypic["w0_residual"] < 1e-8 and isotypic["line_residual"] < 1e-8
    if broken is _one_line:
        assert isotypic["observed"] == {"irreducible_dim": 5, "invariant_lines": 1}
    else:
        assert isotypic["observed"] == isotypic["predicted"]
        assert isotypic["frame_residual"] > 0.5


def test_verify_x_mixer_rejects_nonbinary(capsys):
    # at 5 colors N = 125 is above the dense-oracle cap; the alphabet is checked first
    for colors in ("3", "5"):
        code, out, err = run_cli(
            capsys, "verify", "--coloring", str(DATA / "triangle.graph"),
            "--colors", colors, "--mixer", "x",
        )
        assert code == 2
        assert out == ""
        assert "--mixer x requires a binary alphabet" in err


@pytest.mark.parametrize(
    "n, values, predicted",
    [
        # the plain Grover pair, with no graded pieces, closed to 9 against
        # the predicted 16 and verify exited 1
        pytest.param(2, [1e10, 0, 1, -1e10], 16, id="1e10-n2"),
        # 5 against 17
        pytest.param(3, [0, 1e-12, 2e-12, 0, 0, 5, 5, 5], 17, id="1e-12-n3"),
        # 9 against 50; the graded pieces gave 49 while the level span's
        # tail was H_p's norm off the span, h = 3 beside entries of 1e12
        pytest.param(3, [1e12, 0, 1, -1e12, 3, 3, 1e-6, 2], 50, id="1e12-n3"),
        # that tail, h = 3e-12 beside -1e10, closed to 9 against 10
        pytest.param(2, [3e-12, 1, 3e-12, -1e10], 10, id="3e-12-tail-n2"),
        # two subnormal levels: 4 against 16
        pytest.param(2, [5e-324, 0, 1e-320, 2], 16, id="subnormal-n2"),
        # the gaps 1e16 - 1, 1e16 and 1e16 + 1 round to one float: grouped
        # by that float, the graded pieces closed to 10 against 16
        pytest.param(2, [1e16, 0, 1, -1e16], 16, id="1e16-n2"),
        pytest.param(2, [1e64, 0, 1, -1e64], 16, id="1e64-n2"),
    ],
)
def test_verify_wide_range_table_matches_prediction(tmp_path, capsys, n, values, predicted):
    table = tmp_path / "wide.json"
    table.write_text(json.dumps({"q": 2, "n": n, "values": values}))
    code, out, _ = run_cli(capsys, "verify", "--table", str(table))
    report = json.loads(out)
    assert report["oracle"]["closure"]["dimension"] == report["dla"]["dim"] == predicted
    assert code == 0


@pytest.mark.xfail(
    strict=True,
    reason="the plain x pair's brackets separate O(1) level gaps beside entries of 1e10 "
    "and 1e12 under TOL_INDEP: it closes to 3 and 16, and with the x verdicts not-run "
    "verify exits 0",
)
@pytest.mark.parametrize(
    "n, values, dim",
    [(2, [1e10, 0, 1, -1e10], 15), (3, [1e12, 0, 1, -1e12, 3, 3, 1e-6, 2], 63)],
    ids=["1e10-n2", "1e12-n3"],
)
def test_verify_x_mixer_closes_wide_range_tables(tmp_path, capsys, n, values, dim):
    # dim su(2**n): the graded pieces of the same pair reach it, and so
    # does the plain pair once the largest values are scaled to O(10)
    table = tmp_path / "wide.json"
    table.write_text(json.dumps({"q": 2, "n": n, "values": values}))
    _, out, _ = run_cli(capsys, "verify", "--table", str(table), "--mixer", "x")
    assert json.loads(out)["oracle"]["closure"]["dimension"] == dim


def verify_faint_lowest_level(tmp_path, capsys, graph, eps):
    """``verify`` on a bundled graph with its lowest level at weight eps
    and the other strings uniform: the exit code and the report."""
    values = maxcut_objective(parse_graph((DATA / f"{graph}.graph").read_text())).values
    low = values == values.min()
    amps = np.where(low, eps / np.sqrt(low.sum()), np.sqrt((1 - eps**2) / (~low).sum()))
    init = write_init(tmp_path / "init.json", amps.astype(complex))
    code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / f"{graph}.graph"), "--init", init)
    return code, json.loads(out)


def test_verify_level_just_above_tol_zero_matches_prediction(tmp_path, capsys):
    # the lowest level at a weight just above TOL_ZERO, the rest uniform:
    # the level's brackets with the plain Grover pair fall under TOL_INDEP
    # (p4 closed to 10 against 17), those with its graded pieces do not
    for graph, eps, d, dim in [
        ("p4", 3e-10, 4, 17), ("p3", 1.05e-10, 3, 10), ("c6", 3e-10, 4, 17), ("triangle", 1.5e-10, 2, 5),
    ]:
        code, report = verify_faint_lowest_level(tmp_path, capsys, graph, eps)
        assert report["overlaps"]["d"] == d, graph
        assert report["oracle"]["closure"]["dimension"] == report["dla"]["dim"] == dim, graph
        assert all(v["verdict"] == "match" for v in report["oracle"]["verdicts"].values()), graph
        assert code == 0, graph


@pytest.mark.parametrize(
    "values",
    [list(range(12)) + [0] * 4, list(range(16)), list(range(21)) + [0] * 11],
    ids=["d12", "d16", "d21"],
)
def test_verify_table_of_many_levels_closes_on_generator_brackets(tmp_path, capsys, values):
    # the graded pieces keep these closures on generator brackets, with a
    # wide margin around TOL_INDEP; the faint-acceptance guard reruns the
    # plain Grover pair on all pairs from d = 12, at a margin of 1.03e-9
    # accepted against 9.22e-10 discarded on d = 21
    table = tmp_path / "levels.json"
    table.write_text(json.dumps({"q": 2, "n": len(values).bit_length() - 1, "values": values}))
    code, out, _ = run_cli(capsys, "verify", "--table", str(table))
    oracle = json.loads(out)["oracle"]
    assert all(v["verdict"] == "match" for v in oracle["verdicts"].values())
    closure = oracle["closure"]
    assert closure["schedule"] == "generators"
    assert closure["max_residual_discarded"] <= 1e-6 * closure["min_residual_accepted"]
    assert code == 0


@pytest.mark.parametrize(
    "graph, eps, d",
    [("house", 1e-10, 4), ("c6", 1e-10, 3), ("p3", 1e-160, 2), ("p3", 1e-170, 2), ("p3", 5e-324, 2)],
    ids=["house-4", "c6-3", "p3-2-1e-160", "p3-2-1e-170", "p3-2-5e-324"],
)
def test_verify_level_at_tol_zero_is_unsupported_on_both_sides(tmp_path, capsys, graph, eps, d):
    # the lowest level's weight is at most TOL_ZERO in the amplitudes as
    # given; at 1e-10 it is above it once they are divided by their norm,
    # just under 1, and far below it the level's squares underflow; the
    # prediction and the oracles both cut the first reading
    code, report = verify_faint_lowest_level(tmp_path, capsys, graph, eps)
    verdicts = report["oracle"]["verdicts"]
    assert report["overlaps"]["d"] == verdicts["isotypic"]["observed"]["irreducible_dim"] == d
    assert report["oracle"]["closure"]["dimension"] == report["dla"]["dim"]
    assert all(v["verdict"] == "match" for v in verdicts.values())
    assert code == 0


def test_colors_requires_coloring(capsys):
    code, out, err = run_cli(capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--colors", "3")
    assert code == 2
    assert out == ""
    assert "--coloring" in err


def test_verify_oracle_cap(tmp_path, capsys):
    lines = ["10 9"] + [f"{i} {i + 1}" for i in range(1, 10)]
    big = tmp_path / "p10.graph"
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", "--maxcut", str(big))
    assert code == 3


def write_path_graph(tmp_path, n):
    path = tmp_path / f"p{n}.graph"
    path.write_text("\n".join([f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(1, n)]) + "\n")
    return str(path)


def test_verify_refuses_the_oracle_cap_before_it_builds(tmp_path, capsys):
    # N = 2**20: the table, state and elimination alone would take 24 MiB
    big = write_path_graph(tmp_path, 20)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "--maxcut", big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "dense oracle capped at 64 dimensions, got 1048576" in err
    assert peak < 2**20


def test_verify_refuses_the_oracle_cap_before_it_reads_init(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "verify", "--maxcut", write_path_graph(tmp_path, 7),
        "--init", str(tmp_path / "missing.json"),
    )
    assert code == 3
    assert out == ""
    assert "dense oracle capped at 64 dimensions, got 128" in err


def test_verify_refuses_the_dense_table_limit_before_the_oracle_cap(tmp_path, capsys):
    big = write_path_graph(tmp_path, 21)
    for mixer in ("grover", "x"):
        code, out, err = run_cli(capsys, "verify", "--maxcut", big, "--mixer", mixer)
        assert code == 2
        assert out == ""
        assert "exceeds the dense-table limit" in err


@pytest.mark.parametrize("command", ["analyze", "simulate", "verify"])
def test_wide_cnf_clause_is_refused_before_its_table(tmp_path, capsys, command):
    # one 22-literal clause on 22 variables: its 2**22 falsifying table alone is 32 MiB
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 22 1\n" + " ".join(str(v) for v in range(1, 23)) + " 0\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, command, "--cnf", str(cnf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "exceeds the dense-table limit" in err
    assert peak < 2**20


@pytest.mark.parametrize(
    "flag, name, text, fragment",
    [
        ("--init", "init.json", "[1, ", "invalid amplitude JSON"),
        ("--init", "init.json", '{"re": 1}', "amplitude file must hold a JSON array"),
        ("--init", "init.json", "[1, 0, 0]", "expected 2 amplitudes, got 3"),
        ("--cnf", "dup.cnf", "p cnf 1 1\np cnf 1 1\n1 0\n", "duplicate problem line"),
        ("--cnf", "counts.cnf", "p cnf one 1\n1 0\n", "non-integer counts in problem line"),
        ("--cnf", "none.cnf", "c no problem line\n", "missing problem line"),
        ("--maxcut", "empty.graph", "0 0\n", "need n >= 1 and m >= 0"),
        ("--table", "list.json", "[0, 1]", "expected a JSON object with keys q, n, values"),
    ],
    ids=["init-json", "init-not-array", "init-count", "cnf-duplicate", "cnf-counts",
         "cnf-missing", "graph-empty-header", "table-not-object"],
)
def test_input_refusals_exit_two(tmp_path, capsys, flag, name, text, fragment):
    path = tmp_path / name
    path.write_text(text)
    if flag == "--init":
        argv = ("--table", str(DATA / "identity_n1.json"), "--init", str(path))
    else:
        argv = (flag, str(path))
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert code == 2
    assert out == ""
    assert fragment in err


def test_verify_x_mixer_oracle_cap(tmp_path, capsys):
    # capped before the 2**20 table, let alone the 2**20 x 2**20 diag(F)
    lines = ["20 19"] + [f"{i} {i + 1}" for i in range(1, 20)]
    big = tmp_path / "p20.graph"
    big.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", "--maxcut", str(big), "--mixer", "x")
    assert code == 3
    assert out == ""
    assert "dense oracle capped at 64 dimensions, got 1048576" in err


def test_verify_runs_a_table_of_distinct_values_at_the_oracle_cap(tmp_path, capsys, monkeypatch):
    # every string is its own supported level, so H_p vanishes off the level
    # span and its generators take the instance's 8 dimensions, not 9
    monkeypatch.setattr(oracle, "ORACLE_DIM_LIMIT", 8)
    path = tmp_path / "distinct.json"
    path.write_text(json.dumps({"q": 2, "n": 3, "values": list(range(8))}))
    code, out, err = run_cli(capsys, "verify", "--table", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["oracle"]["closure"]["dimension"] == report["dla"]["dim"] == 64


def test_simulate_requires_two_samples(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--maxcut", str(DATA / "p3.graph"), "--samples", "1"
    )
    assert code == 2


def test_simulate_unallocatable_samples_exit_two(capsys):
    # 10**12 float64 samples (7.3 TiB) are refused at the allocation
    code, out, err = run_cli(
        capsys, "simulate", "--maxcut", str(DATA / "p3.graph"), "--samples", "1000000000000"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_simulate_reports_and_determinism(capsys):
    args = (
        "simulate", "--maxcut", str(DATA / "p3.graph"),
        "--depth", "8", "--samples", "128", "--seed", "7",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(capsys, *args, "--threads", "4")
    assert out3 == out1
    report = json.loads(out1)
    assert report["monte_carlo"]["samples"] == 128
    assert "within_3_stderr" in report["verdicts"]["variance"]


def test_simulate_variance_verdict_at_depth(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--maxcut", str(DATA / "p3.graph"),
        "--depth", "32", "--samples", "1024", "--seed", "11",
    )
    report = json.loads(out)
    assert report["verdicts"]["variance"]["within_3_stderr"] is True
    assert report["verdicts"]["variance"]["target"] == pytest.approx(1 / 6)
    assert report["verdicts"]["mean"]["target"] == pytest.approx(1.0)
    assert report["verdicts"]["mean"]["within_3_stderr"] is True
    assert "note" not in report["verdicts"]["mean"]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command, extra", [("simulate", ()), ("sweep", ("--depths", "1"))])
def test_seed_outside_64_bits_rejected(capsys, command, extra, seed):
    code, out, err = run_cli(
        capsys, command, "--maxcut", str(DATA / "p3.graph"),
        "--samples", "4", *extra, "--seed", seed,
    )
    assert code == 2
    assert out == ""
    assert "seed must lie in [0, 2**64)" in err


def test_largest_seed_accepted(capsys):
    seed = str((1 << 64) - 1)
    code, out, _ = run_cli(
        capsys, "simulate", "--maxcut", str(DATA / "p3.graph"), "--samples", "4", "--seed", seed
    )
    assert code == 0
    assert json.loads(out)["monte_carlo"]["seed"] == (1 << 64) - 1


def test_sweep_rows_and_header(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--maxcut", str(DATA / "p3.graph"),
        "--depths", "1,2,4", "--samples", "32", "--seed", "5",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "p", "samples", "seed", "mean", "variance",
        "stderr_mean", "stderr_variance", "target_mean", "target_variance",
    ]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["1", "2", "4"]


def test_sweep_empty_depths(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--maxcut", str(DATA / "p3.graph"), "--depths", ","
    )
    assert code == 2


@pytest.mark.parametrize("depths", ["1,0", "1,x", "1,,2", "2,"])
def test_sweep_bad_depths(capsys, depths):
    code, out, err = run_cli(
        capsys, "sweep", "--maxcut", str(DATA / "p3.graph"), "--depths", depths
    )
    assert code == 2
    assert out == ""
    assert "--depths" in err


def test_sweep_rows_match_simulate(capsys):
    common = ("--maxcut", str(DATA / "house.graph"), "--samples", "64", "--seed", "13")
    code, out, _ = run_cli(capsys, "sweep", *common, "--depths", "1,3,8", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["p"] for row in rows] == [1, 3, 8]
    for row in rows:
        code, out, _ = run_cli(capsys, "simulate", *common, "--depth", str(row["p"]))
        assert code == 0
        report = json.loads(out)
        mc = report["monte_carlo"]
        assert row["p"] == mc["depth"]
        for key in ("samples", "seed", "mean", "variance", "stderr_mean", "stderr_variance"):
            assert row[key] == mc[key]
        assert row["target_mean"] == report["loss_stats"]["expected_loss"]
        assert row["target_variance"] == report["loss_stats"]["loss_variance"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dla"]["dim"] == 10


@pytest.mark.parametrize("value", ["-3", "0", "2.5", "abc", "3"])
def test_bad_dim_cap_rejected(capsys, value):
    # the closure has no dimension cap: it stops only on an empty round or
    # at all of u(N), so every --dim-cap is an unknown flag; the commutant
    # cuts at the constant TOL_RANK, inside its structural rank gap, so
    # every --tol-rank is one too; the closure cuts at the constant
    # TOL_INDEP, so every --tol-indep is one; support is decided at the
    # constant TOL_ZERO, so every --tol-zero is one, for every command; the
    # strict cut > T is --threshold nextafter(T, inf), so every
    # --threshold-strict is one too; sweep runs in one thread and takes
    # no --threads
    cases = [("verify", "--dim-cap"), ("verify", "--tol-rank"), ("verify", "--tol-indep")]
    cases += [(command, flag) for command in ("analyze", "verify", "simulate", "sweep")
              for flag in ("--tol-zero", "--threshold-strict")]
    cases += [("sweep", "--threads")]
    for command, flag in cases:
        depths = ["--depths", "1"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--maxcut", str(DATA / "p3.graph"), *depths, f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}={value}" in captured.err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("analyze", ("--threshold", "inf")),
        ("verify", ("--threshold", "-inf")),
        ("verify", ("--colors", "0")),
        ("verify", ("--threshold", "1e400")),
        ("analyze", ("--threshold", "nan")),
        ("simulate", ("--depth", "0")),
        ("sweep", ("--depths", "1,0")),
        ("simulate", ("--samples", "1")),
        ("sweep", ("--samples", "1")),
        ("simulate", ("--seed", "-1")),
        ("sweep", ("--seed", str(1 << 64))),
        ("analyze", ("--colors", "1")),
        ("simulate", ("--depth", str((1 << 20) + 1))),
        ("sweep", ("--depths", f"1,{(1 << 20) + 1}")),
    ],
)
def test_each_flag_rule_runs_before_any_file_is_read(tmp_path, capsys, command, flag):
    # the library's rule refuses the value at parse time, so the missing file is never opened
    missing = str(tmp_path / "missing.graph")
    code, out, err = run_cli(capsys, command, "--maxcut", missing, *flag)
    assert code == 2
    assert out == ""
    assert f"argument {flag[0]}:" in err
    assert missing not in err


def test_importing_the_package_loads_none_of_its_modules():
    # each name is imported from the module that defines it
    script = (
        "import sys\n"
        "import gmqaoa\n"
        "print(sorted(m for m in sys.modules if m.startswith('gmqaoa.') or m == 'numpy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


def test_pyproject_version_is_the_package_version():
    # the build reads the version from the package, so pyproject.toml holds
    # no second literal; a regex, not tomllib, so that the check also runs
    # on Python 3.10
    text = (DATA.parent / "pyproject.toml").read_text()
    assert re.findall(r"^dynamic = (.*)$", text, flags=re.M) == ['["version"]']
    assert re.findall(r"^version = (.*)$", text, flags=re.M) == ['{attr = "gmqaoa.__version__"}']
    assert re.search(r"^\[tool\.setuptools\.dynamic\]\nversion = ", text, flags=re.M)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_table_value_bound(tmp_path, capsys):
    # (2 * 1e64)**4 is finite, so every statistic of a table within the bound is
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"q": 2, "n": 1, "values": [MAX_ABS_OBJECTIVE, -MAX_ABS_OBJECTIVE]}))
    for command, extra in (
        ("analyze", ()), ("verify", ()), ("simulate", ("--samples", "64")),
        ("sweep", ("--depths", "1,2", "--samples", "32", "--format", "json")),
    ):
        code, out, err = run_cli(capsys, command, "--table", str(table), *extra)
        assert code == 0, command
        assert err == ""
        _strict_json(out)
    above = math.nextafter(MAX_ABS_OBJECTIVE, math.inf)
    table.write_text(json.dumps({"q": 2, "n": 1, "values": [0.0, -above]}))
    for command in ("analyze", "verify", "simulate"):
        code, out, err = run_cli(capsys, command, "--table", str(table))
        assert code == 2, command
        assert out == ""
        assert "|F| <= 1e+64" in err


_ANALYZE_HEADER = [
    "tool", "version", "command", "problem_kind", "problem_source",
    "n", "q", "n_states", "r", "levels", "d", "sum_c_squared",
    "dla_algebra", "dla_dim", "dla_center_dim", "commutant_dim",
    "isotypic_irreducible_dim", "isotypic_invariant_lines",
    "zeta_mean", "zeta_var", "p_su_rho", "p_su_hp", "expected_loss",
    "loss_variance", "l1", "l2", "tol_zero",
]

_P3_ANALYZE_ROW = [
    "gmqaoa", __version__, "analyze", "maxcut", str(DATA / "p3.graph"),
    "3", "2", "8", "3", "2:2|1:4|0:2", "3", "1.0",
    "su_3 + u_1 + u_1", "10", "2", "12",
    "3", "5",
    "1.0", "0.6666666666666666", "0.6666666666666667", "2.0", "1.0",
    "0.16666666666666666", "3.0", "5.0", "1e-10",
]


@pytest.mark.parametrize("command", ["analyze", "verify", "simulate"])
def test_csv_header_and_p3_row(capsys, command):
    extra = ["--depth", "32", "--samples", "512", "--seed", "7"] if command == "simulate" else []
    code, out, _ = run_cli(
        capsys, command, "--maxcut", str(DATA / "p3.graph"), "--format", "csv", *extra
    )
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    head = ["gmqaoa", __version__, command, "maxcut", str(DATA / "p3.graph")]
    if command == "analyze":
        assert header == _ANALYZE_HEADER
        assert row == _P3_ANALYZE_ROW
    elif command == "verify":
        assert header == _ANALYZE_HEADER + [
            "mixer", "closure_dim", "closure_rounds",
            "oracle_commutant_dim", "w0_residual", "complement_line_residual",
            "verdict_dla_dim", "verdict_commutant", "verdict_isotypic",
            "tol_indep", "tol_rank", "tol_invariant",
        ]
        assert row[:27] == head + _P3_ANALYZE_ROW[5:]
        # graded_pieces hands the closure the mixer's parts on each level
        # gap, so it reaches dimension 10 in 3 rounds
        assert row[27:31] == ["grover", "10", "3", "12"]
        assert all(float(cell) < 1e-12 for cell in row[31:33])  # oracle residuals
        assert row[33:] == ["match", "match", "match", "1e-09", "1e-08", "1e-08"]
    else:
        assert header == [
            "tool", "version", "command", "problem_kind", "problem_source",
            "depth", "samples", "seed", "mean", "variance",
            "stderr_mean", "stderr_variance", "target_mean", "target_variance",
            "mean_within_3_stderr", "variance_within_3_stderr",
        ]
        assert row[:8] == head + ["32", "512", "7"]
        estimates = [1.0055330524428072, 0.156968399062067, 0.017509394747337773, 0.008507240890758662]
        assert [float(cell) for cell in row[8:12]] == pytest.approx(estimates, rel=1e-9)
        assert row[12:] == ["1.0", "0.16666666666666666", "true", "true"]


def _csv_text(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _at_path(report, path):
    if callable(path):
        return path(report)
    for key in path.split("."):
        report = report.get(key) if isinstance(report, dict) else None
    return report


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "command, columns, extra",
    [
        ("analyze", cli._ANALYZE_COLUMNS, ()),
        ("verify", cli._VERIFY_COLUMNS, ()),
        ("simulate", cli._SIMULATE_COLUMNS, ("--depth", "4", "--samples", "64")),
        ("sweep", cli._SWEEP_COLUMNS, ("--depths", "1,3", "--samples", "32")),
        ("verify", cli._VERIFY_COLUMNS, ("--mixer", "x")),
    ],
)
def test_out_file_and_csv_cells_match_the_report(tmp_path, capsys, command, columns, extra, fmt):
    argv = [command, "--maxcut", str(DATA / "house.graph"), *extra]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    target = tmp_path / "report.out"
    code, printed, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
    assert code == 0
    assert printed == ""
    assert target.read_bytes() == out.encode()
    if fmt == "json":
        return
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    report = json.loads(json_out)
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == [name for name, _ in columns]
    if command == "sweep":
        # a sweep row's paths point into its per-depth record; the JSON keeps the rows flat
        expected = [[_csv_text(row[name]) for name in header] for row in report["rows"]]
        for name, path in columns:
            if path.startswith("loss_stats."):
                assert {row[name] for row in report["rows"]} == {_at_path(report, path)}
    else:
        expected = [[_csv_text(_at_path(report, path)) for _, path in columns]]
    assert rows == expected
    if "x" in extra:
        # an x report has no commutant or isotypic residual paths, and no verdict is run
        row = dict(zip(header, rows[0]))
        empty = ("oracle_commutant_dim", "w0_residual", "complement_line_residual")
        assert [row[name] for name in empty] == [""] * 3
        assert {row[name] for name in header if name.startswith("verdict_")} == {"not-run"}
