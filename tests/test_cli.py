import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gmqaoa import cli, maxcut_objective, parse_graph
from gmqaoa.cli import main
from gmqaoa.core import MAX_ABS_OBJECTIVE
from helpers import level_state

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a flag value with exit code 2
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert report["inputs"]["problem_sha256"]
    assert report["version"]


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
    assert "threshold must be a finite number" in captured.err


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
    assert report["inputs"]["init_sha256"]


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
    ["[true, false]", "[[true, 0], [0, 0]]", '[["a", 1], [0, 0]]', "[NaN, 1]", "[1" + "0" * 400 + ", 0]"],
    ids=["bools", "bool-pair", "string-pair", "nan", "overflow"],
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
    # every pair of the 10 elements screened once; the CSV leaves the count out
    assert oracle["closure"]["candidates"] == 45
    assert oracle["commutant_dim"] == 12
    verdicts = oracle["verdicts"]
    assert verdicts["dla_dim"]["verdict"] == "match"
    assert verdicts["commutant_dim"]["verdict"] == "match"
    assert verdicts["isotypic"]["verdict"] == "match"


def test_verify_c6(capsys):
    code, out, _ = run_cli(capsys, "verify", "--maxcut", str(DATA / "c6.graph"))
    assert code == 0
    oracle = json.loads(out)["oracle"]
    assert oracle["commutant_dim"] == 1685
    margin = oracle["commutant_margin"]
    assert margin["max_null"] < oracle["tol_rank"] < margin["min_nonnull"]
    assert all(v["verdict"] == "match" for v in oracle["verdicts"].values())


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
    assert report["oracle"]["commutant_dim"] == report["commutant"]["dim"] == 12
    assert all(v["verdict"] == "match" for v in report["oracle"]["verdicts"].values())
    # above --tol-zero the level is unsupported for the solver as for the prediction
    _, out, _ = run_cli(
        capsys, "verify", "--maxcut", str(DATA / "p3.graph"), "--init", str(init),
        "--tol-zero", "1e-4",
    )
    report = json.loads(out)
    assert report["overlaps"]["d"] == 2
    assert report["oracle"]["commutant_dim"] == report["commutant"]["dim"] == 15
    assert report["oracle"]["verdicts"]["commutant_dim"]["verdict"] == "match"


def test_verify_x_mixer(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--maxcut", str(DATA / "p3.graph"), "--mixer", "x"
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["closure"]["dimension"] == 9
    assert report["oracle"]["verdicts"]["dla_dim"]["verdict"] == "not-run"


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
    from gmqaoa.analytic import CommutantPrediction

    monkeypatch.setattr(
        cli_module, "predict_commutant", lambda *a, **k: CommutantPrediction(dim=999)
    )
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


def test_verify_dim_cap_marks_dla_not_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--maxcut", str(DATA / "p3.graph"), "--dim-cap", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["closure"]["hit_cap"] is True
    assert report["oracle"]["closure"]["dimension"] == 4
    assert report["oracle"]["verdicts"]["dla_dim"]["verdict"] == "not-run"


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


@pytest.mark.xfail(
    strict=True,
    reason="the relative tol_indep test cannot see O(1) level gaps next to O(1e10) entries",
)
def test_verify_wide_range_table_matches_prediction(tmp_path, capsys):
    # the closure stops at 9 against the predicted 16 and verify exits 1
    table = tmp_path / "wide.json"
    table.write_text(json.dumps({"q": 2, "n": 2, "values": [1e10, 0, 1, -1e10]}))
    code, out, _ = run_cli(capsys, "verify", "--table", str(table))
    report = json.loads(out)
    assert report["oracle"]["closure"]["dimension"] == report["dla"]["dim"] == 16
    assert code == 0


def test_threshold_strict_requires_threshold(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--threshold-strict"
    )
    assert code == 2
    assert out == ""
    assert "--threshold" in err


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


def test_verify_x_mixer_oracle_cap(tmp_path, capsys):
    # the x mixer is built, and capped, before the 2**20 x 2**20 diag(F)
    lines = ["20 19"] + [f"{i} {i + 1}" for i in range(1, 20)]
    big = tmp_path / "p20.graph"
    big.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", "--maxcut", str(big), "--mixer", "x")
    assert code == 3
    assert out == ""
    assert "dense oracle capped at 64 dimensions, got 1048576" in err


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


@pytest.mark.parametrize(
    "command, flag",
    [
        ("analyze", "--tol-zero=-1"),
        ("analyze", "--tol-zero=nan"),
        ("analyze", "--tol-zero=inf"),
        ("analyze", "--tol-zero=abc"),
        ("simulate", "--tol-zero=nan"),
        ("verify", "--tol-rank=nan"),
        ("verify", "--tol-rank=-1e-8"),
        ("verify", "--tol-indep=-1"),
        ("verify", "--tol-indep=inf"),
    ],
)
def test_bad_tolerance_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--maxcut", str(DATA / "p3.graph"), flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite number >= 0" in captured.err


@pytest.mark.parametrize("value", ["-3", "0", "2.5", "abc"])
def test_bad_dim_cap_rejected(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--maxcut", str(DATA / "p3.graph"), f"--dim-cap={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dim cap must be an integer >= 1" in captured.err


def test_verify_closure_stops_at_full_algebra(capsys):
    # at tol 0 round-off directions count, so the closure is u(8), not the predicted 10
    # (test_oracle.py::test_lie_closure_is_bounded_by_full_algebra); verify refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--maxcut", str(DATA / "p3.graph"), "--tol-indep", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol-indep" in captured.err


def test_verify_refuses_zero_tol_rank(capsys):
    # at tol_rank 0 the solver's zero padding counted toward the rank: commutant 8, not 12
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--maxcut", str(DATA / "p3.graph"), "--tol-rank", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol-rank" in captured.err


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


def test_tol_zero_dropping_weight_is_named(tmp_path, capsys):
    # the cut-0 level of P3 at weight 0.005 falls below --tol-zero 0.01
    table = maxcut_objective(parse_graph((DATA / "p3.graph").read_text()))
    state = level_state(table.values, {1.0: np.sqrt(1.0 - 0.005**2), 0.0: 0.005})
    init = write_init(tmp_path / "init.json", state.amplitudes)
    code, out, err = run_cli(
        capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--init", init, "--tol-zero", "0.01"
    )
    assert code == 2
    assert out == ""
    assert "tol_zero = 0.01" in err
    assert "0.005" in err


def test_zero_tolerance_accepted(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--tol-zero=0")
    assert code == 0
    assert json.loads(out)["config"]["tolerances"]["tol_zero"] == 0.0


_ANALYZE_HEADER = [
    "tool", "version", "command", "problem_kind", "problem_source",
    "n", "q", "n_states", "r", "levels", "d", "sum_c_squared",
    "dla_algebra", "dla_dim", "dla_center_dim", "commutant_dim",
    "isotypic_irreducible_dim", "isotypic_invariant_lines",
    "zeta_mean", "zeta_var", "p_su_rho", "p_su_hp", "expected_loss",
    "loss_variance", "l1", "l2", "tol_zero",
]

_P3_ANALYZE_ROW = [
    "gmqaoa", "0.1.0", "analyze", "maxcut", str(DATA / "p3.graph"),
    "3", "2", "8", "3", "2:2|1:4|0:2", "3", "0.9999999999999998",
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
    head = ["gmqaoa", "0.1.0", command, "maxcut", str(DATA / "p3.graph")]
    if command == "analyze":
        assert header == _ANALYZE_HEADER
        assert row == _P3_ANALYZE_ROW
    elif command == "verify":
        assert header == _ANALYZE_HEADER + [
            "mixer", "closure_dim", "closure_rounds", "closure_hit_cap",
            "oracle_commutant_dim", "w0_residual", "complement_line_residual",
            "verdict_dla_dim", "verdict_commutant", "verdict_isotypic",
            "tol_indep", "tol_rank", "tol_invariant",
        ]
        assert row[:27] == head + _P3_ANALYZE_ROW[5:]
        assert row[27:32] == ["grover", "10", "5", "false", "12"]
        assert all(float(cell) < 1e-12 for cell in row[32:34])  # oracle residuals
        assert row[34:] == ["match", "match", "match", "1e-09", "1e-08", "1e-08"]
    else:
        assert header == [
            "tool", "version", "command", "problem_kind", "problem_source",
            "depth", "samples", "seed", "mean", "variance",
            "stderr_mean", "stderr_variance", "target_mean", "target_variance",
            "mean_within_3_stderr", "variance_within_3_stderr",
        ]
        assert row[:8] == head + ["32", "512", "7"]
        estimates = [0.9853475053126929, 0.16888803109535294, 0.018162032808392105, 0.008286910215115963]
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
