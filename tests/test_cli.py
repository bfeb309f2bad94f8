import csv
import io
import json
from pathlib import Path

import pytest

from gmqaoa.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_analyze_custom_init_basis_state(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text("[1, 0]")
    code, out, _ = run_cli(
        capsys, "analyze", "--table", str(DATA / "identity_n1.json"), "--init", str(init)
    )
    assert code == 0
    report = json.loads(out)
    assert report["overlaps"]["d"] == 1
    assert report["dla"]["degenerate"] is True
    assert report["inputs"]["init_sha256"]


def test_analyze_complex_init_rejected(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text("[[0.7071067811865476, 0], [0, 0.7071067811865476]]")
    code, _, err = run_cli(
        capsys, "analyze", "--table", str(DATA / "identity_n1.json"), "--init", str(init)
    )
    assert code == 2
    assert "complex-overlap" in err


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
    assert oracle["commutant_dim"] == 12
    verdicts = oracle["verdicts"]
    assert verdicts["dla_dim"]["verdict"] == "match"
    assert verdicts["commutant_dim"]["verdict"] == "match"
    assert verdicts["isotypic"]["verdict"] == "match"


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
    code, _, _ = run_cli(
        capsys, "verify", "--coloring", str(DATA / "triangle.graph"),
        "--colors", "3", "--mixer", "x",
    )
    assert code == 2


def test_verify_oracle_cap(tmp_path, capsys):
    lines = ["10 9"] + [f"{i} {i + 1}" for i in range(1, 10)]
    big = tmp_path / "p10.graph"
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", "--maxcut", str(big))
    assert code == 3


def test_simulate_requires_two_samples(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--maxcut", str(DATA / "p3.graph"), "--samples", "1"
    )
    assert code == 2


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


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", "--maxcut", str(DATA / "p3.graph"), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dla"]["dim"] == 10
