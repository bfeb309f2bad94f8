"""Command-line frontend: analyze, verify, simulate, sweep.

Exit codes: 0 success (all verdicts match), 1 a numerical verdict
contradicts a prediction, 2 input or flag error, 3 instance exceeds the
dense-oracle caps.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .analytic import (
    complement_invariant_lines,
    isotypic_summary,
    predict_commutant,
    predict_dla,
    predict_loss_stats,
)
from .core import (
    TOL_ZERO,
    InitialState,
    SizeLimitError,
    build_spectrum,
    decompose_initial_state,
    uniform_state,
)
from .oracle import (
    DIM_CAP,
    ORACLE_DIM_LIMIT,
    TOL_INDEP,
    TOL_RANK,
    OracleCapError,
    gm_generators,
    grover_commutant_dimension,
    invariant_subspace_residual,
    lie_closure,
    traceless_part,
    x_mixer_generator,
)
from .problems import (
    ParseError,
    ValidationError,
    cnf_objective,
    coloring_objective,
    is_json_number,
    maxcut_objective,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    threshold_transform,
)
from .simulator import BETA_MAX, GAMMA_MAX, monte_carlo_stats

#: Residual bound for the invariant-subspace verdicts.
TOL_INVARIANT = 1e-8

_THREADS_HELP = "accepted and ignored: the Monte Carlo always runs in one thread"


def _levels_cell(report: dict) -> str:
    return "|".join(f"{lv['value']:g}:{lv['multiplicity']}" for lv in report["spectrum"]["levels"])


# CSV column maps: (column, dotted path into the JSON report, or a function
# of the report).  A path missing from the report is written as an empty cell.
_HEAD_COLUMNS = (
    ("tool", "tool"), ("version", "version"), ("command", "command"),
    ("problem_kind", "config.problem.kind"), ("problem_source", "config.problem.path"),
)
_ANALYZE_COLUMNS = _HEAD_COLUMNS + (
    ("n", "problem.n"), ("q", "problem.q"), ("n_states", "problem.n_states"),
    ("r", "spectrum.r"), ("levels", _levels_cell), ("d", "overlaps.d"),
    ("sum_c_squared", "overlaps.sum_c_squared"), ("dla_algebra", "dla.algebra"),
    ("dla_dim", "dla.dim"), ("dla_center_dim", "dla.center_dim"),
    ("commutant_dim", "commutant.dim"),
    ("isotypic_irreducible_dim", "isotypic.irreducible_dim"),
    ("isotypic_invariant_lines", "isotypic.invariant_lines"),
    ("zeta_mean", "loss_stats.zeta_mean"), ("zeta_var", "loss_stats.zeta_var"),
    ("p_su_rho", "loss_stats.p_su_rho"), ("p_su_hp", "loss_stats.p_su_hp"),
    ("expected_loss", "loss_stats.expected_loss"), ("loss_variance", "loss_stats.loss_variance"),
    ("l1", "loss_stats.l1"), ("l2", "loss_stats.l2"),
    ("tol_zero", "config.tolerances.tol_zero"),
)
_VERIFY_COLUMNS = _ANALYZE_COLUMNS + (
    ("mixer", "oracle.mixer"), ("closure_dim", "oracle.closure.dimension"),
    ("closure_rounds", "oracle.closure.rounds"), ("closure_hit_cap", "oracle.closure.hit_cap"),
    ("oracle_commutant_dim", "oracle.commutant_dim"), ("w0_residual", "oracle.w0_residual"),
    ("complement_line_residual", "oracle.complement_line_residual"),
    ("verdict_dla_dim", "oracle.verdicts.dla_dim.verdict"),
    ("verdict_commutant", "oracle.verdicts.commutant_dim.verdict"),
    ("verdict_isotypic", "oracle.verdicts.isotypic.verdict"),
    ("tol_indep", "config.tolerances.tol_indep"), ("tol_rank", "config.tolerances.tol_rank"),
    ("tol_invariant", "config.tolerances.tol_invariant"),
)
# read by simulate from its report and by sweep from each {"monte_carlo", "loss_stats"} row
_MC_COLUMNS = (
    ("samples", "monte_carlo.samples"), ("seed", "monte_carlo.seed"),
    ("mean", "monte_carlo.mean"), ("variance", "monte_carlo.variance"),
    ("stderr_mean", "monte_carlo.stderr_mean"), ("stderr_variance", "monte_carlo.stderr_variance"),
    ("target_mean", "loss_stats.expected_loss"), ("target_variance", "loss_stats.loss_variance"),
)
_SIMULATE_COLUMNS = _HEAD_COLUMNS + (("depth", "monte_carlo.depth"),) + _MC_COLUMNS + (
    ("mean_within_3_stderr", "verdicts.mean.within_3_stderr"),
    ("variance_within_3_stderr", "verdicts.variance.within_3_stderr"),
)
_SWEEP_COLUMNS = (("p", "monte_carlo.depth"),) + _MC_COLUMNS


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _tolerance(text: str) -> float:
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _tol_indep(text: str) -> float:
    value = _tolerance(text)
    if value == 0.0:
        # every round-off residual would count as a new direction, so the
        # closure would be all of u(N) on any instance
        raise argparse.ArgumentTypeError("the closure needs a tolerance > 0, got 0")
    return value


def _depths(text: str) -> list:
    try:
        depths = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        depths = []
    if not depths or min(depths) < 1:
        raise ValueError(f"--depths must list positive integers, got {text!r}")
    return depths


def _threshold(text: str) -> float:
    value = _float_or_nan(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"threshold must be a finite number, got {text!r}")
    return value


def _dim_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"dim cap must be an integer >= 1, got {text!r}")
    return value


def _add_common_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--maxcut", metavar="FILE", help="edge-list graph file, MaxCut objective")
    sp.add_argument("--cnf", metavar="FILE", help="DIMACS cnf file, violated-clause objective")
    sp.add_argument("--coloring", metavar="FILE", help="edge-list graph file, coloring-violation objective")
    sp.add_argument("--colors", type=int, metavar="Q", help="alphabet size for --coloring")
    sp.add_argument("--table", metavar="FILE", help="JSON objective table {q, n, values}")
    sp.add_argument("--init", default="uniform", metavar="uniform|FILE",
                    help="initial state: 'uniform' or a JSON amplitude file")
    sp.add_argument("--threshold", type=_threshold, metavar="T",
                    help="replace the objective by its >= T indicator")
    sp.add_argument("--threshold-strict", action="store_true",
                    help="use > T instead of >= T")
    sp.add_argument("--tol-zero", type=_tolerance, default=TOL_ZERO)
    sp.add_argument("--format", choices=("json", "csv"), default=None,
                    help="output format (default json; sweep defaults to csv)")
    sp.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmqaoa",
        description="Structure analysis and numerical verification for Grover-mixer QAOA circuits.",
    )
    parser.add_argument("--version", action="version", version=f"gmqaoa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="closed-form predictions only")
    _add_common_args(analyze)
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="predictions plus brute-force oracle checks")
    _add_common_args(verify)
    verify.add_argument("--mixer", choices=("grover", "x"), default="grover")
    verify.add_argument("--tol-indep", type=_tol_indep, default=TOL_INDEP)
    verify.add_argument("--tol-rank", type=_tolerance, default=TOL_RANK)
    verify.add_argument("--dim-cap", type=_dim_cap, default=DIM_CAP)
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="Monte Carlo loss statistics at one depth")
    _add_common_args(simulate)
    simulate.add_argument("--depth", type=int, default=32)
    simulate.add_argument("--samples", type=int, default=4096)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="Monte Carlo statistics across depths")
    _add_common_args(sweep)
    sweep.add_argument("--depths", metavar="a,b,c", required=True)
    sweep.add_argument("--samples", type=int, default=4096)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_problem(args):
    chosen = [(kind, getattr(args, kind)) for kind in ("maxcut", "cnf", "coloring", "table")
              if getattr(args, kind) is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --maxcut/--cnf/--coloring/--table is required")
    kind, path = chosen[0]
    data = _read_file(path)
    text = data.decode("utf-8")
    if kind == "maxcut":
        table = maxcut_objective(parse_graph(text))
    elif kind == "coloring":
        if args.colors is None:
            raise ValueError("--coloring requires --colors")
        table = coloring_objective(parse_graph(text), args.colors)
    elif kind == "cnf":
        table = cnf_objective(parse_cnf(text))
    else:
        table = parse_custom_table(text)
    if args.threshold is not None:
        table = threshold_transform(table, args.threshold, strict=args.threshold_strict)
    descriptor = {"kind": kind, "path": path}
    if kind == "coloring":
        descriptor["colors"] = args.colors
    if args.threshold is not None:
        descriptor["threshold"] = {"t": args.threshold, "strict": args.threshold_strict}
    return table, descriptor, hashlib.sha256(data).hexdigest()


def _load_init(args, table):
    if args.init == "uniform":
        return uniform_state(table.n, table.q), None
    data = _read_file(args.init)
    try:
        payload = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid amplitude JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(payload, list):
        raise ValidationError("amplitude file must hold a JSON array")
    amps = []
    for entry in payload:
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
        if not all(is_json_number(v) for v in parts):
            raise ValidationError("amplitudes must be numbers or [re, im] pairs")
        amps.append(complex(*parts))
    if len(amps) != table.size:
        raise ValidationError(f"expected {table.size} amplitudes, got {len(amps)}")
    return InitialState(np.asarray(amps, dtype=complex)), hashlib.sha256(data).hexdigest()


def _base_report(command: str, args, descriptor, problem_digest, init_digest, table) -> dict:
    config = {
        "problem": descriptor,
        "init": args.init,
        "tolerances": {"tol_zero": args.tol_zero},
        "format": args.format or ("csv" if command == "sweep" else "json"),
    }
    if command == "verify":
        config["mixer"] = args.mixer
        config["tolerances"].update(
            tol_indep=args.tol_indep, tol_rank=args.tol_rank, tol_invariant=TOL_INVARIANT
        )
        config["dim_cap"] = args.dim_cap
    if command in ("simulate", "sweep"):
        config["samples"] = args.samples
        config["seed"] = args.seed
        config["parameter_ranges"] = {"beta": [0.0, BETA_MAX], "gamma": [0.0, GAMMA_MAX]}
        if command == "simulate":
            config["depth"] = args.depth
        else:
            config["depths"] = args.depths
    return {
        "tool": "gmqaoa",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {"problem_sha256": problem_digest, "init_sha256": init_digest},
        "problem": {"n": table.n, "q": table.q, "n_states": table.size},
    }


def _analysis_sections(table, state, tol_zero):
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(state, spectrum, tol_zero=tol_zero)
    dla = predict_dla(spectrum, overlaps)
    commutant = predict_commutant(spectrum, overlaps)
    stats = predict_loss_stats(spectrum, overlaps)
    irreducible_dim, invariant_lines = isotypic_summary(spectrum, overlaps)
    sections = {
        "spectrum": {
            "r": spectrum.r,
            "levels": [{"value": v, "multiplicity": m} for v, m in spectrum.levels],
        },
        "overlaps": {
            "d": overlaps.d,
            "sum_c_squared": float(np.sum(overlaps.c**2)),
            "c": [float(x) for x in overlaps.c],
            "supported_levels": list(overlaps.supported_levels),
        },
        "dla": {
            "algebra": dla.algebra,
            "dim": dla.dim,
            "center_dim": dla.center_dim,
        },
        "commutant": {"dim": commutant.dim},
        "isotypic": {
            "irreducible_dim": irreducible_dim,
            "invariant_lines": invariant_lines,
        },
        "loss_stats": {
            "zeta_mean": stats.zeta_mean,
            "zeta_var": stats.zeta_var,
            "p_su_rho": stats.p_su_rho,
            "p_su_hp": stats.p_su_hp,
            "expected_loss": stats.expected_loss,
            "loss_variance": stats.loss_variance,
            "l1": stats.l1,
            "l2": stats.l2,
        },
    }
    return sections, spectrum, overlaps, dla, commutant, stats


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, args) -> None:
    _emit(json.dumps(report, indent=2) + "\n", args)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _lookup(report: dict, path):
    if callable(path):
        return path(report)
    for key in path.split("."):
        report = report.get(key) if isinstance(report, dict) else None
    return report


def _flat_row(columns, report: dict) -> dict:
    return {name: _lookup(report, path) for name, path in columns}


def _emit_csv(rows, args) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row.values()])
    _emit(buf.getvalue(), args)


def _emit_report(report: dict, columns, args) -> None:
    if (args.format or "json") == "json":
        _emit_json(report, args)
    else:
        _emit_csv([_flat_row(columns, report)], args)


def cmd_analyze(args) -> int:
    table, descriptor, problem_digest = _load_problem(args)
    state, init_digest = _load_init(args, table)
    report = _base_report("analyze", args, descriptor, problem_digest, init_digest, table)
    sections, *_ = _analysis_sections(table, state, args.tol_zero)
    report.update(sections)
    _emit_report(report, _ANALYZE_COLUMNS, args)
    return 0


def _verdict(predicted, observed, tolerance=0):
    ok = predicted == observed if tolerance == 0 else abs(predicted - observed) <= tolerance
    return {
        "predicted": predicted,
        "observed": observed,
        "tolerance": tolerance,
        "verdict": "match" if ok else "mismatch",
    }


def cmd_verify(args) -> int:
    table, descriptor, problem_digest = _load_problem(args)
    if table.size > ORACLE_DIM_LIMIT:
        raise OracleCapError(
            f"instance dimension {table.size} exceeds the oracle cap {ORACLE_DIM_LIMIT}"
        )
    state, init_digest = _load_init(args, table)
    report = _base_report("verify", args, descriptor, problem_digest, init_digest, table)
    sections, spectrum, overlaps, dla, commutant, _ = _analysis_sections(
        table, state, args.tol_zero
    )
    report.update(sections)

    h_p, g_m = gm_generators(table, state)
    if args.mixer == "x":
        if table.q != 2:
            raise ValueError("--mixer x requires a binary alphabet (q = 2)")
        # comparison dimensions are defined for the traceless coupling form
        generators = [1j * traceless_part(h_p), 1j * x_mixer_generator(table.n)]
    else:
        generators = [1j * h_p, 1j * g_m]
    basis, closure = lie_closure(generators, tol_indep=args.tol_indep, dim_cap=args.dim_cap)

    oracle_section = {
        "mixer": args.mixer,
        "closure": {
            "dimension": closure.dimension,
            "rounds": closure.rounds,
            "max_residual_discarded": closure.max_residual_discarded,
            "min_residual_accepted": closure.min_residual_accepted,
            "hit_cap": closure.hit_cap,
            "tol_indep": args.tol_indep,
        },
    }
    verdicts = {}
    if args.mixer == "grover":
        # exact for the DLA: commuting with it is commuting with its generators
        commutant_report = grover_commutant_dimension(
            table.values, state.amplitudes, tol_rank=args.tol_rank, tol_zero=args.tol_zero
        )
        observed_comm = commutant_report.dimension
        w0 = [overlaps.component(j) for j in overlaps.supported_levels]
        w0_residual = invariant_subspace_residual(basis, w0)
        lines = complement_invariant_lines(spectrum, overlaps)
        line_residual = 0.0
        for line in lines:
            line_residual = max(line_residual, invariant_subspace_residual(basis, [line]))
        oracle_section.update(
            commutant_dim=observed_comm,
            commutant_margin={
                "max_null": commutant_report.max_null,
                "min_nonnull": commutant_report.min_nonnull,
            },
            tol_rank=args.tol_rank,
            w0_residual=w0_residual,
            complement_line_residual=line_residual,
            tol_invariant=TOL_INVARIANT,
        )
        if closure.hit_cap:
            verdicts["dla_dim"] = {
                "predicted": dla.dim,
                "observed": closure.dimension,
                "verdict": "not-run",
                "note": "closure hit the dimension cap; dimension is a lower bound",
            }
        else:
            verdicts["dla_dim"] = _verdict(dla.dim, closure.dimension)
        verdicts["commutant_dim"] = _verdict(commutant.dim, observed_comm)
        invariant_ok = w0_residual < TOL_INVARIANT and line_residual < TOL_INVARIANT
        verdicts["isotypic"] = {
            "w0_residual": w0_residual,
            "line_residual": line_residual,
            "tolerance": TOL_INVARIANT,
            "verdict": "match" if invariant_ok else "mismatch",
        }
    else:
        verdicts["dla_dim"] = {"verdict": "not-run", "note": "no closed-form prediction for the x mixer"}
        verdicts["commutant_dim"] = {"verdict": "not-run"}
        verdicts["isotypic"] = {"verdict": "not-run"}
    oracle_section["verdicts"] = verdicts
    report["oracle"] = oracle_section
    _emit_report(report, _VERIFY_COLUMNS, args)
    mismatched = any(v.get("verdict") == "mismatch" for v in verdicts.values())
    return 1 if mismatched else 0


def _mc_section(mc) -> dict:
    return {
        "depth": mc.p,
        "samples": mc.samples,
        "seed": mc.seed,
        "mean": mc.mean,
        "variance": mc.variance,
        "stderr_mean": mc.stderr_mean,
        "stderr_variance": mc.stderr_variance,
    }


def cmd_simulate(args) -> int:
    table, descriptor, problem_digest = _load_problem(args)
    state, init_digest = _load_init(args, table)
    report = _base_report("simulate", args, descriptor, problem_digest, init_digest, table)
    sections, spectrum, overlaps, _, _, stats = _analysis_sections(table, state, args.tol_zero)
    report.update(sections)
    sup = overlaps.supported_levels
    mc = monte_carlo_stats(
        spectrum.values[sup], overlaps.c[sup], p=args.depth, samples=args.samples, seed=args.seed
    )
    report["monte_carlo"] = _mc_section(mc)
    ok_mean = abs(mc.mean - stats.expected_loss) <= 3.0 * mc.stderr_mean
    ok_var = abs(mc.variance - stats.loss_variance) <= 3.0 * mc.stderr_variance
    report["verdicts"] = {
        "mean": {
            "target": stats.expected_loss,
            "estimate": mc.mean,
            "stderr": mc.stderr_mean,
            "within_3_stderr": bool(ok_mean),
        },
        "variance": {
            "target": stats.loss_variance,
            "estimate": mc.variance,
            "stderr": mc.stderr_variance,
            "within_3_stderr": bool(ok_var),
        },
    }
    _emit_report(report, _SIMULATE_COLUMNS, args)
    return 0


def cmd_sweep(args) -> int:
    args.depths = _depths(args.depths)
    table, descriptor, problem_digest = _load_problem(args)
    state, init_digest = _load_init(args, table)
    sections, spectrum, overlaps, *_ = _analysis_sections(table, state, args.tol_zero)
    sup = overlaps.supported_levels
    values, weights = spectrum.values[sup], overlaps.c[sup]
    rows = []
    for p in args.depths:
        mc = monte_carlo_stats(values, weights, p=p, samples=args.samples, seed=args.seed)
        row = {"monte_carlo": _mc_section(mc), "loss_stats": sections["loss_stats"]}
        rows.append(_flat_row(_SWEEP_COLUMNS, row))
    if (args.format or "csv") == "csv":
        _emit_csv(rows, args)
    else:
        report = _base_report("sweep", args, descriptor, problem_digest, init_digest, table)
        report.update(sections)
        report["rows"] = rows
        _emit_json(report, args)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: cannot allocate the requested arrays: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
