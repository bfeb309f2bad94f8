"""Command-line frontend: analyze, verify, simulate, sweep.

Each ``cmd_*`` function returns ``(report, csv_rows, exit_code)`` and
writes nothing: the report is the JSON document, and the CSV rows are
read off it through the declared column maps below.  ``main`` alone
emits the report, as JSON or CSV, to stdout or ``--out``, and maps
exceptions to exit codes.

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
from dataclasses import asdict

import numpy as np

from . import __version__
from .analytic import isotypic_summary, predict_commutant, predict_dla, predict_loss_stats
from .core import (
    TOL_ZERO,
    InitialState,
    build_spectrum,
    decompose_initial_state,
    uniform_state,
)
from .oracle import (
    DIM_CAP,
    TOL_INDEP,
    TOL_RANK,
    OracleCapError,
    gm_generators,
    grover_commutant_dimension,
    invariant_subspace_residual,
    isotypic_split,
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


def _positive_tolerance(text: str) -> float:
    value = _tolerance(text)
    if value == 0.0:
        # --tol-indep 0 counts every round-off residual as a new direction,
        # so the closure is all of u(N); --tol-rank 0 counts no eigenvalue
        # as null, so the commutant comes out too small
        raise argparse.ArgumentTypeError("tolerance must be > 0, got 0")
    return value


def _depths(text: str) -> list:
    try:
        depths = [int(tok) for tok in text.split(",")]
    except ValueError:
        depths = []
    if not depths or min(depths) < 1:
        raise argparse.ArgumentTypeError(f"need a comma-separated list of integers >= 1, got {text!r}")
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
    sp.add_argument("--format", choices=("json", "csv"), default="json",
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
    verify.add_argument("--tol-indep", type=_positive_tolerance, default=TOL_INDEP)
    verify.add_argument("--tol-rank", type=_positive_tolerance, default=TOL_RANK)
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
    sweep.add_argument("--depths", type=_depths, metavar="a,b,c", required=True)
    sweep.add_argument("--samples", type=int, default=4096)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sweep.set_defaults(func=cmd_sweep, format="csv")
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
    if args.colors is not None and kind != "coloring":
        raise ValueError("--colors requires --coloring")
    if args.threshold_strict and args.threshold is None:
        raise ValueError("--threshold-strict requires --threshold")
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


def _analysis(args, command: str, config: dict):
    """Load the problem and state, run the closed forms and open the report.

    ``config`` adds the command's settings; its ``tolerances`` replace the common ones.
    """
    table, descriptor, problem_digest = _load_problem(args)
    state, init_digest = _load_init(args, table)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(state, spectrum, tol_zero=args.tol_zero)
    dla = predict_dla(spectrum, overlaps)
    commutant = predict_commutant(spectrum, overlaps)
    stats = predict_loss_stats(spectrum, overlaps)
    irreducible_dim, invariant_lines = isotypic_summary(spectrum, overlaps)
    report = {
        "tool": "gmqaoa",
        "version": __version__,
        "command": command,
        "config": {
            "problem": descriptor,
            "init": args.init,
            "tolerances": {"tol_zero": args.tol_zero},
            "format": args.format,
            **config,
        },
        "inputs": {"problem_sha256": problem_digest, "init_sha256": init_digest},
        "problem": {"n": table.n, "q": table.q, "n_states": table.size},
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
        "dla": {"algebra": dla.algebra, "dim": dla.dim, "center_dim": dla.center_dim},
        "commutant": asdict(commutant),
        "isotypic": {"irreducible_dim": irreducible_dim, "invariant_lines": invariant_lines},
        "loss_stats": asdict(stats),
    }
    return report, table, state, spectrum, overlaps


def _monte_carlo(args, spectrum, overlaps, p: int) -> dict:
    sup = overlaps.supported_levels
    mc = monte_carlo_stats(
        spectrum.values[sup], overlaps.c[sup], p=p, samples=args.samples, seed=args.seed
    )
    return {
        "depth": mc.p,
        "samples": mc.samples,
        "seed": mc.seed,
        "mean": mc.mean,
        "variance": mc.variance,
        "stderr_mean": mc.stderr_mean,
        "stderr_variance": mc.stderr_variance,
    }


def _mc_config(args, **depth) -> dict:
    return {
        "samples": args.samples,
        "seed": args.seed,
        "parameter_ranges": {"beta": [0.0, BETA_MAX], "gamma": [0.0, GAMMA_MAX]},
        **depth,
    }


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


def _emit(args, report: dict, rows) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(rows[0])
        writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args):
    report, *_ = _analysis(args, "analyze", {})
    return report, [_flat_row(_ANALYZE_COLUMNS, report)], 0


def _verdict(predicted, observed) -> dict:
    verdict = "match" if predicted == observed else "mismatch"
    return {"predicted": predicted, "observed": observed, "tolerance": 0, "verdict": verdict}


def cmd_verify(args):
    tolerances = {
        "tol_zero": args.tol_zero,
        "tol_indep": args.tol_indep,
        "tol_rank": args.tol_rank,
        "tol_invariant": TOL_INVARIANT,
    }
    report, table, state, *_ = _analysis(
        args, "verify", {"mixer": args.mixer, "tolerances": tolerances, "dim_cap": args.dim_cap}
    )
    if args.mixer == "x":
        if table.q != 2:
            raise ValueError("--mixer x requires a binary alphabet (q = 2)")
        # the mixer first: it checks the oracle cap before diag(F) is built;
        # comparison dimensions are defined for the traceless coupling form
        x_mixer = x_mixer_generator(table.n)
        generators = [1j * traceless_part(np.diag(table.values)), 1j * x_mixer]
    else:
        h_p, g_m = gm_generators(table, state)
        generators = [1j * h_p, 1j * g_m]
    basis, closure = lie_closure(generators, tol_indep=args.tol_indep, dim_cap=args.dim_cap)

    oracle = {"mixer": args.mixer, "closure": {**asdict(closure), "tol_indep": args.tol_indep}}
    if args.mixer == "grover":
        # exact for the DLA: commuting with it is commuting with its generators
        commutant = grover_commutant_dimension(
            table.values, state.amplitudes, tol_rank=args.tol_rank, tol_zero=args.tol_zero
        )
        w0, lines = isotypic_split(table.values, state.amplitudes, tol_zero=args.tol_zero)
        w0_residual = invariant_subspace_residual(basis, w0)
        line_residual = 0.0
        for line in lines:
            line_residual = max(line_residual, invariant_subspace_residual(basis, [line]))
        oracle.update(
            commutant_dim=commutant.dimension,
            commutant_margin={"max_null": commutant.max_null, "min_nonnull": commutant.min_nonnull},
            tol_rank=args.tol_rank,
            w0_residual=w0_residual,
            complement_line_residual=line_residual,
            tol_invariant=TOL_INVARIANT,
        )
        if closure.hit_cap:
            dla_verdict = {
                "predicted": report["dla"]["dim"],
                "observed": closure.dimension,
                "verdict": "not-run",
                "note": "closure hit the dimension cap; dimension is a lower bound",
            }
        else:
            dla_verdict = _verdict(report["dla"]["dim"], closure.dimension)
        invariant_ok = w0_residual < TOL_INVARIANT and line_residual < TOL_INVARIANT
        verdicts = {
            "dla_dim": dla_verdict,
            "commutant_dim": _verdict(report["commutant"]["dim"], commutant.dimension),
            "isotypic": {
                "w0_residual": w0_residual,
                "line_residual": line_residual,
                "tolerance": TOL_INVARIANT,
                "verdict": "match" if invariant_ok else "mismatch",
            },
        }
    else:
        verdicts = {
            "dla_dim": {"verdict": "not-run", "note": "no closed-form prediction for the x mixer"},
            "commutant_dim": {"verdict": "not-run"},
            "isotypic": {"verdict": "not-run"},
        }
    oracle["verdicts"] = verdicts
    report["oracle"] = oracle
    mismatched = any(v.get("verdict") == "mismatch" for v in verdicts.values())
    return report, [_flat_row(_VERIFY_COLUMNS, report)], 1 if mismatched else 0


def cmd_simulate(args):
    report, _, _, spectrum, overlaps = _analysis(
        args, "simulate", _mc_config(args, depth=args.depth)
    )
    mc = report["monte_carlo"] = _monte_carlo(args, spectrum, overlaps, args.depth)
    stats = report["loss_stats"]
    report["verdicts"] = {
        name: {
            "target": stats[target],
            "estimate": mc[name],
            "stderr": mc[f"stderr_{name}"],
            "within_3_stderr": abs(mc[name] - stats[target]) <= 3.0 * mc[f"stderr_{name}"],
        }
        for name, target in (("mean", "expected_loss"), ("variance", "loss_variance"))
    }
    return report, [_flat_row(_SIMULATE_COLUMNS, report)], 0


def cmd_sweep(args):
    config = _mc_config(args, depths=args.depths)
    report, _, _, spectrum, overlaps = _analysis(args, "sweep", config)
    rows, stats = [], report["loss_stats"]
    for p in args.depths:
        row = {"monte_carlo": _monte_carlo(args, spectrum, overlaps, p), "loss_stats": stats}
        rows.append(_flat_row(_SWEEP_COLUMNS, row))
    report["rows"] = rows
    return report, rows, 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, rows, code = args.func(args)
        _emit(args, report, rows)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OracleCapError) else 2
    except MemoryError as exc:
        print(f"error: cannot allocate the requested arrays: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
