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
    ComplexOverlapError,
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
    commutant_dimension,
    gm_generators,
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
from .simulator import BETA_MAX, GAMMA_MAX, depth_sweep, monte_carlo_stats

#: Residual bound for the invariant-subspace verdicts.
TOL_INVARIANT = 1e-8

_THREADS_HELP = "accepted and ignored: the Monte Carlo always runs in one thread"

_SWEEP_COLUMNS = (
    "p",
    "samples",
    "seed",
    "mean",
    "variance",
    "stderr_mean",
    "stderr_variance",
    "target_mean",
    "target_variance",
)


def _add_common_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--maxcut", metavar="FILE", help="edge-list graph file, MaxCut objective")
    sp.add_argument("--cnf", metavar="FILE", help="DIMACS cnf file, violated-clause objective")
    sp.add_argument("--coloring", metavar="FILE", help="edge-list graph file, coloring-violation objective")
    sp.add_argument("--colors", type=int, metavar="Q", help="alphabet size for --coloring")
    sp.add_argument("--table", metavar="FILE", help="JSON objective table {q, n, values}")
    sp.add_argument("--init", default="uniform", metavar="uniform|FILE",
                    help="initial state: 'uniform' or a JSON amplitude file")
    sp.add_argument("--threshold", type=float, metavar="T",
                    help="replace the objective by its >= T indicator")
    sp.add_argument("--threshold-strict", action="store_true",
                    help="use > T instead of >= T")
    sp.add_argument("--tol-zero", type=float, default=TOL_ZERO)
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
    verify.add_argument("--tol-indep", type=float, default=TOL_INDEP)
    verify.add_argument("--tol-rank", type=float, default=TOL_RANK)
    verify.add_argument("--dim-cap", type=int, default=DIM_CAP)
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
            config["depths"] = [int(tok) for tok in args.depths.split(",") if tok.strip()]
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
    dla = predict_dla(overlaps, tol_zero=tol_zero, spectrum=spectrum)
    commutant = predict_commutant(spectrum, overlaps)
    stats = predict_loss_stats(spectrum, overlaps, tol_zero=tol_zero)
    irreducible_dim, invariant_lines = isotypic_summary(spectrum, overlaps)
    sections = {
        "spectrum": {
            "r": spectrum.r,
            "levels": [{"value": v, "multiplicity": m} for v, m in spectrum.levels],
        },
        "overlaps": {
            "d": overlaps.d,
            "sum_c": overlaps.sum_c,
            "sum_c_squared": float(np.sum(overlaps.c**2)),
            "c": [float(x) for x in overlaps.c],
            "supported_levels": list(overlaps.supported_levels),
        },
        "dla": {
            "branch": dla.branch,
            "algebra": dla.algebra,
            "dim": dla.dim,
            "center_dim": dla.center_dim,
            "degenerate": dla.degenerate,
            "span_dim": dla.span_dim,
            "tol_zero": tol_zero,
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


def _emit_csv_rows(header, rows, args) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    _emit(buf.getvalue(), args)


def _flat_analysis_row(report: dict):
    spectrum = report["spectrum"]
    over = report["overlaps"]
    dla = report["dla"]
    stats = report["loss_stats"]
    levels = "|".join(
        f"{lv['value']:g}:{lv['multiplicity']}" for lv in spectrum["levels"]
    )
    header = [
        "tool", "version", "command", "problem_kind", "problem_source",
        "n", "q", "n_states", "r", "levels", "d", "sum_c", "sum_c_squared",
        "dla_branch", "dla_algebra", "dla_dim", "dla_center_dim",
        "dla_degenerate", "dla_span_dim", "commutant_dim",
        "isotypic_irreducible_dim", "isotypic_invariant_lines",
        "zeta_mean", "zeta_var", "p_su_rho", "p_su_hp", "expected_loss",
        "loss_variance", "l1", "l2", "tol_zero",
    ]
    row = [
        report["tool"], report["version"], report["command"],
        report["config"]["problem"]["kind"], report["config"]["problem"]["path"],
        report["problem"]["n"], report["problem"]["q"], report["problem"]["n_states"],
        spectrum["r"], levels, over["d"], over["sum_c"], over["sum_c_squared"],
        dla["branch"], dla["algebra"], dla["dim"], dla["center_dim"],
        dla["degenerate"], dla["span_dim"], report["commutant"]["dim"],
        report["isotypic"]["irreducible_dim"], report["isotypic"]["invariant_lines"],
        stats["zeta_mean"], stats["zeta_var"], stats["p_su_rho"], stats["p_su_hp"],
        stats["expected_loss"], stats["loss_variance"], stats["l1"], stats["l2"],
        dla["tol_zero"],
    ]
    return header, row


def cmd_analyze(args) -> int:
    table, descriptor, problem_digest = _load_problem(args)
    state, init_digest = _load_init(args, table)
    report = _base_report("analyze", args, descriptor, problem_digest, init_digest, table)
    sections, *_ = _analysis_sections(table, state, args.tol_zero)
    report.update(sections)
    if (args.format or "json") == "json":
        _emit_json(report, args)
    else:
        header, row = _flat_analysis_row(report)
        _emit_csv_rows(header, [row], args)
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
            "hit_cap": closure.hit_cap,
            "tol_indep": args.tol_indep,
        },
    }
    verdicts = {}
    if args.mixer == "grover":
        observed_comm = commutant_dimension(basis, tol_rank=args.tol_rank)
        w0 = [overlaps.xi_components[j] for j in overlaps.supported_levels]
        w0_residual = invariant_subspace_residual(basis, w0)
        lines = complement_invariant_lines(spectrum, overlaps)
        line_residual = 0.0
        for line in lines:
            line_residual = max(line_residual, invariant_subspace_residual(basis, [line]))
        oracle_section.update(
            commutant_dim=observed_comm,
            tol_rank=args.tol_rank,
            w0_residual=w0_residual,
            complement_line_residual=line_residual,
            tol_invariant=TOL_INVARIANT,
        )
        predicted_dim = dla.span_dim if dla.degenerate and dla.span_dim is not None else dla.dim
        if closure.hit_cap:
            verdicts["dla_dim"] = {
                "predicted": predicted_dim,
                "observed": closure.dimension,
                "verdict": "not-run",
                "note": "closure hit the dimension cap; dimension is a lower bound",
            }
        else:
            verdicts["dla_dim"] = _verdict(predicted_dim, closure.dimension)
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

    if (args.format or "json") == "json":
        _emit_json(report, args)
    else:
        header, row = _flat_analysis_row(report)
        header += [
            "mixer", "closure_dim", "closure_rounds", "closure_hit_cap",
            "oracle_commutant_dim", "w0_residual", "complement_line_residual",
            "verdict_dla_dim", "verdict_commutant", "verdict_isotypic",
            "tol_indep", "tol_rank", "tol_invariant",
        ]
        row += [
            args.mixer, closure.dimension, closure.rounds, closure.hit_cap,
            oracle_section.get("commutant_dim"), oracle_section.get("w0_residual"),
            oracle_section.get("complement_line_residual"),
            verdicts["dla_dim"]["verdict"], verdicts["commutant_dim"]["verdict"],
            verdicts["isotypic"]["verdict"],
            args.tol_indep, args.tol_rank, TOL_INVARIANT,
        ]
        _emit_csv_rows(header, [row], args)
    mismatched = any(v.get("verdict") == "mismatch" for v in verdicts.values())
    return 1 if mismatched else 0


def cmd_simulate(args) -> int:
    table, descriptor, problem_digest = _load_problem(args)
    state, init_digest = _load_init(args, table)
    report = _base_report("simulate", args, descriptor, problem_digest, init_digest, table)
    sections, _, _, _, _, stats = _analysis_sections(table, state, args.tol_zero)
    report.update(sections)
    mc = monte_carlo_stats(state, table, p=args.depth, samples=args.samples, seed=args.seed)
    report["monte_carlo"] = {
        "depth": mc.p,
        "samples": mc.samples,
        "seed": mc.seed,
        "mean": mc.mean,
        "variance": mc.variance,
        "stderr_mean": mc.stderr_mean,
        "stderr_variance": mc.stderr_variance,
    }
    verdicts = {}
    if stats.expected_loss is None:
        verdicts["mean"] = {"verdict": "not-run", "note": "no closed-form mean for a one-dimensional center"}
    else:
        ok = abs(mc.mean - stats.expected_loss) <= 3.0 * mc.stderr_mean
        verdicts["mean"] = {
            "target": stats.expected_loss,
            "estimate": mc.mean,
            "stderr": mc.stderr_mean,
            "within_3_stderr": bool(ok),
        }
    ok_var = abs(mc.variance - stats.loss_variance) <= 3.0 * mc.stderr_variance
    verdicts["variance"] = {
        "target": stats.loss_variance,
        "estimate": mc.variance,
        "stderr": mc.stderr_variance,
        "within_3_stderr": bool(ok_var),
    }
    report["verdicts"] = verdicts
    if (args.format or "json") == "json":
        _emit_json(report, args)
    else:
        header = [
            "tool", "version", "command", "problem_kind", "problem_source",
            "depth", "samples", "seed", "mean", "variance",
            "stderr_mean", "stderr_variance", "target_mean", "target_variance",
            "mean_within_3_stderr", "variance_within_3_stderr",
        ]
        row = [
            report["tool"], report["version"], report["command"],
            descriptor["kind"], descriptor["path"],
            mc.p, mc.samples, mc.seed, mc.mean, mc.variance,
            mc.stderr_mean, mc.stderr_variance,
            stats.expected_loss, stats.loss_variance,
            verdicts["mean"].get("within_3_stderr"),
            verdicts["variance"].get("within_3_stderr"),
        ]
        _emit_csv_rows(header, [row], args)
    return 0


def cmd_sweep(args) -> int:
    depths = [int(tok) for tok in args.depths.split(",") if tok.strip()]
    if not depths:
        raise ValueError("--depths must list at least one depth")
    if any(p < 1 for p in depths):
        raise ValueError("depths must be positive")
    table, descriptor, problem_digest = _load_problem(args)
    state, init_digest = _load_init(args, table)
    sections, _, _, _, _, stats = _analysis_sections(table, state, args.tol_zero)
    reports = depth_sweep(state, table, depths, samples=args.samples, seed=args.seed)
    rows = [
        [
            mc.p, mc.samples, mc.seed, mc.mean, mc.variance,
            mc.stderr_mean, mc.stderr_variance,
            stats.expected_loss, stats.loss_variance,
        ]
        for mc in reports
    ]
    if (args.format or "csv") == "csv":
        _emit_csv_rows(_SWEEP_COLUMNS, rows, args)
    else:
        report = _base_report("sweep", args, descriptor, problem_digest, init_digest, table)
        report.update(sections)
        report["rows"] = [dict(zip(_SWEEP_COLUMNS, row)) for row in rows]
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
    except (ParseError, ValidationError, ComplexOverlapError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
