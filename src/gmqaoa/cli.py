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
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .analytic import predict_commutant, predict_dla, predict_loss_stats
from .core import (
    TOL_ZERO,
    InitialState,
    _check_letters,
    build_spectrum,
    decompose_initial_state,
    dense_size,
    uniform_overlaps,
    uniform_state,
)
from .oracle import (
    TOL_INDEP,
    TOL_RANK,
    OracleCapError,
    _check_oracle_size,
    closure_report,
    gm_generators,
    graded_pieces,
    grover_commutant_dimension,
    isotypic_residuals,
    isotypic_split,
    level_span_generators,
    x_mixer_generator,
)
from .problems import (
    ParseError,
    _check_threshold,
    _local_objective,
    cnf_terms,
    coloring_terms,
    is_json_number,
    local_spectrum,
    maxcut_terms,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    threshold_transform,
)
from .simulator import BETA_MAX, GAMMA_MAX, _check_depth, _check_samples, _check_seed, monte_carlo_stats

# CPython's built-in SHA-256: importing hashlib maps OpenSSL's libcrypto,
# 3.6 MiB of resident memory and about 5 ms, to hash inputs of a few
# hundred bytes.  Builds without the built-in hashes (FIPS-only) use
# hashlib.
try:
    from _sha2 import sha256 as _builtin_sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # Python 3.10-3.11
    except ImportError:
        _builtin_sha256 = None

#: Bound on the isotypic verdict's frame, W0 and line residuals.
TOL_INVARIANT = 1e-8

_THREADS_HELP = "accepted and ignored: the Monte Carlo always runs in one thread"


def _levels_cell(report: dict) -> str:
    # .17g round-trips every float and keeps integer values integral
    return "|".join(f"{lv['value']:.17g}:{lv['multiplicity']}" for lv in report["spectrum"]["levels"])


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
    ("closure_rounds", "oracle.closure.rounds"),
    ("oracle_commutant_dim", "oracle.verdicts.commutant_dim.observed"),
    ("w0_residual", "oracle.verdicts.isotypic.w0_residual"),
    ("complement_line_residual", "oracle.verdicts.isotypic.line_residual"),
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


def _flag(parse, check):
    """An argparse ``type``: ``parse`` the text, refuse the value through
    ``check``, the library's one statement of the flag's rule, and report
    either ``ValueError`` as argparse's error, which names the flag and
    exits with code 2 before any file is read."""

    def convert(text: str):
        try:
            value = parse(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


def _depths(text: str) -> list:
    return [int(tok) for tok in text.split(",")]


def _each_depth(depths: list) -> None:
    for p in depths:
        _check_depth(p)


def _add_common_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--maxcut", metavar="FILE", help="edge-list graph file, MaxCut objective")
    sp.add_argument("--cnf", metavar="FILE", help="DIMACS cnf file, violated-clause objective")
    sp.add_argument("--coloring", metavar="FILE", help="edge-list graph file, coloring-violation objective")
    sp.add_argument("--colors", type=_flag(int, _check_letters), metavar="Q",
                    help="alphabet size for --coloring")
    sp.add_argument("--table", metavar="FILE", help="JSON objective table {q, n, values}")
    sp.add_argument("--init", default="uniform", metavar="uniform|FILE",
                    help="initial state: 'uniform' or a JSON amplitude file")
    sp.add_argument("--threshold", type=_flag(float, _check_threshold), metavar="T",
                    help="replace the objective by its >= T indicator")
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
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="Monte Carlo loss statistics at one depth")
    _add_common_args(simulate)
    simulate.add_argument("--depth", type=_flag(int, _check_depth), default=32)
    simulate.add_argument("--samples", type=_flag(int, _check_samples), default=4096)
    simulate.add_argument("--seed", type=_flag(int, _check_seed), default=0)
    simulate.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="Monte Carlo statistics across depths")
    _add_common_args(sweep)
    sweep.add_argument("--depths", type=_flag(_depths, _each_depth), metavar="a,b,c", required=True)
    sweep.add_argument("--samples", type=_flag(int, _check_samples), default=4096)
    sweep.add_argument("--seed", type=_flag(int, _check_seed), default=0)
    sweep.set_defaults(func=cmd_sweep, format="csv")
    return parser


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``; the same bytes from either hash."""
    if _builtin_sha256 is not None:
        return _builtin_sha256(data).hexdigest()
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_problem(args):
    """The problem as ``(n, q, terms, table, descriptor, digest)``.

    ``terms`` are the local terms of --maxcut/--cnf/--coloring, with
    ``table`` None; --table gives the dense ``table``, with ``terms`` None.
    """
    chosen = [(kind, getattr(args, kind)) for kind in ("maxcut", "cnf", "coloring", "table")
              if getattr(args, kind) is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --maxcut/--cnf/--coloring/--table is required")
    kind, path = chosen[0]
    if args.colors is not None and kind != "coloring":
        raise ValueError("--colors requires --coloring")
    data = _read_file(path)
    text = data.decode("utf-8")
    table = terms = None
    if kind == "maxcut":
        graph = parse_graph(text)
        n, q, terms = graph.vertex_count, 2, maxcut_terms(graph)
    elif kind == "coloring":
        if args.colors is None:
            raise ValueError("--coloring requires --colors")
        graph = parse_graph(text)
        n, q, terms = graph.vertex_count, args.colors, coloring_terms(graph, args.colors)
    elif kind == "cnf":
        formula = parse_cnf(text)
        n, q, terms = formula.variable_count, 2, cnf_terms(formula)
    else:
        table = parse_custom_table(text)
        n, q = table.n, table.q
    descriptor = {"kind": kind, "path": path}
    if kind == "coloring":
        descriptor["colors"] = args.colors
    return n, q, terms, table, descriptor, _sha256_hex(data)


def _load_init(args, table):
    if args.init == "uniform":
        return uniform_state(table.n, table.q), None
    data = _read_file(args.init)
    try:
        payload = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid amplitude JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(payload, list):
        raise ValueError("amplitude file must hold a JSON array")
    amps = []
    for entry in payload:
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
        if not all(is_json_number(v) for v in parts):
            raise ValueError("amplitudes must be numbers or [re, im] pairs")
        amps.append(complex(*parts))
    if len(amps) != table.size:
        raise ValueError(f"expected {table.size} amplitudes, got {len(amps)}")
    return InitialState(np.asarray(amps, dtype=complex)), _sha256_hex(data)


def _analysis(args, command: str, config: dict):
    """Load the problem and state, run the closed forms and open the report.

    ``config`` adds the command's settings; its ``tolerances`` replace the
    common ones.  Returns the report, the dense table and state, the
    spectrum and the overlaps.  ``verify`` builds the table and state for
    its oracles, but first applies its rules on (n, q) alone, in order:
    the dense-table limit (exit 2), a binary alphabet for the x mixer
    (exit 2) and the dense-oracle cap (exit 3).  --threshold then gives
    the dense table.  Otherwise local terms under the uniform state are
    counted by ``local_spectrum``, with no table, unless its plan needs a
    factor larger than the table; the uniform weights come from the
    multiplicities whichever way the spectrum was built, so the state is
    loaded only for another init, and an unbuilt table or state is None.
    """
    n, q, terms, table, descriptor, problem_digest = _load_problem(args)
    dense = command == "verify"
    if dense:
        size = dense_size(n, q)
        if args.mixer == "x" and q != 2:
            raise ValueError("--mixer x requires a binary alphabet (q = 2)")
        _check_oracle_size(size)
    if args.threshold is not None:
        table = _local_objective(n, q, terms) if table is None else table
        table, terms = threshold_transform(table, args.threshold), None
        descriptor["threshold"] = {"t": args.threshold}
    uniform = args.init == "uniform"
    spectrum = local_spectrum(n, q, terms) if terms is not None and uniform else None
    if dense or spectrum is None:
        table = _local_objective(n, q, terms) if table is None else table
    state = init_digest = None
    if dense or not uniform:
        state, init_digest = _load_init(args, table)
    if spectrum is None:
        spectrum = build_spectrum(table)
    if uniform:
        overlaps = uniform_overlaps(spectrum)
    else:
        overlaps = decompose_initial_state(state, spectrum)
    dla = predict_dla(spectrum, overlaps)
    stats = predict_loss_stats(spectrum, overlaps)
    report = {
        "tool": "gmqaoa",
        "version": __version__,
        "command": command,
        "config": {
            "problem": descriptor,
            "init": args.init,
            "tolerances": {"tol_zero": TOL_ZERO},
            "format": args.format,
            **config,
        },
        "inputs": {"problem_sha256": problem_digest, "init_sha256": init_digest},
        "problem": {"n": n, "q": q, "n_states": spectrum.n_states},
        "spectrum": {
            "r": spectrum.r,
            "levels": [{"value": v, "multiplicity": m} for v, m in spectrum.levels],
        },
        "overlaps": {
            "d": overlaps.d,
            "sum_c_squared": float(np.sum(overlaps.c**2)),
            "c": [float(x) for x in overlaps.c],
            "supported_levels": overlaps.supported_levels,
        },
        "dla": {"algebra": dla.algebra, "dim": dla.dim, "center_dim": dla.center_dim},
        "commutant": {"dim": predict_commutant(spectrum, overlaps)},
        # W0 = span{xi_j} is the one irreducible block; its complement splits into lines
        "isotypic": {"irreducible_dim": overlaps.d, "invariant_lines": spectrum.n_states - overlaps.d},
        "loss_stats": asdict(stats),
    }
    return report, table, state, spectrum, overlaps


def _monte_carlo(args, spectrum, overlaps, p: int) -> dict:
    sup = overlaps.c > 0
    return asdict(monte_carlo_stats(
        spectrum.values[sup], overlaps.c[sup], p=p, samples=args.samples, seed=args.seed
    ))


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
        "tol_zero": TOL_ZERO,
        "tol_indep": TOL_INDEP,
        "tol_rank": TOL_RANK,
        "tol_invariant": TOL_INVARIANT,
    }
    report, table, state, *_ = _analysis(args, "verify", {"mixer": args.mixer, "tolerances": tolerances})
    values, amps = table.values, state.amplitudes
    if args.mixer == "x":
        # comparison dimensions are defined for the traceless coupling form
        generators = [1j * np.diag(values - values.mean()), 1j * x_mixer_generator(table.n)]
    else:
        generators = graded_pieces(*level_span_generators(values, amps))
    closure = closure_report(generators)

    oracle = {"mixer": args.mixer, "closure": asdict(closure)}
    if args.mixer == "grover":
        # exact for the DLA: commuting with it is commuting with its generators
        commutant = grover_commutant_dimension(values, amps)
        # likewise a subspace is invariant under the DLA iff it is invariant
        # under its generators, taken at unit norm
        units = [g / np.linalg.norm(g) for g in gm_generators(values, amps) if np.any(g)]
        w0, lines = isotypic_split(values, amps)
        split = isotypic_residuals(units, w0, lines)
        oracle["commutant_margin"] = {
            "max_null": commutant.max_null, "min_nonnull": commutant.min_nonnull
        }
        observed = {"irreducible_dim": len(w0), "invariant_lines": len(lines)}
        residuals = (split.frame_residual, split.w0_residual, split.line_residual)
        # a unitary frame of the predicted shape, with W0 and each line invariant
        invariant_ok = (split.square and observed == report["isotypic"]
                        and all(r < TOL_INVARIANT for r in residuals))
        verdicts = {
            "dla_dim": _verdict(report["dla"]["dim"], closure.dimension),
            "commutant_dim": _verdict(report["commutant"]["dim"], commutant.dimension),
            "isotypic": {
                "predicted": dict(report["isotypic"]),
                "observed": observed,
                "frame_residual": split.frame_residual,
                "w0_residual": split.w0_residual,
                "line_residual": split.line_residual,
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
