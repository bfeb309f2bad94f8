"""Layer spans for the gmqaoa benchmark.

Run as a script, this executes one CLI report in-process, with every
layer function that ``gmqaoa.cli`` imported by name wrapped in a span:

    python perfbench/spans.py SPANS.json REPORT_ID -- verify --maxcut data/p3.graph

The report goes to stdout exactly as ``gmqaoa`` would print it.  Spans
stay in memory and are written to SPANS.json when the report ends.  The
program's own files are not touched: the wrappers replace names in the
``gmqaoa.cli`` namespace only, so calls made inside a layer module are
not split into further spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Name imported into ``gmqaoa.cli`` -> layer its calls are recorded under.
#: A layer's time metric is ``<layer>_s``; the report span is ``cli.self``.
LAYER_OF = {
    "parse_graph": "problems.build",
    "parse_cnf": "problems.build",
    "maxcut_objective": "problems.build",
    "cnf_objective": "problems.build",
    "build_spectrum": "core.spectrum",
    "decompose_initial_state": "core.decompose",
    "predict_dla": "analytic.predict",
    "predict_commutant": "analytic.predict",
    "predict_loss_stats": "analytic.predict",
    "isotypic_summary": "analytic.predict",
    "complement_invariant_lines": "analytic.invariant_lines",
    "gm_generators": "oracle.generators",
    "traceless_part": "oracle.generators",
    "x_mixer_generator": "oracle.generators",
    "lie_closure": "oracle.closure",
    "commutant_dimension": "oracle.commutant",
    "invariant_subspace_residual": "oracle.invariant_residual",
    "monte_carlo_stats": "simulator.mc",
    "depth_sweep": "simulator.mc",
}

REPORT_LAYER = "cli.self"

#: Bytes one dense layer-sample reads per basis state: the complex state,
#: the complex mixer vector and the float objective value.
DENSE_BYTES_PER_STATE = 16 + 16 + 8


def _counts(name: str, arguments: dict, result) -> dict:
    """Work counts of one call, computed from its arguments and result.

    Every ``*_bytes`` count is computed from array sizes, not measured.
    """
    if name in ("maxcut_objective", "cnf_objective"):
        return {"problems.table_bytes": result.values.nbytes}
    if name == "decompose_initial_state":
        return {"core.components_bytes": sum(v.nbytes for v in result.xi_components.values())}
    if name == "lie_closure":
        report = result[1]
        return {"oracle.closure_dim": report.dimension, "oracle.closure_rounds": report.rounds}
    if name == "commutant_dimension":
        elements = getattr(arguments["basis"], "elements", arguments["basis"])
        n = len(elements[0])
        return {"oracle.commutant_system_bytes": n**4 * 16}
    if name in ("monte_carlo_stats", "depth_sweep"):
        reports = [result] if name == "monte_carlo_stats" else result
        layer_samples = sum(r.p * r.samples for r in reports)
        n_states = arguments["objective"].size
        return {
            "simulator.layer_samples": layer_samples,
            "simulator.layer_sample_bytes": layer_samples * n_states * DENSE_BYTES_PER_STATE,
        }
    return {}


class Tracer:
    """In-memory spans of one report: name, layer, start, end, parent, report id."""

    def __init__(self, report: str):
        self.report = report
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "report": self.report,
            "name": name,
            "layer": layer,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, layer: str, func):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, layer) as span:
                result = func(*args, **kwargs)
            # counted outside the span so the layer is not charged for it
            try:
                span["counts"] = _counts(name, signature.bind(*args, **kwargs).arguments, result)
            except (AttributeError, KeyError, TypeError, IndexError):
                span["counts"] = {}
            return result

        return traced

    def instrument(self, module) -> None:
        """Wrap each traced name the module has."""
        for name, layer in LAYER_OF.items():
            func = getattr(module, name, None)
            if callable(func):
                setattr(module, name, self.wrap(name, layer, func))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are matched to parents by (report, id); overlapping children
    are counted once and a child sticking out of its parent is clipped.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["report"], span["parent"])].append(span)
    out = []
    for span in spans:
        start, end = span["start"], span["end"]
        intervals = sorted(
            (max(c["start"], start), min(c["end"], end))
            for c in children[(span["report"], span["id"])]
        )
        covered = 0.0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_totals(spans: list[dict]) -> dict:
    """Sum self time (``<layer>_s``), calls (``<layer>_calls``) and counts per layer."""
    totals: dict = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        totals[span["layer"] + "_s"] += self_s
        totals[span["layer"] + "_calls"] += 1
        for key, value in span["counts"].items():
            totals[key] += value
    return dict(totals)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spans.py SPANS.json REPORT_ID -- GMQAOA_ARGS...", file=sys.stderr)
        return 2
    spans_path, report, cli_argv = argv[0], argv[1], argv[3:]
    from gmqaoa import cli

    tracer = Tracer(report)
    tracer.instrument(cli)
    try:
        with tracer.span("main", REPORT_LAYER):
            code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
