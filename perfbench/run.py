"""gmqaoa benchmark: three workloads of real CLI reports, one report at a time.

    python3 perfbench/run.py --workload verify_grover --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``gmqaoa`` reports.  A pass runs every
report once, each as a fresh subprocess, and the next report starts only
when the previous one has exited (a closed loop with one client: the
researcher reads each report before starting the next).  Passes repeat
until ``--seconds`` is used up, with at least two passes so every report
is checked against a same-seed repeat.

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` alternates untraced passes with traced ones (see
``spans.py``) and prints the per-layer metrics.  The last line of stdout
is the result object; the line before it holds the run's details:
provenance, generated inputs with their sha256, every pass, and every
failure.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import layer_totals

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0
SETUP_REPS = 5
MIN_PASSES = 2

#: One process generates load; BLAS gets at most two threads.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)

MC_DEPTH = 32
#: mc_large: a 2**20-state random MaxCut instance at the dense-table cap.
#: Graphs are drawn until they have LARGE_LEVELS distinct cut values, so
#: the seed changes the graph but not the working set (d full-length
#: level components).
LARGE_VERTICES = 20
LARGE_EDGES = 40
LARGE_LEVELS = 33
MC_LARGE_SAMPLES = 2

#: What the installed ``gmqaoa`` console script runs (``python -m gmqaoa.cli``
#: executes the module twice and starts measurably slower).
GMQAOA = (sys.executable, "-c", "import sys; from gmqaoa.cli import main; sys.exit(main())")

#: x-mixer closure dimensions asserted by acceptance test A2.
X_CLOSURE_DIM = {"p4": 16, "c4": 11, "house": 248}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
PER_LAYER = (
    ("problems.build_s", "s"),
    ("problems.table_bytes", "B_computed"),
    ("core.spectrum_s", "s"),
    ("core.decompose_s", "s"),
    ("core.components_bytes", "B_computed"),
    ("analytic.predict_s", "s"),
    ("analytic.invariant_lines_s", "s"),
    ("oracle.generators_s", "s"),
    ("oracle.closure_s", "s"),
    ("oracle.closure_dim", "count"),
    ("oracle.closure_rounds", "count"),
    ("oracle.commutant_s", "s"),
    ("oracle.commutant_system_bytes", "B_computed"),
    ("oracle.invariant_residual_s", "s"),
    ("oracle.invariant_residual_calls", "count"),
    ("simulator.mc_s", "s"),
    ("simulator.layer_sample_us", "us"),
    ("simulator.layer_samples", "count"),
    ("simulator.bytes_per_layer_sample", "B_computed"),
    ("cli.self_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.wall_s", "s"),
    ("trace_overhead_s", "s"),
)


# --------------------------------------------------------------------------
# Inputs


def read_graph(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of an edge-list file (comments, 'n m', 'u v' lines)."""
    rows = [
        line.split()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return int(rows[0][0]), [(int(u), int(v)) for u, v in rows[1:]]


def write_graph(path: Path, n: int, edges, comment: str) -> None:
    lines = [f"# {comment}", f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cut_levels(n: int, edges) -> tuple[tuple[float, int], ...]:
    """(cut value, multiplicity) pairs, largest value first, counted here
    independently of gmqaoa; vertex i is bit i-1 of the string index."""
    idx = np.arange(1 << n, dtype=np.uint32)
    cut = np.zeros(1 << n, dtype=np.int64)
    for u, v in edges:
        cut += ((idx >> (u - 1)) ^ (idx >> (v - 1))) & 1
    counts = np.bincount(cut)
    return tuple((float(k), int(counts[k])) for k in range(len(counts) - 1, -1, -1) if counts[k])


def seeded_large_graph(seed: int) -> list[tuple[int, int]]:
    """Random graph on LARGE_VERTICES vertices with LARGE_EDGES edges and
    exactly LARGE_LEVELS distinct cut values, drawn from ``seed``."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, LARGE_VERTICES + 1) for v in range(u + 1, LARGE_VERTICES + 1)]
    for _ in range(1000):
        edges = sorted(rng.sample(pairs, LARGE_EDGES))
        if len(cut_levels(LARGE_VERTICES, edges)) == LARGE_LEVELS:
            return edges
    raise RuntimeError(f"no graph with {LARGE_LEVELS} cut values in 1000 draws")


# --------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Report:
    """One gmqaoa CLI invocation and what its output must satisfy."""

    rid: str
    argv: tuple[str, ...]
    #: "<kind>:<path>", as setup_probe.py takes it
    problem: str
    #: independently counted (value, multiplicity) spectrum, or None
    levels: tuple | None = None
    #: x-mixer closure dimension the report must show, or None
    x_closure_dim: int | None = None
    #: Monte Carlo depth and samples of a simulate report, 0 otherwise
    depth: int = 0
    samples: int = 0

    @property
    def layer_samples(self) -> int:
        return self.depth * self.samples


class Inputs:
    """Problem files of one run: bundled ones under data/, generated ones
    under the benchmark's out/inputs, each with its sha256."""

    def __init__(self, root: Path):
        self.root = root
        self.dir = OUT_DIR / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.sha256: dict[str, str] = {}

    def _add(self, path: Path) -> str:
        rel = path.relative_to(self.root).as_posix()
        self.sha256[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return rel

    def bundled(self, name: str) -> str:
        return self._add(self.root / "data" / name)

    def generated(self, name: str, n: int, edges, comment: str) -> str:
        path = self.dir / name
        write_graph(path, n, edges, comment)
        return self._add(path)

    def levels(self, rel: str):
        return cut_levels(*read_graph(self.root / rel))


def verify(inputs: Inputs, rel: str, kind: str = "maxcut", mixer: str = "grover") -> Report:
    stem = Path(rel).stem
    argv = ("verify", f"--{kind}", rel) + (("--mixer", "x") if mixer == "x" else ())
    return Report(
        rid=f"verify-{mixer}:{stem}",
        argv=argv,
        problem=f"{kind}:{rel}",
        levels=inputs.levels(rel) if kind == "maxcut" else None,
        x_closure_dim=X_CLOSURE_DIM[stem] if mixer == "x" else None,
    )


def simulate(inputs: Inputs, rel: str, depth: int, samples: int, seed: int) -> Report:
    argv = ("simulate", "--maxcut", rel, "--depth", str(depth), "--samples", str(samples),
            "--seed", str(seed), "--threads", "1")
    return Report(
        rid=f"simulate:{Path(rel).stem}",
        argv=argv,
        problem=f"maxcut:{rel}",
        levels=inputs.levels(rel),
        depth=depth,
        samples=samples,
    )


def verify_grover(inputs: Inputs, seed: int) -> list[Report]:
    # Every bundled instance with q**n <= 64 except c6, whose single
    # 4096 x 4096 commutant system takes longer than a whole run may;
    # the fixed 5-vertex path and cycle take its place as further N = 32
    # commutant systems.
    graphs = [inputs.bundled(f"{g}.graph") for g in ("p3", "p4", "c4", "k4", "triangle", "house")]
    graphs.append(inputs.generated("p5.graph", 5, [(1, 2), (2, 3), (3, 4), (4, 5)], "5-vertex path"))
    graphs.append(inputs.generated("c5.graph", 5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)], "5-cycle"))
    reports = [verify(inputs, g) for g in graphs]
    reports.append(verify(inputs, inputs.bundled("example.cnf"), kind="cnf"))
    return reports


def verify_x(inputs: Inputs, seed: int) -> list[Report]:
    return [verify(inputs, inputs.bundled(f"{g}.graph"), mixer="x") for g in ("house", "p4", "c4")]


def mc_large(inputs: Inputs, seed: int) -> list[Report]:
    rel = inputs.generated(
        "g20.graph", LARGE_VERTICES, seeded_large_graph(seed),
        f"random MaxCut instance, {LARGE_EDGES} edges, {LARGE_LEVELS} cut values, seed {seed}",
    )
    rng = random.Random(f"mc_large:{seed}")
    return [simulate(inputs, rel, MC_DEPTH, MC_LARGE_SAMPLES, rng.getrandbits(32))]


WORKLOADS = {
    "verify_grover": verify_grover,
    "verify_x": verify_x,
    "mc_large": mc_large,
}


# --------------------------------------------------------------------------
# Correctness gate


def check_report(report: Report, returncode: int, out: bytes, first: bytes | None) -> str | None:
    """Why the report failed, or None if it passed.

    ``first`` is the output of the same report earlier in the run; a
    repeat with the same seed must reproduce it byte for byte.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    if first is not None and out != first:
        return "same-seed repeat is not byte-identical"
    try:
        doc = json.loads(out)
    except ValueError:
        return "report is not JSON"
    try:
        return _check_document(report, doc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks an expected field: {exc!r}"


def _check_document(report: Report, doc: dict) -> str | None:
    levels = [(lv["value"], lv["multiplicity"]) for lv in doc["spectrum"]["levels"]]
    if report.levels is not None and levels != [tuple(lv) for lv in report.levels]:
        return "spectrum differs from the independently counted cut values"
    if doc["command"] == "verify":
        verdicts = doc["oracle"]["verdicts"]
        for key, verdict in verdicts.items():
            if verdict["verdict"] == "mismatch":
                return f"verdict {key} is mismatch"
        if report.x_closure_dim is None:
            unrun = [key for key, v in verdicts.items() if v["verdict"] != "match"]
            if unrun:
                return f"grover verdicts not run: {unrun}"
        elif doc["oracle"]["closure"]["dimension"] != report.x_closure_dim:
            return (f"x-mixer closure dimension {doc['oracle']['closure']['dimension']} "
                    f"!= {report.x_closure_dim}")
        return None
    mc = doc["monte_carlo"]
    if (mc["depth"], mc["samples"]) != (report.depth, report.samples):
        return "Monte Carlo depth or sample count differs from the request"
    lo, hi = min(v for v, _ in levels), max(v for v, _ in levels)
    mean, var = mc["mean"], mc["variance"]
    # the loss is a convex combination of objective values
    if not (math.isfinite(mean) and lo - 1e-9 <= mean <= hi + 1e-9):
        return f"Monte Carlo mean {mean!r} outside [{lo}, {hi}]"
    if not (math.isfinite(var) and var >= 0.0):
        return f"Monte Carlo variance {var!r} is not a finite non-negative number"
    return None


# --------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    returncode: int
    wall_s: float
    rss_mib: float
    out: bytes
    err: str


class Runner:
    """Spawns one child at a time from the checkout root, timed from spawn
    to exit, and kills any child still running at the run deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )

    def time_left(self) -> float:
        return self.deadline - perf_counter()

    def spawn(self, cmd: list[str], tag: str) -> Child:
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(max(self.time_left(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_text = err_path.read_text(encoding="utf-8", errors="replace")
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_text)


def run_pass(runner: Runner, reports: list[Report], traced: bool, tag: str,
             first: dict, failures: list[str]) -> dict:
    """Run each report once; gate it; return the pass's timings (and spans)."""
    record = {"traced": traced, "wall_s": 0.0, "reports": {}, "failed": 0}
    spans: list[dict] = []
    for i, report in enumerate(reports):
        child_tag = f"{tag}-{i}"
        if traced:
            spans_path = runner.work / f"{child_tag}.spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_path),
                   f"{tag}/{report.rid}", "--", *report.argv]
        else:
            cmd = [*GMQAOA, *report.argv]
        child = runner.spawn(cmd, child_tag)
        reason = check_report(report, child.returncode, child.out, first.get(report.rid))
        first.setdefault(report.rid, child.out)
        if reason is not None:
            record["failed"] += 1
            tail = child.err.strip().splitlines()[-1:]
            failures.append(f"{tag} {report.rid}: {reason}" + (f" ({tail[0]})" if tail else ""))
        if traced and spans_path.is_file():
            report_spans = json.loads(spans_path.read_text(encoding="utf-8"))
            # interpreter start, imports and exit: the child's life outside main()
            startup = child.wall_s - sum(s["end"] - s["start"] for s in report_spans
                                         if s["parent"] is None)
            spans += report_spans
            spans.append({"id": -1, "parent": None, "report": f"{tag}/{report.rid}", "name": "startup",
                          "layer": "cli.startup", "start": 0.0, "end": startup, "counts": {}})
        record["wall_s"] += child.wall_s
        record["reports"][report.rid] = {"wall_s": child.wall_s, "rss_mib": child.rss_mib,
                                         "exit": child.returncode}
    if traced:
        record["layers"] = derived_layers(layer_totals(spans))
    return record


def report_medians(passes: list[dict], key: str) -> dict:
    """Each report's median of ``key`` over the passes."""
    return {rid: statistics.median(p["reports"][rid][key] for p in passes)
            for rid in passes[0]["reports"]}


def derived_layers(totals: dict) -> dict:
    """Per-layer metrics of one traced pass; layers that did not run read 0."""
    out = {name: float(totals.get(name, 0.0)) for name, _ in PER_LAYER}
    samples = totals.get("simulator.layer_samples", 0)
    if samples:
        out["simulator.layer_sample_us"] = totals["simulator.mc_s"] / samples * 1e6
        out["simulator.bytes_per_layer_sample"] = totals["simulator.layer_sample_bytes"] / samples
    return out


def measure(runner: Runner, reports: list[Report], seconds: float, traced: bool,
            failures: list[str]) -> list[dict]:
    """Passes until ``seconds`` is used up.  Untraced: at least MIN_PASSES
    passes.  Traced: untraced and traced passes alternate, at least one of
    each; the traced pass doubles as the same-seed repeat."""
    cycle = (False, True) if traced else (False,)
    min_cycles = 1 if traced else MIN_PASSES
    first: dict = {}
    passes: list[dict] = []
    start = perf_counter()
    while True:
        for kind in cycle:
            passes.append(run_pass(runner, reports, kind, f"pass{len(passes)}", first, failures))
        cycles = len(passes) // len(cycle)
        elapsed = perf_counter() - start
        per_cycle = elapsed / cycles
        if cycles >= min_cycles and elapsed + per_cycle > seconds:
            break
        if runner.time_left() < 1.5 * per_cycle:
            break
    return passes


# --------------------------------------------------------------------------
# Provenance


def _getconf(name: str):
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return int(done.stdout) if done.returncode == 0 and done.stdout.strip().isdigit() else None


def provenance(root: Path) -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        git_sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


# --------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = perf_counter()

    for needed in ("src/gmqaoa/cli.py", "data/house.graph"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {ROOT} is not a gmqaoa checkout ({needed} is missing)", file=sys.stderr)
            return 2

    work = OUT_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = Inputs(ROOT)
    reports = WORKLOADS[args.workload](inputs, args.seed)
    runner = Runner(ROOT, work, start + RUN_DEADLINE_S)
    failures: list[str] = []
    attempted = failed = 0
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(ROOT), "inputs_sha256": inputs.sha256,
              "reports": [" ".join(r.argv) for r in reports]}

    if args.trace == 0:
        problems = list(dict.fromkeys(r.problem for r in reports))
        setup = []
        for rep in range(SETUP_REPS):
            child = runner.spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), *problems],
                                 f"setup{rep}")
            attempted += 1
            if child.returncode != 0:
                failed += 1
                failures.append(f"setup probe {rep}: exit code {child.returncode}")
            setup.append(child.wall_s)
        detail["setup_s"] = setup

    passes = measure(runner, reports, args.seconds, args.trace == 1, failures)
    attempted += sum(len(p["reports"]) for p in passes)
    failed += sum(p["failed"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    walls = report_medians(untraced, "wall_s")
    mc_layer_samples = sum(r.layer_samples for r in reports)
    if mc_layer_samples:
        detail["layer_samples_per_s"] = {
            "value": mc_layer_samples / sum(walls[r.rid] for r in reports if r.depth),
            "unit": "1/s",
            "n_states": sorted({sum(m for _, m in r.levels) for r in reports if r.depth}),
        }
    detail["failed_frac"] = failed / attempted
    detail["failures"] = failures
    detail["passes"] = passes

    if args.trace == 0:
        values = {
            "wall_s": sum(walls.values()),
            "setup_s": statistics.median(detail["setup_s"]),
            "peak_rss_mb": max(report_medians(untraced, "rss_mib").values()),
        }
        units = dict(END_TO_END)
    else:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name, _ in PER_LAYER}
        values["trace.wall_s"] = sum(report_medians(traced, "wall_s").values())
        values["trace_overhead_s"] = values["trace.wall_s"] - sum(walls.values())
        units = dict(PER_LAYER)

    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
