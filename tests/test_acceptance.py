"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gmqaoa import (
    InitialState,
    build_spectrum,
    commutant_dimension,
    complete_graph,
    cycle_graph,
    decompose_initial_state,
    extract_matrix_units,
    gm_generators,
    grover_mixer_identity_check,
    house_graph,
    invariant_subspace_residual,
    isotypic_split,
    lie_closure,
    maxcut_objective,
    monte_carlo_stats,
    path_graph,
    predict_commutant,
    predict_loss_stats,
    run_circuit,
    uniform_state,
    x_mixer_generator,
)
from gmqaoa.cli import main
from gmqaoa.oracle import traceless_part
from gmqaoa.simulator import ParameterSet
from helpers import (
    bits_of,
    dense_circuit_reference,
    exact_unit,
    naive_cut_value,
    random_graph,
)

DATA = Path(__file__).resolve().parent.parent / "data"

GM_INSTANCES = {
    "P3": (path_graph(3), 10),
    "P4": (path_graph(4), 17),
    "C4": (cycle_graph(4), 10),
    "C6": (cycle_graph(6), 17),
    "K4": (complete_graph(4), 10),
    "house": (house_graph(), 26),
}

X_INSTANCES = {
    "P3": (path_graph(3), 9),
    "P4": (path_graph(4), 16),
    "C4": (cycle_graph(4), 11),
    "C6": (cycle_graph(6), 17),
    "house": (house_graph(), 248),
}


@pytest.fixture(scope="module")
def gm_closures():
    out = {}
    for name, (graph, expected) in GM_INSTANCES.items():
        table = maxcut_objective(graph)
        state = uniform_state(table.n, 2)
        spectrum = build_spectrum(table)
        overlaps = decompose_initial_state(state, spectrum)
        h_p, g_m = gm_generators(table, state)
        start = time.time()
        basis, report = lie_closure([1j * h_p, 1j * g_m])
        elapsed = time.time() - start
        out[name] = {
            "table": table,
            "state": state,
            "spectrum": spectrum,
            "overlaps": overlaps,
            "basis": basis,
            "report": report,
            "expected": expected,
            "elapsed": elapsed,
        }
    return out


def test_criterion_01_gm_closure_dimensions(gm_closures):
    for name, inst in gm_closures.items():
        assert inst["report"].dimension == inst["expected"], name
        assert not inst["report"].hit_cap, name
        assert inst["elapsed"] < 60.0, name
    print(
        "\nA1 gm-closure-dimensions: PASS "
        + " ".join(f"{k}={v['report'].dimension}" for k, v in gm_closures.items())
    )


def test_criterion_02_x_mixer_closure_dimensions():
    start = time.time()
    observed = {}
    for name, (graph, expected) in X_INSTANCES.items():
        table = maxcut_objective(graph)
        h_p = np.diag(table.values.astype(complex))
        generators = [1j * traceless_part(h_p), 1j * x_mixer_generator(table.n)]
        _, report = lie_closure(generators)
        observed[name] = report.dimension
        assert report.dimension == expected, name
    print(
        f"\nA2 x-mixer-closure-dimensions: PASS "
        + " ".join(f"{k}={v}" for k, v in observed.items())
        + f" ({time.time() - start:.1f}s)"
    )


def test_criterion_03_commutant_dimensions(gm_closures):
    start = time.time()
    tol_rank = 1e-8
    # uniform-state instances, formula checked against the numerical solver
    for name in ("P3", "C4", "house"):
        inst = gm_closures[name]
        predicted = predict_commutant(inst["spectrum"], inst["overlaps"]).dim
        observed = commutant_dimension(inst["basis"], tol_rank=tol_rank)
        assert observed == predicted, name

    # the house prediction re-derived from brute-force level counts
    house = gm_closures["house"]
    counts = Counter(
        naive_cut_value(house_graph(), bits_of(x, 5)) for x in range(32)
    )
    assert predict_commutant(house["spectrum"], house["overlaps"]).dim == 1 + sum(
        (m - 1) ** 2 for m in counts.values()
    )

    # computational basis initial state on the 3-vertex path: two of the
    # three levels unsupported
    table = gm_closures["P3"]["table"]
    spectrum = gm_closures["P3"]["spectrum"]
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    state = InitialState(amp)
    overlaps = decompose_initial_state(state, spectrum)
    predicted = predict_commutant(spectrum, overlaps).dim
    assert predicted == 22
    h_p, g_m = gm_generators(table, state)
    basis, _ = lie_closure([1j * h_p, 1j * g_m])
    assert commutant_dimension(basis, tol_rank=tol_rank) == 22
    print(f"\nA3 commutant-dimensions: PASS (P3=12, C4=124, house, basis-P3=22) "
          f"({time.time() - start:.1f}s)")


def test_criterion_04_isotypic_invariance(gm_closures):
    start = time.time()
    bound = 1e-8
    for name, inst in gm_closures.items():
        d = inst["overlaps"].d
        w0, lines = isotypic_split(inst["table"].values, inst["state"].amplitudes)
        assert len(w0) == d, name
        w0_residual = invariant_subspace_residual(inst["basis"], w0)
        assert w0_residual < bound, name
        assert len(lines) == inst["spectrum"].n_states - d
        for line in lines:
            assert invariant_subspace_residual(inst["basis"], [line]) < bound, name
    print(f"\nA4 isotypic-invariance: PASS residuals < {bound:g} "
          f"({time.time() - start:.1f}s)")


def _mc_case(graph, p=32, samples=4096, seed=97):
    table = maxcut_objective(graph)
    state = uniform_state(table.n, 2)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(state, spectrum)
    stats = predict_loss_stats(spectrum, overlaps)
    start = time.time()
    sup = overlaps.supported_levels
    mc = monte_carlo_stats(
        spectrum.values[sup], overlaps.c[sup], p=p, samples=samples, seed=seed
    )
    elapsed = time.time() - start
    assert elapsed < 30.0
    return stats, mc


def test_criterion_05a_monte_carlo_variance():
    results = []
    for name, graph, target in (
        ("P3", path_graph(3), 1 / 6),
        ("P4", path_graph(4), 0.25),
    ):
        stats, mc = _mc_case(graph)
        assert stats.loss_variance == pytest.approx(target)
        assert abs(mc.variance - stats.loss_variance) <= 3.0 * mc.stderr_variance, name
        results.append(f"{name}={mc.variance:.4f}~{target:.4f}")
    print("\nA5a monte-carlo-variance: PASS " + " ".join(results))


def test_criterion_05b_monte_carlo_mean():
    failures = []
    for name, graph, target in (
        # uniform averages of the supported cut values {0,1,2} and {0,1,2,3}
        ("P3", path_graph(3), 1.0),
        ("P4", path_graph(4), 1.5),
    ):
        stats, mc = _mc_case(graph)
        assert stats.expected_loss == pytest.approx(target)
        if abs(mc.mean - stats.expected_loss) > 3.0 * mc.stderr_mean:
            failures.append(
                f"{name}: estimate {mc.mean:.4f} +- {mc.stderr_mean:.4f} vs "
                f"target {target:.4f} (zeta_mean = {stats.zeta_mean:.4f})"
            )
    if failures:
        print("\nA5b monte-carlo-mean: FAIL " + "; ".join(failures))
    else:
        print("\nA5b monte-carlo-mean: PASS")
    assert not failures, (
        "Monte Carlo mean disagrees with the closed-form target mean(zeta) = l1/d, "
        "the twirl of the initial state over the generated group: " + "; ".join(failures)
    )


def test_criterion_06_matrix_unit_extraction():
    start = time.time()
    rng = np.random.default_rng(12345)
    trials = 200
    for trial in range(trials):
        d = int(rng.integers(3, 6))
        lam = np.sort(rng.uniform(-4.0, 4.0, d))[::-1]
        while np.min(-np.diff(lam)) < 1e-3:
            lam = np.sort(rng.uniform(-4.0, 4.0, d))[::-1]
        if abs(lam.sum()) < 0.5:
            lam = lam + 1.0  # keep the trace bounded away from zero
        a = rng.normal(size=(d, d))
        a = 0.5 * (a + a.T)
        units = extract_matrix_units(lam, a, tol=1e-9)
        assert len(units) == d * d - d
        deviation = max(
            float(np.max(np.abs(mat - exact_unit(d, i, j))))
            for (i, j), mat in units.items()
        )
        assert deviation < 1e-9, trial
        _, report = lie_closure(
            [1j * np.diag(lam).astype(complex), 1j * a.astype(complex)]
        )
        assert report.dimension == d * d, trial
    print(f"\nA6 matrix-unit-extraction: PASS {trials} trials "
          f"({time.time() - start:.1f}s)")


def test_criterion_07_mixer_product_identity():
    gaps = [grover_mixer_identity_check(n) for n in range(1, 6)]
    assert all(g < 1e-12 for g in gaps)
    print(f"\nA7 mixer-product-identity: PASS max gap {max(gaps):.2e}")


def test_criterion_08_objective_range_properties():
    start = time.time()
    corpus = (
        [path_graph(n) for n in range(2, 13)]
        + [cycle_graph(n) for n in range(3, 13)]
        + [complete_graph(n) for n in range(2, 11)]
        + [house_graph()]
    )
    rng = np.random.default_rng(8)
    corpus += [random_graph(rng, int(rng.integers(3, 13))) for _ in range(8)]
    for graph in corpus:
        values = maxcut_objective(graph).values
        assert values.min() >= 0 and values.max() <= graph.edge_count
        assert np.all(values == np.round(values))
    for n in range(3, 13):
        spectrum = build_spectrum(maxcut_objective(cycle_graph(n)))
        assert all(v % 2 == 0 for v in spectrum.values.tolist())
        assert spectrum.r == n // 2 + 1
    for n in range(2, 11):
        spectrum = build_spectrum(maxcut_objective(complete_graph(n)))
        assert set(spectrum.values.tolist()) == {s * (n - s) for s in range(n // 2 + 1)}
    print(f"\nA8 objective-range-properties: PASS {len(corpus)} graphs "
          f"({time.time() - start:.1f}s)")


def test_criterion_09_circuit_oracle_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        size = 1 << n
        from gmqaoa import ObjectiveTable

        table = ObjectiveTable(n=n, q=2, values=rng.normal(size=size))
        amp = rng.normal(size=size) + 1j * rng.normal(size=size)
        amp /= np.linalg.norm(amp)
        xi = InitialState(amp)
        p = int(rng.integers(1, 4))
        params = ParameterSet(rng.uniform(0, 2 * np.pi, p), rng.uniform(0, np.pi, p))
        out = run_circuit(xi, table, params)
        ref = dense_circuit_reference(amp, table.values, params.betas, params.gammas)
        worst = max(worst, float(np.max(np.abs(out - ref))))
    assert worst < 1e-10
    print(f"\nA9 circuit-oracle-equivalence: PASS worst amplitude error {worst:.2e}")


def test_criterion_10_simulate_determinism(capsys):
    args = [
        "simulate", "--maxcut", str(DATA / "p3.graph"),
        "--depth", "16", "--samples", "256", "--seed", "31",
    ]
    assert main(list(args)) == 0
    first = capsys.readouterr().out
    assert main(list(args)) == 0
    second = capsys.readouterr().out
    assert main(list(args) + ["--threads", "3"]) == 0
    threaded = capsys.readouterr().out
    assert first == second == threaded
    assert json.loads(first)["monte_carlo"]["seed"] == 31
    print("\nA10 simulate-determinism: PASS byte-identical across runs and thread counts")
