import numpy as np
import pytest

from gmqaoa import (
    InitialState,
    ObjectiveTable,
    ParameterSet,
    apply_grover_mixer,
    apply_phase_layer,
    build_spectrum,
    coloring_objective,
    decompose_initial_state,
    grover_mixer_identity_check,
    house_graph,
    loss,
    maxcut_objective,
    monte_carlo_stats,
    path_graph,
    predict_loss_stats,
    run_circuit,
    uniform_state,
)
from gmqaoa import simulator
from gmqaoa.simulator import _sample_losses, _stream_seed, sample_parameters
from helpers import dense_circuit_reference


def random_state(rng, size):
    amp = rng.normal(size=size) + 1j * rng.normal(size=size)
    return InitialState(amp / np.linalg.norm(amp))


def supported_levels(xi, table):
    """Values and weights of the supported levels, as the CLI passes them."""
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(xi, spectrum)
    sup = overlaps.supported_levels
    return spectrum.values[sup], overlaps.c[sup]


def test_phase_layer_identity_and_global_phase():
    table = maxcut_objective(path_graph(3))
    state = uniform_state(3, 2).amplitudes
    assert np.array_equal(apply_phase_layer(state, table, 0.0), state)

    constant = ObjectiveTable(n=2, q=2, values=[3.0] * 4)
    out = apply_phase_layer(uniform_state(2, 2).amplitudes, constant, 0.7)
    assert np.allclose(out, np.exp(-1j * 0.7 * 3.0) * uniform_state(2, 2).amplitudes)


def test_phase_layer_matches_dense_exponential():
    rng = np.random.default_rng(0)
    table = ObjectiveTable(n=3, q=2, values=rng.normal(size=8))
    state = random_state(rng, 8)
    gamma = 0.9
    out = apply_phase_layer(state.amplitudes, table, gamma)
    ref = dense_circuit_reference(state.amplitudes, table.values, [0.0], [gamma])
    assert np.max(np.abs(out - ref)) < 1e-12


def test_grover_mixer_fixed_points():
    xi = uniform_state(3, 2)
    state = xi.amplitudes
    assert np.array_equal(apply_grover_mixer(state, xi, 0.0), state)
    assert np.allclose(apply_grover_mixer(state, xi, np.pi), -state, atol=1e-15)

    perp = np.zeros(8, dtype=complex)
    perp[0], perp[1] = 1.0, -1.0
    perp /= np.linalg.norm(perp)
    assert np.allclose(apply_grover_mixer(perp, xi, 1.3), perp, atol=1e-15)


def test_parameter_set_validation():
    with pytest.raises(ValueError):
        ParameterSet(betas=[0.0], gammas=[0.0, 0.1])
    with pytest.raises(ValueError):
        ParameterSet(betas=[2 * np.pi], gammas=[0.0])
    with pytest.raises(ValueError):
        ParameterSet(betas=[0.0], gammas=[np.pi])
    params = ParameterSet(betas=[1.0, 2.0], gammas=[0.5, 0.25])
    assert params.depth == 2


def test_run_circuit_depth_zero_returns_initial_state():
    table = maxcut_objective(path_graph(3))
    xi = uniform_state(3, 2)
    out = run_circuit(xi, table, ParameterSet(betas=[], gammas=[]))
    assert np.array_equal(out, xi.amplitudes)


def test_run_circuit_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        table = ObjectiveTable(n=n, q=2, values=rng.normal(size=1 << n))
        xi = random_state(rng, 1 << n)
        p = int(rng.integers(1, 4))
        params = ParameterSet(rng.uniform(0, 2 * np.pi, p), rng.uniform(0, np.pi, p))
        out = run_circuit(xi, table, params)
        ref = dense_circuit_reference(xi.amplitudes, table.values, params.betas, params.gammas)
        assert np.max(np.abs(out - ref)) < 1e-12


def test_unitarity_over_many_layers():
    rng = np.random.default_rng(2)
    for n in (2, 5, 8):
        table = ObjectiveTable(n=n, q=2, values=rng.normal(size=1 << n))
        xi = random_state(rng, 1 << n)
        params = ParameterSet(rng.uniform(0, 2 * np.pi, 100), rng.uniform(0, np.pi, 100))
        out = run_circuit(xi, table, params)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_loss_examples():
    table = maxcut_objective(path_graph(3))
    assert loss(uniform_state(3, 2).amplitudes, table) == pytest.approx(1.0)

    best = np.zeros(8, dtype=complex)
    best[int(np.argmax(table.values))] = 1.0
    assert loss(best, table) == pytest.approx(table.values.max())

    rng = np.random.default_rng(3)
    state = random_state(rng, 8).amplitudes
    value = loss(state, table)
    assert table.values.min() - 1e-12 <= value <= table.values.max() + 1e-12
    assert loss(np.exp(0.4j) * state, table) == pytest.approx(value, abs=1e-12)


def test_stream_seed_splitmix_vectors():
    # published SplitMix64 outputs for initial state 0
    assert _stream_seed(0, 0) == 0xE220A8397B1DCDAF
    assert _stream_seed(0, 1) == 0x6E789E6AA1B965F4
    assert _stream_seed(0, 2) == 0x06C45D188009454F


def test_monte_carlo_constant_objective():
    table = ObjectiveTable(n=2, q=2, values=[2.5] * 4)
    values, weights = supported_levels(uniform_state(2, 2), table)
    report = monte_carlo_stats(values, weights, p=4, samples=16, seed=1)
    # every sample returns the constant up to the last ulp of the layer products
    assert report.mean == pytest.approx(2.5, abs=1e-14)
    assert report.variance <= 1e-30


def test_monte_carlo_determinism():
    levels = supported_levels(uniform_state(3, 2), maxcut_objective(path_graph(3)))
    a = monte_carlo_stats(*levels, p=4, samples=64, seed=42)
    b = monte_carlo_stats(*levels, p=4, samples=64, seed=42)
    assert a == b
    d = monte_carlo_stats(*levels, p=4, samples=64, seed=43)
    assert a != d


def _unsupported_level_case():
    # |000> and |010> cut 0 and 2 edges of P3; the level with cut 1 gets no weight
    amp = np.zeros(8, dtype=complex)
    amp[0b000], amp[0b010] = 0.6, 0.8j
    return maxcut_objective(path_graph(3)), InitialState(amp)


@pytest.mark.parametrize(
    "build, d",
    [
        (lambda: (maxcut_objective(house_graph()), uniform_state(5, 2)), 5),
        (lambda: (coloring_objective(path_graph(4), 3), uniform_state(4, 3)), 4),
        (lambda: (maxcut_objective(house_graph()), random_state(np.random.default_rng(4), 32)), 5),
        (_unsupported_level_case, 2),
    ],
    ids=["maxcut-uniform", "coloring-q3", "complex-random", "unsupported-level"],
)
def test_reduced_losses_match_dense_oracle(build, d):
    table, xi = build()
    values, weights = supported_levels(xi, table)
    assert len(values) == len(weights) == d
    p, samples, seed = 6, 40, 123
    reduced = _sample_losses(values, weights, p, samples, seed)
    dense = [
        loss(run_circuit(xi, table, sample_parameters(
            p, np.random.Generator(np.random.PCG64(_stream_seed(seed, i)))
        )), table)
        for i in range(samples)
    ]
    assert np.max(np.abs(reduced - dense)) <= 1e-12


def test_sample_losses_do_not_depend_on_the_block_split(monkeypatch):
    levels = supported_levels(uniform_state(5, 2), maxcut_objective(house_graph()))
    whole = _sample_losses(*levels, 5, 50, 8)
    # five levels, so blocks of 3 rows: 16 full blocks and a 2-row tail
    monkeypatch.setattr(simulator, "_BLOCK_ENTRIES", 17)
    assert np.array_equal(_sample_losses(*levels, 5, 50, 8), whole)


def test_monte_carlo_size_mismatch():
    # the state/table size check is decompose_initial_state's; these are the level arrays'
    for values, weights in (([2.0, 1.0], [0.6]), ([], []), ([[2.0]], [[1.0]])):
        with pytest.raises(ValueError, match="parallel non-empty 1-d arrays"):
            monte_carlo_stats(values, weights, p=2, samples=8, seed=0)


def test_monte_carlo_refuses_out_of_range_levels():
    # unnormalized weights gave a mean of 66.46 outside the values' range [0, 1],
    # a NaN an all-NaN report, and 1e200 an infinite variance
    with pytest.raises(ValueError, match="sum"):
        monte_carlo_stats([1.0, 0.0], [1.0, 1.0], p=2, samples=8, seed=0)
    for bad in (np.nan, np.inf, 1e200):
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_stats([bad, 0.0], [0.6, 0.8], p=2, samples=8, seed=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sum"):
            monte_carlo_stats([1.0, 0.0], [bad, 0.8], p=2, samples=8, seed=0)


def test_monte_carlo_validation():
    levels = supported_levels(uniform_state(3, 2), maxcut_objective(path_graph(3)))
    with pytest.raises(ValueError):
        monte_carlo_stats(*levels, p=4, samples=1, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_stats(*levels, p=0, samples=8, seed=0)


def test_depth_sweep_converges_to_analytic_variance():
    table = maxcut_objective(path_graph(3))
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(uniform_state(3, 2), spectrum)
    target = predict_loss_stats(spectrum, overlaps).loss_variance
    sup = overlaps.supported_levels
    shallow, deep = (
        monte_carlo_stats(spectrum.values[sup], overlaps.c[sup], p=p, samples=2048, seed=19)
        for p in (1, 32)
    )
    # a single layer cannot equidistribute; the gap is far outside noise
    assert abs(shallow.variance - target) > 3.0 * shallow.stderr_variance
    assert abs(deep.variance - target) <= 3.0 * deep.stderr_variance


def test_grover_mixer_identity_small():
    for n in (1, 2, 3):
        assert grover_mixer_identity_check(n) < 1e-12
