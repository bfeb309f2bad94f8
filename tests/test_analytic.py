import numpy as np
import pytest

from gmqaoa.analytic import predict_commutant, predict_dla, predict_loss_stats
from gmqaoa.core import (
    InitialState,
    ObjectiveTable,
    build_spectrum,
    decompose_initial_state,
    uniform_state,
)
from gmqaoa.oracle import level_span_generators
from gmqaoa.problems import complete_graph, cycle_graph, house_graph, maxcut_objective, path_graph
from helpers import random_graph, twirled_mean_loss
from oracles import loss, run_circuit, sample_parameters


def uniform_setup(table):
    spectrum = build_spectrum(table)
    state = uniform_state(table.n, table.q)
    overlaps = decompose_initial_state(state, spectrum)
    return spectrum, overlaps


def restricted_pair(table):
    """(diag lambda_sup, -c c^T) for the uniform state: the leading d x d
    block of the level-span generators, divided by 1j."""
    amps = uniform_state(table.n, table.q).amplitudes
    h_span, g_span = level_span_generators(table.values, amps)
    d = h_span.shape[0] - 1
    return (h_span[:d, :d] / 1j).real, (g_span[:d, :d] / 1j).real


def test_restricted_generators_p3():
    table = maxcut_objective(path_graph(3))
    _, overlaps = uniform_setup(table)
    h_p0, g_m0 = restricted_pair(table)
    assert np.allclose(np.diag(h_p0), [2.0, 1.0, 0.0])
    assert g_m0[0, 1] == pytest.approx(-np.sqrt(8) / 8)
    assert np.trace(g_m0) == pytest.approx(-1.0, abs=1e-12)
    # rank-one outer product of the coefficient vector
    c = overlaps.c[overlaps.supported_levels]
    assert np.allclose(g_m0, -np.outer(c, c))


def test_restricted_generators_single_level():
    g_m0 = restricted_pair(ObjectiveTable(n=1, q=2, values=[3.0, 3.0]))[1]
    assert g_m0.shape == (1, 1)
    assert g_m0[0, 0] == pytest.approx(-1.0)


def test_predict_dla_house():
    spectrum, overlaps = uniform_setup(maxcut_objective(house_graph()))
    prediction = predict_dla(spectrum, overlaps)
    assert overlaps.d == 5
    assert prediction.dim == 26
    assert prediction.center_dim == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_predict_dla_paths(n):
    spectrum, overlaps = uniform_setup(maxcut_objective(path_graph(n)))
    assert predict_dla(spectrum, overlaps).dim == n**2 + 1


def test_predict_dla_sum_zero_branch():
    spectrum = build_spectrum(ObjectiveTable(n=1, q=2, values=[0.0, 1.0]))
    state = InitialState(np.array([1.0, -1.0]) / np.sqrt(2))
    overlaps = decompose_initial_state(state, spectrum)
    prediction = predict_dla(spectrum, overlaps)
    assert prediction.dim == 4
    assert prediction.center_dim == 1
    assert prediction.algebra == "su_2 + u_1"


def test_predict_dla_degenerate_span():
    # basis state sitting in the zero level of the 3-vertex path still sees
    # a nonzero problem Hamiltonian elsewhere: span dimension 2
    table = maxcut_objective(path_graph(3))
    spectrum = build_spectrum(table)
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    overlaps = decompose_initial_state(InitialState(amp), spectrum)
    prediction = predict_dla(spectrum, overlaps)
    assert overlaps.d == 1
    assert prediction.dim == 2

    # marked-string indicator with the marked basis state: the two
    # generators are proportional, so the span collapses to one dimension
    marked = ObjectiveTable(n=2, q=2, values=[1.0, 0.0, 0.0, 0.0])
    spectrum2 = build_spectrum(marked)
    amp2 = np.zeros(4, dtype=complex)
    amp2[0] = 1.0
    overlaps2 = decompose_initial_state(InitialState(amp2), spectrum2)
    prediction2 = predict_dla(spectrum2, overlaps2)
    assert overlaps2.d == 1
    assert prediction2.dim == 1


def test_predict_commutant_examples():
    spectrum, overlaps = uniform_setup(maxcut_objective(path_graph(3)))
    assert predict_commutant(spectrum, overlaps) == 12

    spectrum1 = build_spectrum(ObjectiveTable(n=1, q=2, values=[0.0, 1.0]))
    overlaps1 = decompose_initial_state(uniform_state(1, 2), spectrum1)
    assert predict_commutant(spectrum1, overlaps1) == 1

    table = maxcut_objective(path_graph(3))
    spectrum3 = build_spectrum(table)
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    overlaps3 = decompose_initial_state(InitialState(amp), spectrum3)
    assert predict_commutant(spectrum3, overlaps3) == 22


def test_commutant_never_exceeds_block_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 9)))
        spectrum, overlaps = uniform_setup(maxcut_objective(g))
        bound = int(np.sum(spectrum.multiplicities**2))
        assert 1 <= predict_commutant(spectrum, overlaps) <= bound


def test_loss_stats_p4():
    spectrum, overlaps = uniform_setup(maxcut_objective(path_graph(4)))
    stats = predict_loss_stats(spectrum, overlaps)
    assert stats.zeta_var == pytest.approx(1.25)
    assert stats.loss_variance == pytest.approx(0.25)
    assert stats.expected_loss == pytest.approx(1.5)
    assert stats.zeta_mean == pytest.approx(1.5)


def test_loss_stats_p3():
    spectrum, overlaps = uniform_setup(maxcut_objective(path_graph(3)))
    stats = predict_loss_stats(spectrum, overlaps)
    assert stats.loss_variance == pytest.approx(1 / 6)
    assert stats.expected_loss == pytest.approx(1.0)


def test_loss_stats_constant_objective():
    spectrum, overlaps = uniform_setup(ObjectiveTable(n=2, q=2, values=[4.0] * 4))
    stats = predict_loss_stats(spectrum, overlaps)
    assert stats.zeta_var == 0.0
    assert stats.loss_variance == 0.0
    assert stats.zeta_mean == 4.0


def test_loss_stats_identities_on_random_spectra():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        lam = np.sort(rng.normal(size=d) * 3)[::-1]
        while d > 1 and np.min(-np.diff(lam)) < 1e-6:
            lam = np.sort(rng.normal(size=d) * 3)[::-1]
        values = np.repeat(lam, 2)
        table = ObjectiveTable(n=1, q=2 * d, values=values)
        spectrum, overlaps = uniform_setup(table)
        stats = predict_loss_stats(spectrum, overlaps)
        # projection-norm identity against the pairwise-difference form
        pair = sum(
            (lam[i] - lam[j]) ** 2 for i in range(d) for j in range(i + 1, d)
        ) / max(d, 1)
        assert stats.p_su_hp == pytest.approx(pair, abs=1e-9)
        assert stats.p_su_hp == pytest.approx(d * stats.zeta_var, abs=1e-9)
        assert stats.loss_variance == stats.zeta_var / (d + 1)


@pytest.mark.parametrize(
    "graph",
    [path_graph(3), path_graph(4), cycle_graph(4), complete_graph(4), house_graph()],
    ids=["p3", "p4", "c4", "k4", "house"],
)
def test_expected_loss_matches_commutant_twirl(graph):
    table = maxcut_objective(graph)
    spectrum, overlaps = uniform_setup(table)
    exact, commutant_dim = twirled_mean_loss(table, uniform_state(table.n, table.q))
    # the null space the twirl projects onto has the predicted dimension
    assert commutant_dim == predict_commutant(spectrum, overlaps)
    stats = predict_loss_stats(spectrum, overlaps)
    assert stats.expected_loss == pytest.approx(exact, abs=1e-9)


def test_loss_stats_shift_covariance():
    # F -> F + c only adds a global phase to the phase layer, so every
    # loss, and hence the mean, moves by exactly c; the variance does not.
    table = maxcut_objective(house_graph())
    c = 7.0
    shifted = ObjectiveTable(n=table.n, q=table.q, values=table.values + c)
    stats = predict_loss_stats(*uniform_setup(table))
    stats_shifted = predict_loss_stats(*uniform_setup(shifted))
    assert stats_shifted.expected_loss == pytest.approx(stats.expected_loss + c, abs=1e-12)
    assert stats_shifted.loss_variance == pytest.approx(stats.loss_variance, abs=1e-12)

    xi = uniform_state(table.n, table.q)
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = sample_parameters(8, rng)
        base = loss(run_circuit(xi, table, params), table)
        moved = loss(run_circuit(xi, shifted, params), shifted)
        assert moved == pytest.approx(base + c, abs=1e-9)


def test_loss_stats_mean_for_one_dimensional_center():
    table = ObjectiveTable(n=1, q=2, values=[0.0, 1.0])
    spectrum = build_spectrum(table)
    state = InitialState(np.array([1.0, -1.0]) / np.sqrt(2))
    overlaps = decompose_initial_state(state, spectrum)
    stats = predict_loss_stats(spectrum, overlaps)
    assert predict_dla(spectrum, overlaps).center_dim == 1
    assert stats.expected_loss == 0.5
    assert twirled_mean_loss(table, state)[0] == pytest.approx(0.5, abs=1e-12)
    assert stats.loss_variance > 0


def test_dla_dim_formula_for_uniform_states():
    rng = np.random.default_rng(29)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(2, 9)))
        spectrum, overlaps = uniform_setup(maxcut_objective(g))
        assert predict_dla(spectrum, overlaps).dim == overlaps.d**2 + 1


def test_barren_plateau_bound_for_maxcut():
    rng = np.random.default_rng(31)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(2, 10)))
        spectrum, overlaps = uniform_setup(maxcut_objective(g))
        stats = predict_loss_stats(spectrum, overlaps)
        # the paper's range bound m T + 1 for a sum of T terms valued in
        # 0..m; MaxCut has T = |E| edge terms and m = 1
        bound = len(g.edges) + 1
        floor = stats.zeta_var / (bound + 1)
        assert stats.loss_variance >= floor > 0

