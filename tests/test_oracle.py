from pathlib import Path

import numpy as np
import pytest

from gmqaoa import (
    AmbiguousSelectorError,
    FrameConditionError,
    InitialState,
    ObjectiveTable,
    OracleCapError,
    build_spectrum,
    cnf_objective,
    coloring_objective,
    commutant_dimension,
    decompose_initial_state,
    extract_matrix_units,
    frame_condition,
    gm_generators,
    grover_commutant_dimension,
    house_graph,
    invariant_subspace_residual,
    isotypic_split,
    lie_closure,
    maxcut_objective,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    path_graph,
    predict_commutant,
    predict_dla,
    predict_loss_stats,
    restricted_generators,
    uniform_state,
    x_mixer_generator,
)
from gmqaoa.oracle import TOL_INDEP, _packed_commutators, traceless_part
from helpers import exact_unit, level_state, reference_lie_closure, twirled_mean_loss

DATA = Path(__file__).resolve().parent.parent / "data"


def p3_setup():
    table = maxcut_objective(path_graph(3))
    state = uniform_state(3, 2)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(state, spectrum)
    return table, state, spectrum, overlaps


def test_gm_generators_examples():
    table = ObjectiveTable(n=1, q=2, values=[0.0, 1.0])
    state = uniform_state(1, 2)
    h_p, g_m = gm_generators(table, state)
    assert np.allclose(np.diag(h_p), table.values)
    assert np.allclose(g_m, -0.5 * np.ones((2, 2)))
    eigs = np.sort(np.linalg.eigvalsh(g_m))
    assert np.allclose(eigs, [-1.0, 0.0], atol=1e-12)


def test_gm_generators_cap():
    table = ObjectiveTable(n=7, q=2, values=np.zeros(128))
    with pytest.raises(OracleCapError):
        gm_generators(table, uniform_state(7, 2))


def test_x_mixer_generator_cap():
    # refused before the 2**n x 2**n matrix is allocated
    with pytest.raises(OracleCapError, match="got 128"):
        x_mixer_generator(7)
    with pytest.raises(OracleCapError):
        x_mixer_generator(40)


def test_x_mixer_generator():
    assert np.allclose(x_mixer_generator(1), [[0, 1], [1, 0]])
    b = x_mixer_generator(2)
    for idx in range(4):
        coupled = sorted(np.flatnonzero(np.abs(b[idx]) > 0).tolist())
        assert coupled == sorted({idx ^ 1, idx ^ 2})
    assert np.trace(b) == 0


def test_traceless_part():
    h = np.diag([2.0, 1.0, 0.0, 1.0]).astype(complex)
    t = traceless_part(h)
    assert abs(np.trace(t)) < 1e-14
    assert np.allclose(t + np.trace(h) / 4 * np.eye(4), h)


def test_lie_closure_single_generator():
    gen = 1j * np.diag([1.0, -1.0]).astype(complex)
    basis, report = lie_closure([gen])
    assert report.dimension == 1
    basis2, report2 = lie_closure([gen, gen])
    assert report2.dimension == 1


def test_lie_closure_rejects_non_skew_input():
    with pytest.raises(ValueError, match="skew-Hermitian"):
        lie_closure([np.eye(2, dtype=complex)])
    # NaN passes the skew check: max(|g + g^dag|) > tol is false for NaN
    with pytest.raises(ValueError, match="finite"):
        lie_closure([np.array([[1j, np.nan], [np.nan, -1j]])])
    with pytest.raises(ValueError, match="finite"):
        lie_closure([np.array([[np.inf * 1j, 0], [0, 0]])])


def test_lie_closure_p4_gm():
    table = maxcut_objective(path_graph(4))
    state = uniform_state(4, 2)
    h_p, g_m = gm_generators(table, state)
    _, report = lie_closure([1j * h_p, 1j * g_m])
    assert report.dimension == 17
    assert not report.hit_cap


def test_lie_closure_dim_cap_flagged():
    rng = np.random.default_rng(1)
    gens = []
    for _ in range(2):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gens.append(0.5 * (m - m.conj().T))
    _, report = lie_closure(gens, dim_cap=3)
    assert report.hit_cap
    assert report.dimension == 3


def random_skew(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m - m.conj().T)


def test_lie_closure_never_exceeds_dim_cap():
    rng = np.random.default_rng(1)
    gens = [random_skew(rng, 4) for _ in range(2)]
    basis, report = lie_closure(gens, dim_cap=1)
    assert basis.shape == (1, 4, 4)
    assert report.dimension == 1
    assert report.hit_cap
    assert report.rounds == 0
    for bad in (0, -3):
        with pytest.raises(ValueError, match="dim_cap"):
            lie_closure(gens, dim_cap=bad)


def test_lie_closure_is_bounded_by_full_algebra():
    # with a tiny tol_indep round-off residuals count as new directions,
    # but skew-Hermitian 3 x 3 matrices span only 9 real dimensions
    rng = np.random.default_rng(4)
    gens = [random_skew(rng, 3) for _ in range(2)]
    basis, report = lie_closure(gens, tol_indep=1e-300)
    assert basis.shape == (9, 3, 3)
    assert report.dimension == 9
    assert not report.hit_cap
    # reaching u(N) is exact even when the cap equals N**2
    _, at_cap = lie_closure(gens, dim_cap=9)
    assert at_cap.dimension == 9
    assert not at_cap.hit_cap


def test_lie_closure_monotone_in_generators():
    rng = np.random.default_rng(2)
    mats = []
    for _ in range(3):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mats.append(0.5 * (m - m.conj().T))
    _, two = lie_closure(mats[:2])
    _, three = lie_closure(mats)
    assert three.dimension >= two.dimension


def test_closure_basis_is_orthonormal_and_contains_generators():
    table, state, _, _ = p3_setup()
    h_p, g_m = gm_generators(table, state)
    generators = [1j * h_p, 1j * g_m]
    basis, report = lie_closure(generators)
    vecs = basis.reshape(len(basis), -1)
    gram = (vecs.conj() @ vecs.T).real
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12
    assert np.max(np.abs(basis + basis.conj().transpose(0, 2, 1))) < 1e-12
    for gen in generators:
        v = gen.ravel() / np.linalg.norm(gen)
        coeffs = (vecs.conj() @ v).real
        assert np.linalg.norm(v - coeffs @ vecs) < 1e-9


def test_commutant_dimension_examples():
    assert commutant_dimension([1j * np.eye(3, dtype=complex)]) == 9

    table, state, _, _ = p3_setup()
    h_p, g_m = gm_generators(table, state)
    generators = [1j * h_p, 1j * g_m]
    basis, _ = lie_closure(generators)
    assert commutant_dimension(basis) == 12
    # commuting with the closure is the same as commuting with its generators
    assert commutant_dimension(generators) == 12

    two_valued = ObjectiveTable(n=1, q=2, values=[0.0, 1.0])
    h1, g1 = gm_generators(two_valued, uniform_state(1, 2))
    basis1, _ = lie_closure([1j * h1, 1j * g1])
    assert commutant_dimension(basis1) == 1


def test_commutant_cap():
    with pytest.raises(OracleCapError):
        commutant_dimension([1j * np.eye(65, dtype=complex)])


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_lie_closure_refuses_bad_tol_indep(tol):
    # at 0 or below round-off counts as new directions; nan accepts every
    # candidate and inf discards every one
    rng = np.random.default_rng(4)
    gens = [random_skew(rng, 3) for _ in range(2)]
    with pytest.raises(ValueError, match="tol_indep"):
        lie_closure(gens, tol_indep=tol)


def test_packed_commutators_are_an_isometry():
    rng = np.random.default_rng(5)
    n = 6
    for _ in range(5):
        a, b, f = (random_skew(rng, n) for _ in range(3))
        # a skew-Hermitian C packs as Re C + Im C, with dot product Re tr(A^dag B)
        assert np.sum((a.real + a.imag) * (b.real + b.imag)) == pytest.approx(
            np.trace(a.conj().T @ b).real, abs=1e-12
        )
        # [f, B] = Y^dag - Y with Y = B f, packed without forming it
        y = b @ f
        comm = f @ b - b @ f
        assert np.max(np.abs((y.conj().T - y) - comm)) < 1e-14
        packed = _packed_commutators(y[None], np.empty((1, n, n)), np.empty((1, n, n)))
        assert np.max(np.abs(packed[0] - (comm.real + comm.imag))) < 1e-14


def bundled_table(name):
    if name == "triangle-q3":
        return coloring_objective(parse_graph((DATA / "triangle.graph").read_text()), 3)
    text = (DATA / name).read_text()
    if name.endswith(".cnf"):
        return cnf_objective(parse_cnf(text))
    if name.endswith(".json"):
        return parse_custom_table(text)
    return maxcut_objective(parse_graph(text))


#: The bundled instances with N <= 32.
BUNDLED_N32 = [
    "p3.graph", "p4.graph", "c4.graph", "k4.graph", "triangle.graph", "house.graph",
    "example.cnf", "identity_n1.json", "triangle-q3",
]


def uniform_generators(name, mixer):
    """Closure generators of a bundled instance under the uniform state."""
    table = bundled_table(name)
    h_p, g_m = gm_generators(table, uniform_state(table.n, table.q))
    if mixer == "x":
        return [1j * traceless_part(h_p), 1j * x_mixer_generator(table.n)]
    return [1j * h_p, 1j * g_m]


def faint_p3_state(eps):
    """p3 state with its cut-0 level (000 and 111) at norm eps, the rest uniform."""
    values = bundled_table("p3.graph").values
    low = values == values.min()
    return InitialState(
        np.where(low, eps / np.sqrt(low.sum()), np.sqrt((1 - eps**2) / (~low).sum()))
    )


def faint_p3_generators(eps):
    h_p, g_m = gm_generators(bundled_table("p3.graph"), faint_p3_state(eps))
    return [1j * h_p, 1j * g_m]


def grover_test_states(table, seed):
    """Uniform, random complex, and random complex with the top level zeroed."""
    rng = np.random.default_rng(seed)
    size = table.size
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    zeroed = np.where(table.values == table.values.max(), 0.0, amps)
    return [
        uniform_state(table.n, table.q),
        InitialState(amps / np.linalg.norm(amps)),
        InitialState(zeroed / np.linalg.norm(zeroed)),
    ]


def random_grover_generators(name, seed):
    """Closure generators of a bundled instance under a seeded random complex state."""
    table = bundled_table(name)
    h_p, g_m = gm_generators(table, grover_test_states(table, seed)[1])
    return [1j * h_p, 1j * g_m]


REFERENCE_CASES = (
    [pytest.param(uniform_generators(name, "grover"), {}, id=f"{name}-grover") for name in BUNDLED_N32]
    + [
        pytest.param(uniform_generators(name, "x"), {}, id=f"{name}-x")
        for name in BUNDLED_N32
        if bundled_table(name).q == 2
    ]
    # accepted residuals within a decade of tol_indep at 1e-4; at 3e-5 and
    # 3e-6 the largest discarded residual (9.9e-10, 9.6e-10) is at tol_indep
    + [
        pytest.param(faint_p3_generators(eps), {}, id=f"p3-faint-{eps:g}")
        for eps in (1e-5, 1e-4, 3e-5, 3e-6)
    ]
    + [
        pytest.param(random_grover_generators(name, seed=7), {}, id=f"{name}-grover-random")
        for name in ("house.graph", "c6.graph")
    ]
    # caps that stop the closure inside a screened block
    + [
        pytest.param(uniform_generators("house.graph", "x"), {"dim_cap": cap}, id=f"house-x-cap{cap}")
        for cap in (1, 2, 100, 129, 247)
    ]
)


@pytest.mark.parametrize("generators, kwargs", REFERENCE_CASES)
def test_lie_closure_matches_reference(generators, kwargs):
    # the block screen only skips candidates the per-candidate test would
    # discard, so every accepted element is the same, bit for bit
    basis, report = lie_closure(generators, **kwargs)
    ref_basis, ref = reference_lie_closure(generators, **kwargs)
    assert np.array_equal(basis, ref_basis)
    assert report.dimension == ref.dimension
    assert report.rounds == ref.rounds
    assert report.hit_cap == ref.hit_cap
    assert report.min_residual_accepted == ref.min_residual_accepted
    assert report.max_residual_discarded <= TOL_INDEP


@pytest.mark.parametrize(
    "name, mixer, candidates",
    [("house.graph", "x", 30628), ("house.graph", "grover", 325), ("c6.graph", "grover", 136)],
)
def test_closure_screens_each_pair_once(name, mixer, candidates):
    # a closure that ends on an empty round has commuted every unordered
    # pair of its elements exactly once
    _, report = lie_closure(uniform_generators(name, mixer))
    dim = report.dimension
    assert not report.hit_cap and dim < bundled_table(name).size ** 2
    assert report.candidates == dim * (dim - 1) // 2 == candidates


@pytest.mark.parametrize("name", BUNDLED_N32)
def test_closure_margin_spans_six_decades(name):
    mixers = ["grover", "x"] if bundled_table(name).q == 2 else ["grover"]
    for mixer in mixers:
        _, report = lie_closure(uniform_generators(name, mixer))
        assert report.min_residual_accepted is not None
        assert report.max_residual_discarded <= 1e-6 * report.min_residual_accepted


def test_closure_reports_faint_level_fragility():
    # the predicted algebra is su_3 + u_1 (10); the accepted residuals sit
    # within a decade of tol_indep, which the report shows
    spectrum = build_spectrum(bundled_table("p3.graph"))
    overlaps = decompose_initial_state(faint_p3_state(1e-4), spectrum)
    assert predict_dla(spectrum, overlaps).dim == 10
    _, report = lie_closure(faint_p3_generators(1e-4))
    assert report.min_residual_accepted < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="a faint supported level lets round-off residuals above tol_indep in as new directions",
)
def test_closure_of_faint_level_matches_prediction():
    _, report = lie_closure(faint_p3_generators(1e-4))
    assert report.dimension == 10


@pytest.mark.parametrize("name", BUNDLED_N32)
def test_grover_commutant_matches_dense_solver(name):
    table = bundled_table(name)
    assert table.size <= 32
    for state in grover_test_states(table, seed=sum(map(ord, name))):
        h_p, g_m = gm_generators(table, state)
        report = grover_commutant_dimension(table.values, state.amplitudes)
        assert report.dimension == commutant_dimension([1j * h_p, 1j * g_m])
        # the gap around tol_rank spans ten decades on every instance
        assert report.max_null < 1e-13
        assert report.min_nonnull is None or report.min_nonnull > 1e-3


def test_grover_commutant_of_c6_matches_prediction():
    table = bundled_table("c6.graph")
    state = uniform_state(table.n, table.q)
    spectrum = build_spectrum(table)
    predicted = predict_commutant(spectrum, decompose_initial_state(state, spectrum)).dim
    assert predicted == 1685
    assert grover_commutant_dimension(table.values, state.amplitudes).dimension == predicted


def test_grover_commutant_of_faint_level():
    # one supported level of norm 1e-5: its constraints must still count,
    # though they enter the unscaled equations at 1e-10
    table = bundled_table("p3.graph")
    low = table.values == table.values.min()
    amps = np.where(low, 1e-5 / np.sqrt(low.sum()), np.sqrt((1 - 1e-10) / (~low).sum()))
    state = InitialState(amps)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(state, spectrum)
    assert len(overlaps.supported_levels) == spectrum.r
    h_p, g_m = gm_generators(table, state)
    basis, closure = lie_closure([1j * h_p, 1j * g_m])
    assert not closure.hit_cap
    report = grover_commutant_dimension(table.values, amps)
    assert report.dimension == predict_commutant(spectrum, overlaps).dim == 12
    assert report.dimension == commutant_dimension(basis)
    assert report.max_null < 1e-13 and report.min_nonnull > 1e-3
    # two levels, the second of norm 1e-5: only multiples of I commute
    assert grover_commutant_dimension([0.0, 1.0], [np.sqrt(1 - 1e-10), 1e-5]).dimension == 1


def test_grover_commutant_is_flat_across_tol_rank():
    table = bundled_table("house.graph")
    amps = uniform_state(table.n, table.q).amplitudes
    dims = {
        grover_commutant_dimension(table.values, amps, tol_rank=tol).dimension
        for tol in np.logspace(-13, -3, 11)
    }
    assert dims == {206}


def test_grover_commutant_margin_sides():
    # a basis state on one of two levels: every Gram eigenvalue is null
    report = grover_commutant_dimension([0.0, 1.0], [1.0, 0.0])
    assert report.dimension == 2
    assert report.min_nonnull is None
    assert report.max_null < 1e-13


def test_grover_commutant_rejects_bad_inputs():
    with pytest.raises(ValueError, match="one length"):
        grover_commutant_dimension([0.0, 1.0, 2.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="one length"):
        grover_commutant_dimension([], [])
    with pytest.raises(OracleCapError):
        grover_commutant_dimension(np.zeros(65), np.full(65, 65**-0.5))
    with pytest.raises(ValueError, match="finite"):
        grover_commutant_dimension([0.0, np.nan], [1.0, 0.0])
    with pytest.raises(ValueError, match="nonzero norm"):
        grover_commutant_dimension([0.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, -np.inf])
def test_commutant_solvers_refuse_bad_tol_rank(tol):
    # -1 counts no eigenvalue as null and inf every one; nan misreads the rank either way;
    # at 0 round-off picks the null eigenvalues, and zero padding would count toward the rank
    amps = np.full(4, 0.5)
    with pytest.raises(ValueError, match="tol_rank"):
        grover_commutant_dimension([0.0, 1.0, 1.0, 2.0], amps, tol_rank=tol)
    with pytest.raises(ValueError, match="tol_rank"):
        commutant_dimension([1j * np.diag([0.0, 1.0, 1.0, 2.0])], tol_rank=tol)


def test_invariant_subspace_residual():
    table, state, spectrum, overlaps = p3_setup()
    h_p, g_m = gm_generators(table, state)
    basis, _ = lie_closure([1j * h_p, 1j * g_m])

    full = [np.eye(8, dtype=complex)[:, k] for k in range(8)]
    assert invariant_subspace_residual(basis, full) == 0.0

    w0, _ = isotypic_split(table.values, state.amplitudes)
    assert invariant_subspace_residual(basis, w0) < 1e-9

    rng = np.random.default_rng(3)
    line = rng.normal(size=8) + 1j * rng.normal(size=8)
    line /= np.linalg.norm(line)
    assert invariant_subspace_residual(basis, [line]) > 0.1

    with pytest.raises(ValueError, match="orthonormal"):
        invariant_subspace_residual(basis, [full[0], full[0]])


def test_oracles_accept_matrix_lists_and_refuse_empty_bases():
    table, state, _, _ = p3_setup()
    h_p, g_m = gm_generators(table, state)
    basis, _ = lie_closure([1j * h_p, 1j * g_m])
    w0, _ = isotypic_split(table.values, state.amplitudes)
    assert invariant_subspace_residual(list(basis), w0) == invariant_subspace_residual(basis, w0)
    with pytest.raises(ValueError, match="at least one basis element"):
        invariant_subspace_residual([], w0)
    with pytest.raises(ValueError, match="at least one basis element"):
        commutant_dimension([])


def test_frame_condition():
    c = np.array([0.5, np.sqrt(0.5), 0.5])
    assert frame_condition(-np.outer(c, c))
    bad = np.ones((3, 3))
    bad[0, 1] = 0.0
    assert not frame_condition(bad)
    assert frame_condition(np.zeros((2, 2)))  # vacuous for 2 x 2


def test_extract_units_two_by_two():
    units = extract_matrix_units([1.0, 0.0], np.ones((2, 2)))
    assert np.allclose(units[(0, 1)], exact_unit(2, 0, 1))
    assert np.allclose(units[(1, 0)], exact_unit(2, 1, 0))


def test_extract_units_random_d3():
    rng = np.random.default_rng(4)
    lam = np.array([2.7, 0.9, -1.3])
    a = rng.normal(size=(3, 3))
    units = extract_matrix_units(lam, a)
    assert len(units) == 6
    for (i, j), mat in units.items():
        assert np.max(np.abs(mat - exact_unit(3, i, j))) < 1e-10


def test_extract_units_commutation_relations():
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(-2, 2, 4))[::-1]
    a = rng.normal(size=(4, 4))
    units = extract_matrix_units(lam, a)
    d = 4
    for (i, j), e_ij in units.items():
        for (k, l), e_kl in units.items():
            bracket = e_ij @ e_kl - e_kl @ e_ij
            expected = np.zeros((d, d), dtype=complex)
            if j == k:
                expected += exact_unit(d, i, l)
            if l == i:
                expected -= exact_unit(d, k, j)
            assert np.max(np.abs(bracket - expected)) < 1e-9


def test_extract_units_beyond_int64_range():
    # differences above 2**63 do not fit an int64 key; the 1e-9 mask must
    # still select each one alone, with no cast warning
    lam = np.array([3e19, 1e19, 0.0])
    units = extract_matrix_units(lam, np.ones((3, 3)) - np.eye(3))
    assert len(units) == 6
    for (i, j), mat in units.items():
        assert np.max(np.abs(mat - exact_unit(3, i, j))) < 1e-10


def test_extract_units_requires_frame_and_corners():
    lam = [2.0, 1.0, 0.0]
    bad_frame = np.ones((3, 3))
    bad_frame[1, 0] = 0.0
    with pytest.raises(FrameConditionError):
        extract_matrix_units(lam, bad_frame)
    bad_corner = np.ones((3, 3))
    bad_corner[0, 2] = 0.0
    with pytest.raises(FrameConditionError):
        extract_matrix_units(lam, bad_corner)
    with pytest.raises(ValueError, match="decreasing"):
        extract_matrix_units([0.0, 1.0], np.ones((2, 2)))


def test_extract_units_reports_colliding_differences():
    # equispaced values make the intermediate selectors ambiguous: the
    # difference 1 is attained by several index pairs and the masks keep
    # more than the targeted entry
    _, _, spectrum, overlaps = p3_setup()
    gens = restricted_generators(spectrum, overlaps)
    with pytest.raises(AmbiguousSelectorError):
        extract_matrix_units(np.diag(gens.h_p0), gens.g_m0)
    # the closure oracle still confirms the expected algebra dimension
    _, report = lie_closure(
        [1j * gens.h_p0.astype(complex), 1j * gens.g_m0.astype(complex)]
    )
    assert report.dimension == overlaps.d**2


def test_closure_confirms_sum_zero_branch():
    # amplitudes (1/sqrt2, -1/sqrt2) on two one-string levels: H_p vanishes
    # outside W0, so the center is one-dimensional; the closure agrees
    table = ObjectiveTable(n=1, q=2, values=[0.0, 1.0])
    state = InitialState(np.array([1.0, -1.0]) / np.sqrt(2))
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(state, spectrum)
    prediction = predict_dla(spectrum, overlaps)
    assert prediction.center_dim == 1
    assert prediction.algebra == "su_2 + u_1"
    h_p, g_m = gm_generators(table, state)
    _, report = lie_closure([1j * h_p, 1j * g_m])
    assert report.dimension == prediction.dim == 4


def _closure_dim(table, state):
    h_p, g_m = gm_generators(table, state)
    _, report = lie_closure([1j * h_p, 1j * g_m])
    assert not report.hit_cap
    return report.dimension


@pytest.mark.parametrize(
    "values, coefficients, dim",
    [
        ([0.0, 0.0, 1.0, 2.0], None, 9),
        ([1.0, 0.0, 0.0, 0.0], None, 4),
        (maxcut_objective(path_graph(3)).values, {2.0: 0.5, 1.0: 0.3, 0.0: -0.8}, 10),
    ],
    ids=["0012-uniform", "marked-uniform", "p3-sum-zero"],
)
def test_center_rule_matches_closure(values, coefficients, dim):
    # the center is two-dimensional iff H_p is nonzero outside W0: some
    # level of nonzero value is unsupported or holds several strings
    n = int(np.log2(len(values)))
    table = ObjectiveTable(n=n, q=2, values=values)
    state = uniform_state(n, 2) if coefficients is None else level_state(values, coefficients)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(state, spectrum)
    assert predict_dla(spectrum, overlaps).dim == dim
    assert _closure_dim(table, state) == dim


@pytest.mark.parametrize("name", ["p3.graph", "house.graph", "identity_n1.json", "0012"])
def test_predictions_match_oracles_on_complex_states(name):
    if name == "0012":
        table = ObjectiveTable(n=2, q=2, values=[0.0, 0.0, 1.0, 2.0])
    else:
        table = bundled_table(name)
    spectrum = build_spectrum(table)
    for state in grover_test_states(table, seed=sum(map(ord, name)) + 1):
        overlaps = decompose_initial_state(state, spectrum)
        assert predict_dla(spectrum, overlaps).dim == _closure_dim(table, state)
        exact, _ = twirled_mean_loss(table, state)
        assert predict_loss_stats(spectrum, overlaps).expected_loss == pytest.approx(exact, abs=1e-9)


def test_x_mixer_affine_shift_can_add_identity_direction():
    # the counting objective carries a constant shift; on the 3-vertex
    # path it contributes one extra closure dimension, which is why the
    # standard-mixer comparison uses the traceless part
    table = maxcut_objective(path_graph(3))
    h_p = np.diag(table.values.astype(complex))
    b = x_mixer_generator(3)
    _, affine = lie_closure([1j * h_p, 1j * b])
    _, traceless = lie_closure([1j * traceless_part(h_p), 1j * b])
    assert affine.dimension == 10
    assert traceless.dimension == 9


def _basis_state(size: int, index: int) -> InitialState:
    amps = np.zeros(size, dtype=complex)
    amps[index] = 1.0
    return InitialState(amps)


def _random_complex_state(size: int, seed: int) -> InitialState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return InitialState(amps / np.linalg.norm(amps))


def test_isotypic_split_structure():
    cases = [
        (maxcut_objective(path_graph(3)), uniform_state(3, 2)),
        # string 1 has cut 1: the cut-2 and cut-0 levels are unsupported
        (maxcut_objective(path_graph(3)), _basis_state(8, 1)),
        (maxcut_objective(house_graph()), _random_complex_state(32, 11)),
        # one-string supported levels 2 and 0 around a two-string level 1
        (ObjectiveTable(n=2, q=2, values=[0.0, 1.0, 1.0, 2.0]), uniform_state(2, 2)),
    ]
    for table, state in cases:
        spectrum = build_spectrum(table)
        overlaps = decompose_initial_state(state, spectrum)
        w0, lines = isotypic_split(table.values, state.amplitudes)
        assert len(w0) == overlaps.d
        assert len(lines) == spectrum.n_states - overlaps.d
        for v in lines:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            for xi in w0:
                assert abs(np.vdot(xi, v)) < 1e-12
        # W0's components and the lines together: an orthonormal basis of C^N
        frame = np.column_stack(w0 + lines)
        assert frame.shape == (spectrum.n_states, spectrum.n_states)
        assert np.max(np.abs(frame.conj().T @ frame - np.eye(spectrum.n_states))) < 1e-12


def test_isotypic_split_fails_against_the_x_mixer_closure():
    # negative control: the Grover split of p3 is not the x-mixer's, so the
    # isotypic verdict's residuals can exceed its bound
    table = bundled_table("p3.graph")
    basis, _ = lie_closure(uniform_generators("p3.graph", "x"))
    w0, lines = isotypic_split(table.values, uniform_state(3, 2).amplitudes)
    assert invariant_subspace_residual(basis, w0) < 1e-8
    assert max(invariant_subspace_residual(basis, [line]) for line in lines) > 0.1


def test_isotypic_split_cap_and_bad_inputs():
    with pytest.raises(OracleCapError):
        isotypic_split(np.zeros(128), np.full(128, 128**-0.5))
    with pytest.raises(ValueError, match="one length"):
        isotypic_split([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        isotypic_split([np.nan, 1.0], [1.0, 0.0])
