import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gmqaoa
from gmqaoa import analytic, oracle, simulator
from gmqaoa.analytic import predict_commutant, predict_dla, predict_loss_stats
from gmqaoa.core import (
    TOL_ZERO,
    InitialState,
    ObjectiveTable,
    build_spectrum,
    decompose_initial_state,
    uniform_state,
)
from gmqaoa.oracle import (
    ORACLE_DIM_LIMIT,
    OracleCapError,
    closure_report,
    gm_generators,
    grover_commutant_dimension,
    isotypic_residuals,
    isotypic_split,
    level_span_generators,
    traceless_part,
    x_mixer_generator,
)
from gmqaoa.problems import (
    cnf_objective,
    coloring_objective,
    house_graph,
    maxcut_objective,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    path_graph,
)
from helpers import exact_unit, level_state, reference_lie_closure, twirled_mean_loss
from oracles import (
    AmbiguousSelectorError,
    FrameConditionError,
    commutant_dimension,
    extract_matrix_units,
    frame_condition,
    lie_closure,
)

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


@pytest.mark.parametrize("n", [True, 2.5])
def test_x_mixer_generator_sizes_through_dense_size(n):
    # neither a bool nor 2.5 is a site count: dense_size refuses both
    with pytest.raises(ValueError, match="must be integers"):
        x_mixer_generator(n)


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
        closure_report([np.eye(2, dtype=complex)])
    # NaN passes the skew check: max(|g + g^dag|) > tol is false for NaN
    with pytest.raises(ValueError, match="finite"):
        closure_report([np.array([[1j, np.nan], [np.nan, -1j]])])
    with pytest.raises(ValueError, match="finite"):
        closure_report([np.array([[np.inf * 1j, 0], [0, 0]])])


def test_closure_refuses_generators_neither_real_nor_imaginary():
    # the second generator is skew-Hermitian, but its real and imaginary
    # parts are both nonzero, so its brackets fall in neither parity class
    mixed = np.array([[1j, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="exactly real or exactly imaginary"):
        closure_report([1j * np.diag([1.0, -1.0]), mixed])


def test_lie_closure_checks_the_shape_before_reading_it():
    # a 0-d generator has no shape[0], and an empty one no largest entry
    for generators in ([np.array(1j)], [np.zeros((0, 0))], [np.zeros(2)],
                       [np.zeros((2, 3))], [1j * np.eye(2), 1j * np.eye(3)]):
        with pytest.raises(ValueError, match="square matrices of one size"):
            closure_report(generators)


def test_lie_closure_skew_check_is_relative_to_the_largest_entry():
    # a faint Hermitian generator is refused, not dropped as round-off
    with pytest.raises(ValueError, match="skew-Hermitian"):
        closure_report([1e-12 * np.eye(2), 1j * np.diag([1.0, -1.0])])
    # a huge skew generator whose off-diagonal pair differs by round-off
    # of its own size is taken, and its sum with its adjoint does not overflow
    big = 1j * np.array([[1e200, 1e185], [1e185 * (1 + 1e-15), -1e200]])
    assert closure_report([big]).dimension == 1


def test_lie_closure_p4_gm():
    table = maxcut_objective(path_graph(4))
    state = uniform_state(4, 2)
    h_p, g_m = gm_generators(table, state)
    _, report = lie_closure([1j * h_p, 1j * g_m])
    assert report.dimension == 17


def random_skew(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m - m.conj().T)


def test_lie_closure_is_bounded_by_full_algebra():
    # with a tiny tol_indep round-off residuals count as new directions,
    # but skew-Hermitian 3 x 3 matrices span only 9 real dimensions, and
    # the so(3) and i Sym(3) classes hold 3 and 6 of them
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 3, 3))
    gens = [a - a.T, 1j * (b + b.T)]
    basis, report = lie_closure(gens, tol_indep=1e-300)
    assert basis.shape == (9, 3, 3)
    assert report.dimension == 9


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


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, 1.0, 1e300])
def test_lie_closure_refuses_bad_tol_indep(tol):
    # at 0 or below round-off counts as new directions; nan accepts every
    # candidate, and at 1 or above (inf included) every one is discarded,
    # since a unit candidate's residual never exceeds 1
    rng = np.random.default_rng(4)
    gens = [random_skew(rng, 3) for _ in range(2)]
    with pytest.raises(ValueError, match="tol_indep"):
        closure_report(gens, tol_indep=tol)


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


def faint_lowest_state(name, eps):
    """State with the instance's lowest level at norm eps, the rest uniform."""
    values = bundled_table(name).values
    low = values == values.min()
    return InitialState(
        np.where(low, eps / np.sqrt(low.sum()), np.sqrt((1 - eps**2) / (~low).sum()))
    )


def faint_p3_state(eps):
    """p3 state with its cut-0 level (000 and 111) at norm eps, the rest uniform."""
    return faint_lowest_state("p3.graph", eps)


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


def random_grover_state(name, seed):
    """A bundled instance's table and a seeded random complex state on it."""
    table = bundled_table(name)
    return table, grover_test_states(table, seed)[1]


def random_grover_generators(name, seed):
    """Closure generators of a bundled instance under a seeded random complex state."""
    h_p, g_m = gm_generators(*random_grover_state(name, seed))
    return [1j * h_p, 1j * g_m]


def gauged_grover_closure(table, state):
    """The closure of a state's dense Grover pair, closed in its phase gauge.

    D = diag(u_a / |u_a|), 1 where u_a = 0, commutes with H_p and
    D^dag u = |u|, so D^dag (-i u u^dag) D = -i |u| |u|^T, the pair of the
    real state |u|: it is imaginary and closes at N x N, where the
    realified complex pair is 2N x 2N, past the oracle cap at N = 64.
    Conjugation by D is an automorphism of u(N), so the closure has the
    pair's dimension, and its basis is carried back as D B D^dag.
    """
    amps = state.amplitudes
    modulus = np.abs(amps)
    phases = np.ones_like(amps)
    np.divide(amps, modulus, out=phases, where=modulus > 0)
    h_p, g_m = gm_generators(table, InitialState(modulus))
    basis, report = lie_closure([1j * h_p, 1j * g_m])
    return phases[:, None] * basis * phases.conj(), report


def hop_and_field(n):
    """A real antisymmetric nearest-neighbour hop and an imaginary staggered
    field i diag(1, ..., -1): one generator in each parity class."""
    hop = np.diag(np.ones(n - 1), 1)
    field = np.diag([1.0] * (n // 2) + [-1.0] * (n - n // 2))
    return [(hop - hop.T).astype(complex), 1j * field]


#: (generators, gauge): the closure under test is ``lie_closure`` of the
#: generators, or with a (table, state) gauge ``gauged_grover_closure``.
REFERENCE_CASES = (
    [
        pytest.param(uniform_generators(name, "grover"), None, id=f"{name}-grover")
        for name in BUNDLED_N32
    ]
    + [
        pytest.param(uniform_generators(name, "x"), None, id=f"{name}-x")
        for name in BUNDLED_N32
        if bundled_table(name).q == 2
    ]
    # a faint supported level: the generator-bracket run meets an
    # ill-conditioned acceptance and both closures redo it pivoted
    + [
        pytest.param(faint_p3_generators(eps), None, id=f"p3-faint-{eps:g}")
        for eps in (1e-5, 1e-4, 3e-5, 3e-6)
    ]
    # a complex state: house's pair closes realified at 64 x 64, and c6's,
    # which would realify to 128 x 128, in its phase gauge
    + [
        pytest.param(
            random_grover_generators("house.graph", seed=7), None, id="house.graph-grover-random"
        ),
        pytest.param(
            random_grover_generators("c6.graph", seed=7),
            random_grover_state("c6.graph", seed=7),
            id="c6.graph-grover-random",
        ),
    ]
    # a real generator and an imaginary one: both parity classes from the start
    + [pytest.param(hop_and_field(6), None, id="hop-field-6")]
)


def span_residual(basis, other):
    """Largest norm of an element of ``other`` outside the real span of the orthonormal ``basis``."""
    rows = basis.reshape(len(basis), -1).view(float)
    vecs = other.reshape(len(other), -1).view(float)
    return float(np.max(np.linalg.norm(vecs - (vecs @ rows.T) @ rows, axis=1)))


@pytest.mark.parametrize("generators, gauge", REFERENCE_CASES)
def test_lie_closure_matches_reference(generators, gauge):
    # the generator-bracket schedule reaches the algebra the all-pairs
    # schedule does: the same dimension and the same span; the reference
    # closes the generators themselves, complex or not
    basis, report = lie_closure(generators) if gauge is None else gauged_grover_closure(*gauge)
    ref_basis, ref = reference_lie_closure(generators)
    assert report.dimension == ref.dimension
    assert span_residual(basis, ref_basis) <= 1e-8
    assert span_residual(ref_basis, basis) <= 1e-8


@pytest.mark.parametrize(
    "generators",
    [
        pytest.param(uniform_generators("house.graph", "x"), id="house-x"),
        pytest.param(uniform_generators("p3.graph", "grover"), id="p3-grover"),
        pytest.param(hop_and_field(6), id="hop-field-6"),
        pytest.param(faint_p3_generators(1e-4), id="p3-faint-all-pairs"),
    ],
)
def test_closure_of_real_and_imaginary_generators_stays_graded(generators):
    # every generator is exactly real or exactly imaginary, so every bracket
    # is one or the other, and so is every basis element returned
    basis, report = lie_closure(generators)
    assert report.dimension == len(basis) > len(generators)
    for element in basis:
        assert not element.real.any() or not element.imag.any()


def test_closure_of_generators_whose_squares_overflow():
    # the closure depends only on directions: a generator is scaled by its
    # largest entry before its norm, so 1e200 entries close like 1 entries
    big = lie_closure([1j * np.diag([1e200, 0.0, -1e200]), 1j * np.ones((3, 3))])[1]
    unit = lie_closure([1j * np.diag([1.0, 0.0, -1.0]), 1j * np.ones((3, 3))])[1]
    assert big.dimension == unit.dimension == 9
    uniform = np.full(4, 0.5)
    assert level_span_dim([3e200, 2e200, 1e200, 1e200], uniform) == 10
    assert level_span_dim([3.0, 2.0, 1.0, 1.0], uniform) == 10


@pytest.mark.parametrize(
    "name, mixer, pairs",
    [("house.graph", "x", 30628), ("house.graph", "grover", 325), ("c6.graph", "grover", 136)],
)
def test_closure_screens_each_pair_once(name, mixer, pairs):
    # a closure that ends on an empty round has commuted every (element,
    # generator) pair exactly once: |S| * D candidates (house x 496, house
    # grover 52, c6 grover 34), not the D(D-1)/2 pairs of elements
    generators = uniform_generators(name, mixer)
    _, report = lie_closure(generators)
    dim = report.dimension
    assert dim < bundled_table(name).size ** 2
    assert report.candidates == len(generators) * dim
    assert dim * (dim - 1) // 2 == pairs


@pytest.mark.parametrize("name", BUNDLED_N32)
def test_closure_margin_spans_six_decades(name):
    mixers = ["grover", "x"] if bundled_table(name).q == 2 else ["grover"]
    for mixer in mixers:
        _, report = lie_closure(uniform_generators(name, mixer))
        assert report.min_residual_accepted is not None
        assert report.max_residual_discarded <= 1e-6 * report.min_residual_accepted


def test_closure_reports_faint_level_fragility():
    # the predicted algebra is su_3 + u_1 (10); the generator-bracket run
    # meets an acceptance below sqrt(eps / tol_indep), so the report comes
    # from the all-pairs run, where the faint level enters at residuals of
    # order its norm (4.8e-4 at 1e-4), six decades above the discards
    spectrum = build_spectrum(bundled_table("p3.graph"))
    overlaps = decompose_initial_state(faint_p3_state(1e-4), spectrum)
    assert predict_dla(spectrum, overlaps).dim == 10
    _, report = lie_closure(faint_p3_generators(1e-4))
    assert report.schedule == "all-pairs"
    assert report.min_residual_accepted < 10 * 1e-4
    assert report.max_residual_discarded <= 1e-6 * report.min_residual_accepted


@pytest.mark.parametrize(
    "name, eps, dim",
    [("p3.graph", eps, 10) for eps in (1e-5, 3e-5, 1e-4, 3e-6)]
    + [("house.graph", 1e-3, 26), ("house.graph", 1e-5, 26), ("c6.graph", 1e-4, 17)],
)
def test_closure_of_faint_level_matches_prediction(name, eps, dim):
    # on the generator-bracket schedule alone these give 45, 23, 45 and 45
    # on p3 and 916, 909 and 1875 on house and c6: round-off compounds
    # through the faint level's small residuals
    table = bundled_table(name)
    state = faint_lowest_state(name, eps)
    spectrum = build_spectrum(table)
    assert predict_dla(spectrum, decompose_initial_state(state, spectrum)).dim == dim
    h_p, g_m = gm_generators(table, state)
    _, report = lie_closure([1j * h_p, 1j * g_m])
    assert report.schedule == "all-pairs"
    assert report.dimension == dim


@pytest.mark.parametrize(
    "eps, schedule, margin", [(1e-4, "all-pairs", 0.207), (1e-2, "generators", 4.4e-3)]
)
def test_closure_guard_counts_the_second_generators_own_residual(eps, schedule, margin):
    # eps X is off-diagonal, so at unit norm the second generator keeps a
    # residual of about eps ||X|| / ||H|| against the first: 4.4e-5 at
    # eps = 1e-4, below sqrt(eps / tol_indep) = 4.7e-4, so the closure reruns
    # on all pairs; at 1e-2 it is 4.4e-3, the margin of the generator run
    h = np.diag([1.0, 2.0, 4.0])
    x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    _, report = lie_closure([1j * h, 1j * (h + eps * x)])
    assert report.schedule == schedule
    assert report.dimension == 9
    assert report.min_residual_accepted == pytest.approx(margin, rel=0.01)


def test_all_pairs_rerun_holds_one_basis_array():
    # N = 64 and both generators are imaginary, so the basis is two packed
    # class arrays of 2016 and 2080 rows, 31 and 33 MiB; the rerun reuses
    # the arrays of the generator run instead of allocating a second pair
    h_p, g_m = gm_generators(bundled_table("c6.graph"), faint_lowest_state("c6.graph", 1e-4))
    tracemalloc.start()
    try:
        _, report = lie_closure([1j * h_p, 1j * g_m])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.schedule == "all-pairs" and report.dimension == 17
    assert peak < 100 * 2**20


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
    report = grover_commutant_dimension(table.values, amps)
    assert report.dimension == predict_commutant(spectrum, overlaps).dim == 12
    # the commutant of the DLA is, by definition, that of its generators; the
    # faint constraints enter the dense operator at 5.7e-11 to 1.7e-10 and
    # its null eigenvalues stay below 1.2e-15, so the dense solver sees them
    # only with tol_rank between the two
    # (test_dense_commutant_of_faint_level_at_default_tol_rank)
    assert report.dimension == commutant_dimension([1j * h_p, 1j * g_m], tol_rank=1e-13)
    assert report.max_null < 1e-13 and report.min_nonnull > 1e-3
    # two levels, the second of norm 1e-5: only multiples of I commute
    assert grover_commutant_dimension([0.0, 1.0], [np.sqrt(1 - 1e-10), 1e-5]).dimension == 1


@pytest.mark.xfail(
    strict=True,
    reason="the unscaled dense operator sees a level of norm 1e-5 at 1e-10, below tol_rank",
)
def test_dense_commutant_of_faint_level_at_default_tol_rank():
    # gives 15: the faint level's constraints count as null
    state = faint_p3_state(1e-5)
    h_p, g_m = gm_generators(bundled_table("p3.graph"), state)
    assert commutant_dimension([1j * h_p, 1j * g_m]) == 12


def level_span_dim(values, amplitudes):
    _, report = lie_closure(level_span_generators(values, amplitudes))
    return report.dimension


@pytest.mark.parametrize("name", BUNDLED_N32 + ["c6.graph"])
def test_level_span_closure_matches_prediction_and_dense_closure(name):
    table = bundled_table(name)
    spectrum = build_spectrum(table)
    for state in grover_test_states(table, seed=sum(map(ord, name)) + 2):
        predicted = predict_dla(spectrum, decompose_initial_state(state, spectrum)).dim
        assert level_span_dim(table.values, state.amplitudes) == predicted
        assert _closure_dim(table, state) == predicted


@pytest.mark.parametrize(
    "values, dim", [([3.0, 3.0], 2), ([0.0, 0.0], 1), ([1.0, 2.0, 3.0, 4.0], 16)],
    ids=["constant", "zero", "1234"],
)
def test_level_span_closure_of_small_tables(values, dim):
    # a constant table: H_p is nonzero off the one-level span; the zero
    # table: H_p is zero; one string per level: H_p lives on the span
    n = int(np.log2(len(values)))
    table = ObjectiveTable(n=n, q=2, values=values)
    state = uniform_state(n, 2)
    spectrum = build_spectrum(table)
    assert predict_dla(spectrum, decompose_initial_state(state, spectrum)).dim == dim
    assert level_span_dim(table.values, state.amplitudes) == dim
    assert _closure_dim(table, state) == dim


@pytest.mark.parametrize("eps", [1e-5, 3e-5, 1e-4, 3e-6])
def test_level_span_closure_of_faint_level(eps):
    # the dense closure of the same pair: test_closure_of_faint_level_matches_prediction
    values = bundled_table("p3.graph").values
    assert level_span_dim(values, faint_p3_state(eps).amplitudes) == 10


def test_level_span_closure_can_only_undercount():
    # when h > 0 both generators are block-diagonal, d + 1, so every bracket
    # is too and has a zero (d, d) entry: the closure lies in u(d) + span{i
    # E_dd}, at most d**2 + 1; when h = 0 they are d x d and the closure lies
    # in u(d), at most d**2; either bound is the prediction
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        values = rng.integers(-3, 4, size=2**n).astype(float)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        levels = np.unique(values)
        if len(levels) > 1:
            faint = values == rng.choice(levels)
            amps[faint] *= 1e-6 / np.linalg.norm(amps[faint])
            amps[~faint] *= np.sqrt(1 - 1e-12) / np.linalg.norm(amps[~faint])
        amps /= np.linalg.norm(amps)
        spectrum = build_spectrum(ObjectiveTable(n=n, q=2, values=values))
        predicted = predict_dla(spectrum, decompose_initial_state(InitialState(amps), spectrum))
        h_span, g_span = level_span_generators(values, amps)
        d = predicted.d
        basis, report = lie_closure([h_span, g_span])
        assert report.dimension == predicted.dim, seed
        assert len(h_span) == d + predicted.center_dim - 1, seed
        if predicted.center_dim == 2:
            assert not np.any(basis[:, :d, d]) and not np.any(basis[:, d, :d])


@pytest.mark.xfail(
    strict=True,
    reason="the faint-acceptance guard fires on the Vandermonde-conditioned brackets "
    "of a correct closure and reruns it on the all-pairs schedule",
)
def test_level_span_closure_of_twelve_levels_stays_on_generator_brackets():
    # d = 11 closes on generator brackets in 0.01 s; d = 12 reruns all
    # pairs and takes 0.05 s, though both closures reach d**2
    _, report = lie_closure(level_span_generators(np.arange(12.0), np.full(12, 12**-0.5)))
    assert report.schedule == "generators"


def test_level_span_generators_are_an_isometry():
    # p3, uniform: H_p is 2, 1, 0 on levels of 2, 4 and 2 strings, so its
    # norm off the level span is sqrt(4 * 1 + 1 * 3) and both generators
    # keep their Frobenius norm
    table = bundled_table("p3.graph")
    state = uniform_state(3, 2)
    h_span, g_span = level_span_generators(table.values, state.amplitudes)
    assert h_span.shape == g_span.shape == (4, 4)
    assert h_span[3, 3] == 1j * np.sqrt(7.0)
    assert np.allclose(np.diag(h_span)[:3], [2j, 1j, 0.0], atol=1e-15)
    for dense, span in zip(gm_generators(table, state), (h_span, g_span)):
        assert np.linalg.norm(span) == pytest.approx(np.linalg.norm(dense), abs=1e-14)
        assert np.max(np.abs(span + span.conj().T)) == 0.0
    # a basis state on one string: one supported level and every other
    # string off the span
    _, g_one = level_span_generators(table.values, _basis_state(8, 1).amplitudes)
    assert g_one.shape == (2, 2) and g_one[0, 0] == -1j
    # all-distinct values: every string is its own supported level, H_p
    # vanishes off the span (h = 0), and the pair is 8 x 8 with no tail
    distinct = ObjectiveTable(n=3, q=2, values=np.arange(8.0))
    h_span, g_span = level_span_generators(distinct.values, state.amplitudes)
    assert h_span.shape == g_span.shape == (8, 8)
    for dense, span in zip(gm_generators(distinct, state), (h_span, g_span)):
        assert np.linalg.norm(span) == pytest.approx(np.linalg.norm(dense), abs=1e-14)


def test_level_span_generators_are_imaginary_for_complex_states():
    # built from the level values and norms, not from Q^dag u, so a complex
    # state leaves no round-off real part and the closure stays graded;
    # they still equal the Q^dag H_p Q and -Q^dag u u^dag Q of the W0 columns
    table = bundled_table("house.graph")
    rng = np.random.default_rng(11)
    for _ in range(50):
        amps = rng.normal(size=table.size) + 1j * rng.normal(size=table.size)
        amps /= np.linalg.norm(amps)
        h_span, g_span = level_span_generators(table.values, amps)
        for g in (h_span, g_span):
            assert not g.real.any()
            assert np.array_equal(g.imag, g.imag.T)
        q = np.column_stack(isotypic_split(table.values, amps)[0])
        d = q.shape[1]
        w = q.conj().T @ amps
        assert np.allclose(h_span[:d, :d], 1j * q.conj().T @ (table.values[:, None] * q), atol=1e-14)
        assert np.allclose(g_span[:d, :d], -1j * np.outer(w, w.conj()), atol=1e-15)


def test_level_span_generators_refuse_bad_inputs():
    with pytest.raises(OracleCapError):
        level_span_generators(np.zeros(128), np.full(128, 128**-0.5))
    with pytest.raises(ValueError, match="nonzero norm"):
        level_span_generators([0.0, 1.0], [0.0, 0.0])


def test_grover_commutant_rank_gap_is_structural():
    # the level scaling puts every non-null squared singular value at 1 or 2
    # and the null ones at round-off, so the constant TOL_RANK cut needs no flag:
    # complex states up to N = 64, with faint and unsupported levels
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 65))
        values = rng.integers(0, int(rng.integers(1, n + 1)), size=n).astype(float)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        for level in np.unique(values):
            kind = rng.integers(3)
            if kind == 0:
                amps[values == level] = 0.0
            elif kind == 1:
                amps[values == level] *= 10.0 ** -rng.uniform(3, 9)
        if not amps.any():
            amps[0] = 1.0
        report = grover_commutant_dimension(values, amps)
        assert report.min_nonnull is None or report.min_nonnull >= 1 - 1e-12
        assert report.max_null is None or report.max_null < 1e-16


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


@pytest.mark.parametrize(
    "entry", [grover_commutant_dimension, isotypic_split, level_span_generators]
)
def test_level_oracles_refuse_amplitudes_whose_squares_overflow(entry):
    # the norm of [1e308, 1e308] overflows to inf: a refusal, not a numpy warning
    with pytest.raises(ValueError, match="finite nonzero norm"):
        entry([0.0, 1.0], [1e308, 1e308])


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, -np.inf])
def test_commutant_solvers_refuse_bad_tol_rank(tol):
    # -1 counts no eigenvalue as null and inf every one; nan misreads the rank either way;
    # at 0 round-off picks the null eigenvalues
    with pytest.raises(ValueError, match="tol_rank"):
        commutant_dimension([1j * np.diag([0.0, 1.0, 1.0, 2.0])], tol_rank=tol)


def test_isotypic_residuals():
    table, state, spectrum, overlaps = p3_setup()
    h_p, g_m = gm_generators(table, state)
    basis, _ = lie_closure([1j * h_p, 1j * g_m])

    full = [np.eye(8, dtype=complex)[:, k] for k in range(8)]
    whole = isotypic_residuals(basis, full, [])
    assert (whole.w0_residual, whole.line_residual, whole.frame_residual, whole.square) == (
        0.0, 0.0, 0.0, True
    )

    w0, lines = isotypic_split(table.values, state.amplitudes)
    split = isotypic_residuals(basis, w0, lines)
    assert split.square
    assert max(split.w0_residual, split.line_residual, split.frame_residual) < 1e-9
    # W0 alone: orthonormal columns, but not a square frame
    alone = isotypic_residuals(basis, w0, [])
    assert alone.w0_residual < 1e-9 and alone.frame_residual < 1e-12
    assert alone.line_residual == 0.0 and not alone.square

    rng = np.random.default_rng(3)
    line = rng.normal(size=8) + 1j * rng.normal(size=8)
    line /= np.linalg.norm(line)
    assert isotypic_residuals(basis, [], [line]).line_residual > 0.1
    assert isotypic_residuals(basis, [line], []).w0_residual > 0.1

    # a frame that is not orthonormal is reported, not refused
    assert isotypic_residuals(basis, [full[0]], [full[0]]).frame_residual == 1.0


def test_isotypic_residuals_match_one_subspace_at_a_time():
    # each column's residual is that of W0, or of its own line, taken alone
    table = bundled_table("house.graph")
    state = _random_complex_state(32, 11)
    units = [g / np.linalg.norm(g) for g in gm_generators(table, state)]
    w0, lines = isotypic_split(table.values, state.amplitudes)
    q = np.column_stack(w0)
    image = np.asarray(units) @ q
    expected_w0 = np.max(np.linalg.norm(image - q @ (q.conj().T @ image), axis=1))
    expected_line = max(
        np.linalg.norm(u @ v - v * np.vdot(v, u @ v)) for u in units for v in lines
    )
    split = isotypic_residuals(units, w0, lines)
    assert split.w0_residual == pytest.approx(expected_w0, abs=1e-15)
    assert split.line_residual == pytest.approx(expected_line, abs=1e-15)
    # a broken line shows in the line residual, not in W0's
    skew = lines[0] + 0.5 * w0[0]
    broken = isotypic_residuals(units, w0, [skew / np.linalg.norm(skew), *lines[1:]])
    assert broken.w0_residual == pytest.approx(split.w0_residual, abs=1e-15)
    assert broken.line_residual > 0.1 and broken.frame_residual > 0.1


def test_isotypic_residuals_refuse_malformed_shapes():
    w0, lines = isotypic_split([0.0, 1.0, 1.0, 2.0], np.full(4, 0.5))
    basis = [1j * np.diag([0.0, 1.0, 1.0, 2.0])]
    with pytest.raises(ValueError):
        isotypic_residuals(basis, [], [])
    with pytest.raises(ValueError):
        isotypic_residuals(basis, w0, [np.ones(3)])
    with pytest.raises(ValueError):
        isotypic_residuals([1j * np.eye(3)], w0, lines)
    with pytest.raises(ValueError, match="square matrices"):
        isotypic_residuals(np.zeros((1, 4, 3)), w0, lines)


def test_oracles_accept_matrix_lists_and_refuse_empty_bases():
    table, state, _, _ = p3_setup()
    h_p, g_m = gm_generators(table, state)
    basis, _ = lie_closure([1j * h_p, 1j * g_m])
    w0, lines = isotypic_split(table.values, state.amplitudes)
    assert isotypic_residuals(list(basis), w0, lines) == isotypic_residuals(basis, w0, lines)
    with pytest.raises(ValueError, match="at least one basis element"):
        isotypic_residuals([], w0, lines)
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
    table, state, _, overlaps = p3_setup()
    d = overlaps.d
    # the supported-span pair (diag lambda_sup, -c c^T), the leading
    # d x d block of the level-span generators
    h_p0, g_m0 = (
        (g[:d, :d] / 1j).real for g in level_span_generators(table.values, state.amplitudes)
    )
    with pytest.raises(AmbiguousSelectorError):
        extract_matrix_units(np.diag(h_p0), g_m0)
    # the closure oracle still confirms the expected algebra dimension
    _, report = lie_closure([1j * h_p0.astype(complex), 1j * g_m0.astype(complex)])
    assert report.dimension == d**2


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
    # a complex state's pair realifies to 2N x 2N, past the oracle cap at
    # N = 64, where it closes in its phase gauge instead
    if 2 * table.size > ORACLE_DIM_LIMIT:
        return gauged_grover_closure(table, state)[1].dimension
    h_p, g_m = gm_generators(table, state)
    _, report = lie_closure([1j * h_p, 1j * g_m])
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


@pytest.mark.parametrize("faint", [5e-324, 1e-160, 1e-12, 9e-11, 1.5e-10, 1e-8])
def test_level_oracles_share_the_support_cut_of_the_decomposition(faint):
    # the cut is the constant TOL_ZERO on both sides: the level of weight
    # `faint` is supported above it, and its W0 vector then has unit norm
    values, amps = [0.0, 1.0, 1.0, 0.0], [faint, 1.0, 0.0, 0.0]
    d = 2 if faint > TOL_ZERO else 1
    spectrum = build_spectrum(ObjectiveTable(n=2, q=2, values=np.array(values)))
    assert decompose_initial_state(InitialState(np.array(amps)), spectrum).d == d
    w0, lines = isotypic_split(values, amps)
    assert len(w0) == d and len(lines) == 4 - d
    assert all(abs(np.linalg.norm(v) - 1.0) <= 1e-15 for v in w0)
    assert level_span_generators(values, amps)[0].shape == (d + 1, d + 1)
    # 1 + sum (n_j - 1)**2 over supported levels + sum n_j**2 over the rest
    assert grover_commutant_dimension(values, amps).dimension == (3 if d == 2 else 6)


def test_isotypic_split_fails_against_the_x_mixer_closure():
    # negative control: the Grover split of p3 is not the x-mixer's, so the
    # isotypic verdict's residuals can exceed its bound
    table = bundled_table("p3.graph")
    basis, _ = lie_closure(uniform_generators("p3.graph", "x"))
    w0, lines = isotypic_split(table.values, uniform_state(3, 2).amplitudes)
    split = isotypic_residuals(basis, w0, lines)
    assert split.w0_residual < 1e-8 and split.frame_residual < 1e-12
    assert split.line_residual > 0.1


def test_isotypic_split_cap_and_bad_inputs():
    with pytest.raises(OracleCapError):
        isotypic_split(np.zeros(128), np.full(128, 128**-0.5))
    with pytest.raises(ValueError, match="one length"):
        isotypic_split([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        isotypic_split([np.nan, 1.0], [1.0, 0.0])


def test_oracles_of_record_are_off_the_package_surface():
    # no report runs them, so they live in tests/oracles.py, not in gmqaoa
    moved = (
        "lie_closure", "commutant_dimension", "_commutant_operator", "extract_matrix_units",
        "frame_condition", "FrameConditionError", "AmbiguousSelectorError",
        "MatrixUnitError", "ParameterSet", "apply_phase_layer", "apply_grover_mixer",
        "run_circuit", "loss", "sample_parameters", "grover_mixer_identity_check",
    )
    oracles = importlib.import_module("oracles")
    for name in moved:
        assert hasattr(oracles, name), name
        for module in (gmqaoa, oracle, simulator):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # the range bound m T + 1 had no caller outside the tests
    assert not hasattr(analytic, "slocal_bound")
