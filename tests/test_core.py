import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmqaoa.core import (
    InitialState,
    LevelOverlaps,
    ObjectiveTable,
    SizeLimitError,
    Spectrum,
    build_spectrum,
    decompose_initial_state,
    uniform_overlaps,
    uniform_state,
)
from gmqaoa.oracle import _levels, closure_report, gm_generators, isotypic_split, x_mixer_generator
from gmqaoa.problems import (
    ValidationError,
    cycle_graph,
    house_graph,
    maxcut_objective,
    parse_custom_table,
)
from helpers import random_graph, reference_decomposition

# [0,1,2,1,1,2,1,0]: cut sizes of the 3-vertex path, enumerated by hand
P3_VALUES = [0.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 0.0]


def test_p3_spectrum_levels():
    spectrum = build_spectrum(ObjectiveTable(n=3, q=2, values=P3_VALUES))
    assert spectrum.levels == [(2.0, 2), (1.0, 4), (0.0, 2)]
    assert spectrum.r == 3
    assert spectrum.values[spectrum.level_of].tolist() == P3_VALUES


def test_constant_objective_single_level():
    spectrum = build_spectrum(ObjectiveTable(n=2, q=2, values=[5.0] * 4))
    assert spectrum.levels == [(5.0, 4)]
    assert spectrum.r == 1


def test_house_graph_has_five_levels():
    spectrum = build_spectrum(maxcut_objective(house_graph()))
    assert spectrum.r == 5


def test_levels_group_by_exact_equality():
    table = ObjectiveTable(n=1, q=3, values=[1.0, 1.0 + 1e-7, 0.0])
    assert build_spectrum(table).r == 3


def assert_grouped_as_sorted(table, counted):
    """build_spectrum gives np.unique's levels, bit for bit, and the
    oracle's level of every string; ``counted`` says whether it took
    the bincount path, which sorts nothing."""
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        spectrum = build_spectrum(table)
    assert unique.called != counted
    uniq, counts = np.unique(table.values, return_counts=True)
    assert spectrum.values.view(np.int64).tolist() == uniq[::-1].view(np.int64).tolist()
    assert spectrum.multiplicities.tolist() == counts[::-1].tolist()
    level_of = _levels(table.values, np.ones(table.size))[2]
    assert spectrum.level_of.tolist() == level_of.tolist()


@pytest.mark.parametrize(
    "values, counted",
    [
        ([-4.0, -3.0, 0.0, 2.0, -4.0, 2.0, 2.0, 0.0], True),  # negative, range 6 <= 2**3
        ([0.0, 4.0, 1.0, 1.0], True),  # range exactly q**n
        ([2.0**53, 2.0**53 + 4, 2.0**53 + 2, 2.0**53], True),  # spacing 2 above 2**53
        ([0.5, 1.5, 2.5, 0.5], True),  # the minimum plus integers
        ([0.0, 5.0, 1.0, 1.0], False),  # range above q**n
        ([1e64, -1e64, 0.0, 0.0], False),  # a range that the cast would overflow
        ([0.5, 0.25, 1.0, 0.5], False),
        ([1e-300, -2.0, 0.0, -2.0], False),  # 1e-300 - (-2) rounds to 2
        ([0.0, -0.0, 1.0, 1.0], False),
        ([-3.0, -0.0, 1.0, -3.0], False),
    ],
)
def test_bincount_grouping_matches_the_sorted_grouping(values, counted):
    table = ObjectiveTable(n=len(values).bit_length() - 1, q=2, values=values)
    assert_grouped_as_sorted(table, counted)


def test_grouping_of_a_table_holding_negative_zero():
    table = parse_custom_table('{"q": 2, "n": 2, "values": [-0.0, 1, 2, -0.0]}')
    assert_grouped_as_sorted(table, counted=False)
    assert np.signbit(build_spectrum(table).values[-1])


def test_uniform_state_examples():
    assert np.allclose(uniform_state(1, 2).amplitudes, [1 / np.sqrt(2)] * 2)
    assert np.allclose(uniform_state(3, 2).amplitudes, [1 / np.sqrt(8)] * 8)
    assert np.allclose(uniform_state(2, 3).amplitudes, [1 / 3] * 9)


def test_uniform_state_size_limit():
    with pytest.raises(SizeLimitError):
        uniform_state(21, 2)


def test_objective_table_validation():
    with pytest.raises(ValueError):
        ObjectiveTable(n=2, q=2, values=[0.0, 1.0])
    for bad in ([0.0, np.inf], [-np.inf, 0.0], [0.0, np.nan], [np.nan, 1e65]):
        with pytest.raises(ValueError, match="finite"):
            ObjectiveTable(n=1, q=2, values=bad)
    with pytest.raises(SizeLimitError):
        ObjectiveTable(n=21, q=2, values=np.zeros(2**21))


def test_dense_size_refuses_non_integer_sizes():
    from gmqaoa.core import dense_size

    for n, q in ((2.5, 2), (2, 2.5), (2.0, 2), (True, 2), (2, True), ("2", 2)):
        with pytest.raises(ValueError, match="n and q must be integers"):
            dense_size(n, q)
    with pytest.raises(ValueError, match="n and q must be integers"):
        ObjectiveTable(n=2.0, q=2, values=np.zeros(4))
    assert dense_size(np.int64(3), np.int32(2)) == 8
    with pytest.raises(ValueError, match="need n >= 1 sites and q >= 2 letters, got n = 0, q = 2"):
        dense_size(0, 2)
    with pytest.raises(ValueError, match="need q >= 2 letters, got q = 1"):
        dense_size(2, 1)


def test_decompose_uniform_p3():
    spectrum = build_spectrum(ObjectiveTable(n=3, q=2, values=P3_VALUES))
    overlaps = decompose_initial_state(uniform_state(3, 2), spectrum)
    assert overlaps.d == 3
    assert np.allclose(overlaps.c, [0.5, np.sqrt(0.5), 0.5])
    assert overlaps.supported_levels == [0, 1, 2]


def test_decompose_basis_state_single_level():
    spectrum = build_spectrum(ObjectiveTable(n=3, q=2, values=P3_VALUES))
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    overlaps = decompose_initial_state(InitialState(amp), spectrum)
    assert overlaps.d == 1
    assert overlaps.supported_levels == [2]  # the zero-value level
    assert overlaps.c[2] == pytest.approx(1.0)


def test_decompose_signed_coefficients():
    # amplitudes (1/sqrt2, -1/sqrt2) against the identity objective on one
    # site: the coefficients are the level weights, the sign stays in xi_0
    spectrum = build_spectrum(ObjectiveTable(n=1, q=2, values=[0.0, 1.0]))
    state = InitialState(np.array([1.0, -1.0]) / np.sqrt(2))
    overlaps = decompose_initial_state(state, spectrum)
    assert overlaps.c == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])
    w0, _ = isotypic_split([0.0, 1.0], state.amplitudes)
    assert w0[0] == pytest.approx([0.0, -1.0])  # level of value 1 = string 1


def test_decompose_accepts_complex_phase():
    spectrum = build_spectrum(ObjectiveTable(n=1, q=2, values=[0.0, 1.0]))
    state = InitialState(np.array([1.0, 1.0j]) / np.sqrt(2))
    overlaps = decompose_initial_state(state, spectrum)
    assert overlaps.c == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])
    w0, _ = isotypic_split([0.0, 1.0], state.amplitudes)
    assert w0[0] == pytest.approx([0.0, 1.0j])
    assert w0[1] == pytest.approx([1.0, 0.0])
    assert overlaps.c[0] * w0[0] + overlaps.c[1] * w0[1] == pytest.approx(state.amplitudes)


def _p3_state(level_one, rest):
    """P3 state with ``level_one`` on the cut-1 strings 1, 3, 4, 6 and ``rest`` on 0, 2, 5, 7."""
    amp = np.zeros(8, dtype=complex)
    amp[[1, 3, 4, 6]] = level_one
    amp[[0, 2, 5, 7]] = rest
    return amp / np.linalg.norm(amp)


@pytest.mark.parametrize(
    "amp",
    [
        _p3_state([0.3, 0.2 + 0.4j, -0.1j, 0.5 - 0.5j], [0.4, -0.2, 0.1 + 0.3j, 0.2]),
        _p3_state([1e-12j, -0.3, 0.2 + 0.1j, 0.4], [-1e-13, 0.5, 0.2, 0.3]),
        _p3_state([0.06, -0.08, 0.08j, 0.07], [0.6, 0.5, 0.4, 0.4]),
    ],
    ids=["complex-behind-real-lead", "tiny-amplitude-before-lead", "largest-magnitude-fallback"],
)
def test_decompose_matches_per_string_reference(amp):
    spectrum = build_spectrum(ObjectiveTable(n=3, q=2, values=P3_VALUES))
    overlaps = decompose_initial_state(InitialState(amp), spectrum)
    c, components = reference_decomposition(amp, P3_VALUES)
    assert np.max(np.abs(overlaps.c - c)) <= 1e-12
    assert overlaps.supported_levels == sorted(components)
    w0, _ = isotypic_split(P3_VALUES, amp)
    assert len(w0) == len(components)
    for j, xi in zip(overlaps.supported_levels, w0):
        assert np.max(np.abs(xi - components[j])) <= 1e-12


def test_decompose_allocates_no_per_level_arrays():
    # bound fixed before measuring: four full-length complex arrays, for any d
    table = maxcut_objective(random_graph(np.random.default_rng(3), 16))
    spectrum = build_spectrum(table)
    state = uniform_state(table.n, table.q)
    tracemalloc.start()
    try:
        overlaps = decompose_initial_state(state, spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert overlaps.d > 8
    assert peak <= 4 * 16 * table.size


def test_decompose_dimension_mismatch():
    spectrum = build_spectrum(ObjectiveTable(n=1, q=2, values=[0.0, 1.0]))
    with pytest.raises(ValueError, match="disagree"):
        decompose_initial_state(uniform_state(2, 2), spectrum)


def test_initial_state_requires_unit_norm():
    with pytest.raises(ValueError):
        InitialState(np.array([1.0, 1.0]))


def test_norm_checks_refuse_entries_whose_squares_overflow():
    # the squares of 1e308 overflow to inf: a refusal, not a numpy warning
    with pytest.raises(ValueError, match="state norm inf"):
        InitialState(np.array([1e308, 1e308]))
    with pytest.raises(ValueError, match="got inf"):
        LevelOverlaps(np.array([1e308, 1e308]))


@st.composite
def objective_tables(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=2, max_value=3))
    size = q**n
    values = draw(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=size, max_size=size)
    )
    return ObjectiveTable(n=n, q=q, values=np.array(values, dtype=float))


@given(objective_tables())
@settings(max_examples=60, deadline=None)
def test_spectrum_invariants(table):
    spectrum = build_spectrum(table)
    assert int(spectrum.multiplicities.sum()) == table.size
    assert np.all(np.diff(spectrum.values) < 0)
    assert np.allclose(spectrum.values[spectrum.level_of], table.values)
    assert_grouped_as_sorted(table, counted=np.ptp(table.values) <= table.size)


@given(objective_tables())
@settings(max_examples=60, deadline=None)
def test_uniform_coefficients_are_multiplicity_weights(table):
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(uniform_state(table.n, table.q), spectrum)
    assert overlaps.d == spectrum.r
    assert np.allclose(
        overlaps.c, np.sqrt(spectrum.multiplicities / spectrum.n_states)
    )
    assert np.all(overlaps.c > 0)
    weights = uniform_overlaps(spectrum)
    assert weights.c.tolist() == np.sqrt(spectrum.multiplicities / spectrum.n_states).tolist()
    assert np.max(np.abs(weights.c - overlaps.c)) <= 1e-15


def test_uniform_overlaps_of_p3_are_exact():
    spectrum = build_spectrum(ObjectiveTable(n=3, q=2, values=P3_VALUES))
    overlaps = uniform_overlaps(spectrum)
    assert overlaps.c.tolist() == [0.5, np.sqrt(0.5), 0.5]
    assert float(np.sum(overlaps.c**2)) == 1.0


def test_decompose_needs_level_of():
    spectrum = Spectrum(values=[2.0, 1.0, 0.0], multiplicities=[2, 4, 2], n_states=8)
    assert uniform_overlaps(spectrum).d == 3
    with pytest.raises(ValueError, match="level_of"):
        decompose_initial_state(uniform_state(3, 2), spectrum)


@given(objective_tables(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_reconstruction_and_counts(table, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=table.size)
    amp = amp / np.linalg.norm(amp)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(InitialState(amp.astype(complex)), spectrum)
    assert overlaps.d <= spectrum.r <= table.size
    # the oracle's level components, weighted by the coefficients, sum back to the state
    w0, _ = isotypic_split(table.values, amp)
    assert len(w0) == overlaps.d
    sup = overlaps.supported_levels
    assert np.max(np.abs(sum(c * xi for c, xi in zip(overlaps.c[sup], w0)) - amp)) < 1e-12
    for j, xi in zip(sup, w0):
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        assert np.all(xi[spectrum.level_of != j] == 0)


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: Spectrum([2.0, 1.0], [1], 1), ValueError, "parallel 1-d arrays"),
        (lambda: Spectrum([1.0, 2.0], [1, 1], 2), ValueError, "strictly decreasing"),
        (lambda: Spectrum([2.0, 1.0], [1, 1], 3), ValueError,
         "must sum to the state-space dimension"),
        (lambda: Spectrum([2.0, 1.0], [1, 1], 2, level_of=[0]), ValueError,
         "level_of must map every string index"),
        (lambda: InitialState(np.array([])), ValueError, "non-empty 1-d array"),
        (lambda: gm_generators(ObjectiveTable(n=2, q=2, values=P3_VALUES[:4]), uniform_state(3, 2)),
         ValueError, "dimensions disagree"),
        (lambda: x_mixer_generator(0), ValueError, "need n >= 1"),
        (lambda: closure_report([]), ValueError, "need at least one generator"),
        (lambda: cycle_graph(2), ValidationError, "at least 3 vertices"),
    ],
    ids=["spectrum-lengths", "spectrum-order", "spectrum-sum", "spectrum-level-of",
         "empty-state", "generator-sizes", "x-mixer-n0", "closure-empty", "cycle-2"],
)
def test_library_refuses_malformed_inputs(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()
