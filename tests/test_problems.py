import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmqaoa.analytic import predict_dla
from gmqaoa.core import (
    ObjectiveTable,
    build_spectrum,
    decompose_initial_state,
    uniform_state,
)
from gmqaoa.problems import (
    CnfFormula,
    Graph,
    ParseError,
    _local_objective,
    cnf_objective,
    cnf_terms,
    coloring_objective,
    coloring_terms,
    complete_graph,
    cycle_graph,
    house_graph,
    local_spectrum,
    maxcut_objective,
    maxcut_terms,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    path_graph,
    threshold_transform,
)
from helpers import (
    bits_of,
    broadcast_objective,
    digits_of,
    elimination_forced,
    naive_cnf_violations,
    naive_coloring_violations,
    naive_cut_value,
    random_graph,
)

DATA = Path(__file__).resolve().parent.parent / "data"
GRAPHS = ("p3", "p4", "c4", "c6", "k4", "triangle", "house")


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="outside"):
        Graph(3, ((1, 4),))


def test_graph_refuses_non_integer_vertices():
    # validated before the int() cast, (1.5, 2) was built as the edge (1, 2)
    for edge in ((1.5, 2), (1, 2.0), (True, 2), (1, np.float64(2.0))):
        with pytest.raises(ValueError, match="not an integer"):
            Graph(3, (edge,))
    assert Graph(3, ((np.int64(1), 2),)).edges == ((1, 2),)
    # a float count failed in the table builder, and True built a 1-vertex table
    for count in (2.5, True, 0):
        with pytest.raises(ValueError, match="vertex count must be an integer >= 1"):
            Graph(count, ())


def test_cnf_refuses_non_integer_literals():
    # validated before the int() cast, (1.7, -2) was built as the clause (1, -2)
    for clause in ((1.7, -2), (1, -2.0), (True,), (np.float64(1.0),)):
        with pytest.raises(ValueError, match="not an integer"):
            CnfFormula(2, (clause,))
    assert CnfFormula(2, ((np.int32(1), -2),)).clauses == ((1, -2),)
    for count in (2.5, True, 0):
        with pytest.raises(ValueError, match="variable count must be an integer >= 1"):
            CnfFormula(count, ())


def test_builders():
    assert path_graph(4).edges == ((1, 2), (2, 3), (3, 4))
    assert len(cycle_graph(3).edges) == 3
    assert len(complete_graph(5).edges) == 10
    assert len(house_graph().edges) == 6


def test_maxcut_p3_examples():
    table = maxcut_objective(path_graph(3))
    assert table.values[0b010] == 2  # middle vertex alone on one side
    assert table.values[0] == 0


def test_maxcut_matches_naive_evaluator():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 8)))
        table = maxcut_objective(g)
        for x in range(table.size):
            assert table.values[x] == naive_cut_value(g, bits_of(x, g.vertex_count))
        # every edge is either cut or monochromatic
        both = table.values + coloring_objective(g, 2).values
        assert np.all(both == len(g.edges))
    assert maxcut_objective(Graph(1, ())).values.tolist() == [0.0, 0.0]


def test_maxcut_complement_symmetry():
    rng = np.random.default_rng(5)
    for n in (3, 6, 9, 12):
        g = random_graph(rng, n)
        values = maxcut_objective(g).values
        full = (1 << n) - 1
        idx = np.arange(1 << n)
        assert np.array_equal(values, values[idx ^ full])


def test_cycle_values_even_and_counted():
    for n in range(3, 13):
        spectrum = build_spectrum(maxcut_objective(cycle_graph(n)))
        attained = set(spectrum.values.tolist())
        assert all(v % 2 == 0 for v in attained)
        assert spectrum.r == n // 2 + 1


def test_complete_graph_value_set():
    for n in range(2, 11):
        spectrum = build_spectrum(maxcut_objective(complete_graph(n)))
        expected = {s * (n - s) for s in range(n // 2 + 1)}
        assert set(spectrum.values.tolist()) == expected


def test_coloring_examples():
    triangle = cycle_graph(3)
    table = coloring_objective(triangle, 3)
    proper = 0 + 1 * 3 + 2 * 9  # coloring (0, 1, 2)
    assert table.values[proper] == 0
    mono = 1 + 1 * 3 + 1 * 9
    assert table.values[mono] == 3
    assert table.values.min() == 0 and table.values.max() == len(triangle.edges)


def test_coloring_matches_naive_evaluator():
    graphs = (
        random_graph(np.random.default_rng(3), 4),
        Graph(4, ((1, 3), (3, 4))),  # vertex 2 is isolated
        Graph(3, ()),
    )
    for g in graphs:
        for q in (2, 3, 4):
            table = coloring_objective(g, q)
            for x in range(table.size):
                coloring = digits_of(x, g.vertex_count, q)
                assert table.values[x] == naive_coloring_violations(g, coloring)


def test_cnf_examples():
    empty = CnfFormula(2, ())
    assert np.all(cnf_objective(empty).values == 0)
    single = CnfFormula(2, ((1, 2),))
    values = cnf_objective(single).values
    assert values.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_cnf_matches_naive_evaluator():
    rng = np.random.default_rng(17)
    formulas = []
    for _ in range(10):
        n = int(rng.integers(2, 6))
        clauses = []
        for _ in range(int(rng.integers(1, 8))):
            width = int(rng.integers(1, min(n, 3) + 1))
            variables = rng.choice(n, size=width, replace=False) + 1
            clauses.append(tuple(int(v) if rng.random() < 0.5 else -int(v) for v in variables))
        formulas.append(CnfFormula(n, tuple(clauses)))
    # clauses that name a variable twice
    formulas.append(CnfFormula(3, ((1, 1, -2),)))  # repeated literal
    formulas.append(CnfFormula(3, ((2, -2), (1, 3))))  # tautology
    formulas.append(CnfFormula(3, ((3,), (-3,))))  # opposite unit clauses
    formulas.append(CnfFormula(3, ((-3, 1, -3, 2), (2, -1, 1))))
    for formula in formulas:
        n = formula.variable_count
        table = cnf_objective(formula)
        assert table.values.max() <= len(formula.clauses)
        for x in range(table.size):
            assert table.values[x] == naive_cnf_violations(formula, bits_of(x, n))


def test_builders_allocate_one_table():
    # bound fixed before measuring: three full-length float arrays
    rng = np.random.default_rng(7)
    clauses = tuple(
        tuple(int(v) * int(rng.choice([-1, 1])) for v in rng.choice(16, size=3, replace=False) + 1)
        for _ in range(48)
    )
    # 200 8-literal clauses on 18 variables: far more straddling columns
    # than one product's budget of 64, so the product is folded many times
    dense = _random_clauses(np.random.default_rng(11), 18, 200, 8)
    builds = [
        lambda: maxcut_objective(random_graph(np.random.default_rng(3), 16)),
        lambda: cnf_objective(CnfFormula(16, clauses)),
        lambda: coloring_objective(random_graph(np.random.default_rng(5), 10), 3),
        lambda: cnf_objective(CnfFormula(18, dense)),
    ]
    for build in builds:
        tracemalloc.start()
        try:
            table = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.size >= 2**15
        assert peak <= 3 * 8 * table.size


def assert_broadcast_sum(n, q, terms):
    """The product table equals the term-by-term broadcast sum bit for bit,
    signed zeros included."""
    values = _local_objective(n, q, terms).values
    assert np.array_equal(values.view(np.int64), broadcast_objective(n, q, terms).view(np.int64))


def _random_clauses(rng, n, m, width):
    return tuple(
        tuple(int(v) * int(rng.choice([-1, 1])) for v in rng.choice(n, size=width, replace=False) + 1)
        for _ in range(m)
    )


@pytest.mark.parametrize(
    "n, q, terms",
    [
        # budget 128: the 200 straddling columns take two products
        (20, 2, maxcut_terms(complete_graph(20))),
        # budget 32: 108 straddling columns take four products
        (16, 2, cnf_terms(CnfFormula(16, _random_clauses(np.random.default_rng(2), 16, 64, 3)))),
        (10, 3, coloring_terms(random_graph(np.random.default_rng(4), 10), 3)),
        (8, 4, coloring_terms(complete_graph(8), 4)),
        # two sites on the smaller side of the split: r = 4 or 9 column pairs,
        # within the budget of 4 at n = 10, 8 at n = 12 and 10 at q = 3, n = 8
        (10, 2, cnf_terms(CnfFormula(10, _random_clauses(np.random.default_rng(6), 10, 24, 5)))),
        (12, 2, cnf_terms(CnfFormula(12, ((1, 2, -5, 6, 7, -8), (8, 1, -2, 7))))),
        (
            8,
            3,
            [((4, 0, 5, 1), np.random.default_rng(8).integers(-5, 6, (3,) * 4)), ((5, 2, 0), np.ones((3,) * 3))],
        ),
        # 5 sites on each side of the split: 2**5 column pairs, past the
        # budget of 4, so broadcast-added
        (10, 2, cnf_terms(CnfFormula(10, ((1, -2, 3, 4, -5, 6, 7, -8, 9, 10), (2, -7), (4,))))),
        (4, 2, [((0, 3), np.array([[-0.0, -3.0], [2.0, -0.0]])), ((), -0.0), ((1,), [-0.0, 1.0])]),
    ],
    ids=[
        "K20", "3sat-n16", "3-coloring", "4-coloring-K8", "5sat-n10", "straddling-clauses", "q3-scrambled-sites",
        "wide-clause", "negative-zeros",
    ],
)
def test_local_objective_is_the_broadcast_sum(n, q, terms):
    assert_broadcast_sum(n, q, terms)


def test_threshold_transform():
    table = maxcut_objective(path_graph(3))
    nothing = threshold_transform(table, 3.0)
    assert np.all(nothing.values == 0)
    marked = threshold_transform(table, 2.0)
    assert sorted(np.flatnonzero(marked.values).tolist()) == [0b010, 0b101]
    # the strict cut > t is the >= cut at the next float up, also on
    # float tables with ties at t and values one float either side of it
    rng = np.random.default_rng(23)
    for _ in range(50):
        values = rng.normal(size=16) * 10.0 ** float(rng.integers(-8, 9))
        values[:2] = 0.0, -0.0
        t = float(rng.choice(values))
        values[rng.choice(16, size=5, replace=False)] = (
            t, t, t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)
        )
        strict = threshold_transform(ObjectiveTable(n=4, q=2, values=values), math.nextafter(t, math.inf))
        assert np.array_equal(strict.values, (values > t).astype(float))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_threshold_transform_refuses_non_finite_thresholds(t):
    # nan and inf would mark no string and -inf every one
    with pytest.raises(ValueError, match="threshold"):
        threshold_transform(maxcut_objective(path_graph(3)), t)


def test_threshold_objective_has_five_dimensional_algebra():
    # a two-valued objective yields d = 2 under uniform init; here the
    # marked level holds two strings, so the center is two-dimensional
    # and the dimension 5 (a single marked string gives 4)
    table = threshold_transform(maxcut_objective(path_graph(3)), 2.0)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(uniform_state(3, 2), spectrum)
    prediction = predict_dla(spectrum, overlaps)
    assert overlaps.d == 2
    assert prediction.dim == 5
    assert prediction.algebra == "su_2 + u_1 + u_1"


def test_parse_graph():
    g = parse_graph("# comment\n3 2\n1 2\n2 3\n")
    assert g == path_graph(3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no header"),
        ("3\n", "expected header"),
        ("3 one\n1 2\n", "non-integer header"),
        ("3 2\n1 2\n", "found 1"),
        ("3 1\n1 2\n2 3\n", "more edge lines"),
        ("3 1\n1 2 3\n", "expected edge"),
        ("3 1\n1 x\n", "non-integer edge"),
    ],
)
def test_parse_graph_syntax_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text)


def test_parse_graph_reports_line_numbers():
    with pytest.raises(ParseError, match="^line 4: expected edge line"):
        parse_graph("# c\n3 2\n1 2\nbad line here\n")


def test_parse_graph_invalid_instance_is_not_a_syntax_error():
    with pytest.raises(ValueError, match="^self-loop at vertex 2$") as exc:
        parse_graph("3 1\n2 2\n")
    assert not isinstance(exc.value, ParseError)


def test_parse_cnf():
    formula = parse_cnf("p cnf 2 1\n1 2 0\n")
    assert formula == CnfFormula(2, ((1, 2),))
    multi = parse_cnf("c comment\np cnf 3 2\n1 -2 0 2\n3 0\n")
    assert multi.clauses == ((1, -2), (2, 3))
    # SATLIB files end their clause data with a "%" line and a stray "0"
    assert parse_cnf("p cnf 2 1\n1 2 0\n%\n0\n\n") == formula


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 2 0\n", "before the problem line"),
        ("p cnf 2 1\n1 2\n", "unterminated"),
        ("p cnf 2 2\n1 2 0\n", "found 1"),
        ("p wcnf 2 1\n1 2 0\n", "malformed problem line"),
        ("p cnf 2 1\n1 zz 0\n", "bad literal"),
    ],
)
def test_parse_cnf_syntax_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_cnf(text)


def test_parse_cnf_invalid_instances():
    with pytest.raises(ValueError, match="empty"):
        parse_cnf("p cnf 2 1\n0\n")
    with pytest.raises(ValueError, match="outside"):
        parse_cnf("p cnf 2 1\n3 0\n")


def test_parse_custom_table():
    table = parse_custom_table('{"q": 2, "n": 1, "values": [0, 1]}')
    assert table.values.tolist() == [0.0, 1.0]
    with pytest.raises(ParseError):
        parse_custom_table("{not json")
    with pytest.raises(ValueError, match="missing key 'values'"):
        parse_custom_table('{"q": 2, "n": 1}')
    with pytest.raises(ValueError, match=r"values must have length q\*\*n = 4"):
        parse_custom_table('{"q": 2, "n": 2, "values": [0, 1]}')


@pytest.mark.parametrize(
    "text",
    [
        '{"q": 2, "n": true, "values": [0, 1]}',
        '{"q": true, "n": 1, "values": [0, 1]}',
        '{"q": 2, "n": 1, "values": [true, false]}',
        '{"q": 2, "n": 1, "values": [0, false]}',
    ],
)
def test_parse_custom_table_rejects_booleans(text):
    # the first two cases put a boolean in n or q, the last two in values
    fragment = "q and n must be integers" if '"values": [0, 1]' in text else "values must be a list"
    with pytest.raises(ValueError, match=fragment):
        parse_custom_table(text)


def test_parse_custom_table_refuses_huge_n_before_forming_q_to_the_n():
    with pytest.raises(ValueError, match=r"3\*\*1000000000 exceeds the dense-table limit"):
        parse_custom_table('{"q": 3, "n": 1000000000, "values": [0]}')


def assert_eliminated_levels(n, q, terms):
    """The eliminated levels, width rule lifted, equal the dense table's."""
    with elimination_forced():
        spectrum = local_spectrum(n, q, terms)
    dense = build_spectrum(_local_objective(n, q, terms))
    assert spectrum.level_of is None and spectrum.n_states == q**n
    assert spectrum.values.tolist() == dense.values.tolist()
    assert spectrum.multiplicities.tolist() == dense.multiplicities.tolist()


@pytest.mark.parametrize("name", GRAPHS)
def test_local_spectrum_of_bundled_graphs(name):
    graph = parse_graph((DATA / f"{name}.graph").read_text())
    assert_eliminated_levels(graph.vertex_count, 2, maxcut_terms(graph))
    for q in (2, 3, 4):
        assert_eliminated_levels(graph.vertex_count, q, coloring_terms(graph, q))


def test_local_spectrum_of_formulas():
    formulas = [
        parse_cnf((DATA / "example.cnf").read_text()),
        CnfFormula(3, ((1, 1, -2),)),  # repeated literal
        CnfFormula(3, ((2, -2), (1, 3))),  # tautology
        CnfFormula(3, ((3,), (-3,))),  # opposite unit clauses
        CnfFormula(4, ((1, -2), (2, 3))),  # variable 4 unused
        CnfFormula(2, ()),
    ]
    for formula in formulas:
        assert_eliminated_levels(formula.variable_count, 2, cnf_terms(formula))


def test_local_spectrum_of_edgeless_and_isolated_sites():
    for graph in (Graph(4, ((1, 3), (3, 4))), Graph(3, ()), Graph(1, ())):
        assert_eliminated_levels(graph.vertex_count, 2, maxcut_terms(graph))
        assert_eliminated_levels(graph.vertex_count, 3, coloring_terms(graph, 3))
    # one vertex at the dense-table limit: a single level, counted without the rule lifted
    spectrum = local_spectrum(1, 2**20, coloring_terms(Graph(1, ()), 2**20))
    assert spectrum.levels == [(0.0, 2**20)]
    assert_eliminated_levels(1, 2**20, [])


def test_local_spectrum_of_seeded_random_graphs():
    rng = np.random.default_rng(11)
    for n, m in ((6, 9), (10, 20), (14, 30), (17, 34), (20, 40)):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        picks = rng.choice(len(pairs), size=m, replace=False)
        graph = Graph(n, tuple(pairs[i] for i in sorted(picks)))
        assert_eliminated_levels(n, 2, maxcut_terms(graph))
    # the sparse 20-vertex graph is well within the width rule
    assert local_spectrum(n, 2, maxcut_terms(graph)) is not None


@st.composite
def term_lists(draw, fewest_sites=1, most_sites=5, most_terms=6):
    n = draw(st.integers(min_value=fewest_sites, max_value=most_sites))
    q = draw(st.integers(min_value=2, max_value=3))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=most_terms))):
        width = draw(st.integers(min_value=0, max_value=min(n, 3)))
        sites = draw(st.permutations(range(n)))[:width]
        entries = draw(st.lists(st.integers(-3, 3), min_size=q**width, max_size=q**width))
        terms.append((sites, np.array(entries, dtype=float).reshape((q,) * width)))
    return n, q, terms


@given(term_lists())
@settings(max_examples=80, deadline=None)
def test_local_spectrum_matches_dense_levels(problem):
    assert_eliminated_levels(*problem)


@given(term_lists())
@settings(max_examples=80, deadline=None)
def test_local_objective_of_term_lists_is_the_broadcast_sum(problem):
    assert_broadcast_sum(*problem)


@given(term_lists(fewest_sites=8, most_sites=9, most_terms=16))
@settings(max_examples=40, deadline=None)
def test_local_objective_folds_term_lists_to_the_broadcast_sum(problem):
    # below n = 6 no straddling term fits the product's budget; from n = 8
    # the budget is 2 to 15 columns, so most of these lists fold the product
    assert_broadcast_sum(*problem)


def test_local_spectrum_refuses_a_plan_wider_than_the_table():
    # K_n: the first site eliminated takes every edge at it, so its factor
    # spans all n sites and a degree axis longer than one
    for n in (3, 4, 8, 20):
        assert local_spectrum(n, 2, maxcut_terms(complete_graph(n))) is None


@pytest.mark.parametrize("n, q", [(0, 2), (3, 1), (2, 0)])
def test_local_spectrum_refuses_sizes_like_the_dense_table(n, q):
    # elimination would count one level, or none, where the dense table is refused;
    # the table, the uniform state and the coloring terms share the one rule
    for build in (local_spectrum, _local_objective):
        with pytest.raises(ValueError, match="q >= 2"):
            build(n, q, [])
    with pytest.raises(ValueError, match="q >= 2"):
        uniform_state(n, q)
    with pytest.raises(ValueError, match="q >= 2"):
        ObjectiveTable(n=n, q=q, values=[0.0])
    if n >= 1:
        with pytest.raises(ValueError, match="q >= 2"):
            coloring_terms(Graph(n, ()), q)


def test_local_spectrum_refuses_bad_terms():
    # _local_objective applies the same term check
    cut = 1.0 - np.eye(2)
    late = np.zeros(2**16)
    late[-1] = 0.5  # the last entry of a 2**16-entry term
    late = late.reshape((2,) * 16)
    for build in (local_spectrum, _local_objective):
        with pytest.raises(ValueError, match="integer"):
            build(2, 2, [((0, 1), 0.5 * cut)])
        with pytest.raises(ValueError, match="integer"):
            build(2, 2, [((0, 1), np.where(cut > 0, np.nan, 0.0))])
        with pytest.raises(ValueError, match="integer"):
            build(2, 2, [((0, 1), np.where(cut > 0, np.inf, 0.0))])
        with pytest.raises(ValueError, match="integer"):
            build(16, 2, [(range(16), late)])
        with pytest.raises(ValueError, match="max"):
            build(2, 2, [((0,), np.array([0.0, 2.0**53])), ((1,), np.array([1.0, 0.0]))])
        with pytest.raises(ValueError, match="distinct"):
            build(2, 2, [((0, 0), cut)])
        with pytest.raises(ValueError, match="distinct"):
            build(2, 2, [((0, 2), cut)])
        with pytest.raises(ValueError, match="shape"):
            build(2, 3, [((0, 1), cut)])
        with pytest.raises(ValueError, match=r"2\*\*21 exceeds the dense-table limit"):
            build(21, 2, [])
