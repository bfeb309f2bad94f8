import tracemalloc

import numpy as np
import pytest

from gmqaoa import (
    CnfFormula,
    Graph,
    ParseError,
    SizeLimitError,
    ValidationError,
    build_spectrum,
    cnf_objective,
    coloring_objective,
    complete_graph,
    cycle_graph,
    decompose_initial_state,
    house_graph,
    maxcut_objective,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    path_graph,
    predict_dla,
    threshold_transform,
    uniform_state,
)
from helpers import (
    bits_of,
    digits_of,
    naive_cnf_violations,
    naive_coloring_violations,
    naive_cut_value,
    random_graph,
)


def test_graph_validation():
    with pytest.raises(ValidationError, match="self-loop"):
        Graph(3, ((1, 1),))
    with pytest.raises(ValidationError, match="duplicate"):
        Graph(3, ((1, 2), (2, 1)))
    with pytest.raises(ValidationError, match="outside"):
        Graph(3, ((1, 4),))


def test_builders():
    assert path_graph(4).edges == ((1, 2), (2, 3), (3, 4))
    assert cycle_graph(3).edge_count == 3
    assert complete_graph(5).edge_count == 10
    assert house_graph().edge_count == 6


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
        assert np.all(both == g.edge_count)
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
    assert table.values.min() == 0 and table.values.max() == triangle.edge_count


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
        assert table.values.max() <= formula.clause_count
        for x in range(table.size):
            assert table.values[x] == naive_cnf_violations(formula, bits_of(x, n))


def test_builders_allocate_one_table():
    # bound fixed before measuring: three full-length float arrays
    rng = np.random.default_rng(7)
    clauses = tuple(
        tuple(int(v) * int(rng.choice([-1, 1])) for v in rng.choice(16, size=3, replace=False) + 1)
        for _ in range(48)
    )
    builds = [
        lambda: maxcut_objective(random_graph(np.random.default_rng(3), 16)),
        lambda: cnf_objective(CnfFormula(16, clauses)),
        lambda: coloring_objective(random_graph(np.random.default_rng(5), 10), 3),
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


def test_threshold_transform():
    table = maxcut_objective(path_graph(3))
    nothing = threshold_transform(table, 3.0)
    assert np.all(nothing.values == 0)
    marked = threshold_transform(table, 2.0)
    assert sorted(np.flatnonzero(marked.values).tolist()) == [0b010, 0b101]
    strict = threshold_transform(table, 2.0, strict=True)
    assert np.all(strict.values == 0)


def test_threshold_objective_has_five_dimensional_algebra():
    # a two-valued objective yields d = 2 under uniform init; here the
    # marked level holds two strings, so the center is two-dimensional
    # and the dimension 5 (a single marked string gives 4)
    table = threshold_transform(maxcut_objective(path_graph(3)), 2.0)
    spectrum = build_spectrum(table)
    overlaps = decompose_initial_state(uniform_state(3, 2), spectrum)
    prediction = predict_dla(spectrum, overlaps)
    assert prediction.d == 2
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
    with pytest.raises(ParseError) as exc:
        parse_graph("# c\n3 2\n1 2\nbad line here\n")
    assert exc.value.line == 4


def test_parse_graph_invalid_instance_is_not_a_syntax_error():
    with pytest.raises(ValidationError):
        parse_graph("3 1\n2 2\n")


def test_parse_cnf():
    formula = parse_cnf("p cnf 2 1\n1 2 0\n")
    assert formula == CnfFormula(2, ((1, 2),))
    multi = parse_cnf("c comment\np cnf 3 2\n1 -2 0 2\n3 0\n")
    assert multi.clauses == ((1, -2), (2, 3))


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
    with pytest.raises(ValidationError, match="empty"):
        parse_cnf("p cnf 2 1\n0\n")
    with pytest.raises(ValidationError, match="outside"):
        parse_cnf("p cnf 2 1\n3 0\n")


def test_parse_custom_table():
    table = parse_custom_table('{"q": 2, "n": 1, "values": [0, 1]}')
    assert table.values.tolist() == [0.0, 1.0]
    with pytest.raises(ParseError):
        parse_custom_table("{not json")
    with pytest.raises(ValidationError):
        parse_custom_table('{"q": 2, "n": 1}')
    with pytest.raises(ValidationError):
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
    with pytest.raises(ValidationError):
        parse_custom_table(text)


def test_parse_custom_table_refuses_huge_n_before_forming_q_to_the_n():
    with pytest.raises(SizeLimitError):
        parse_custom_table('{"q": 3, "n": 1000000000, "values": [0]}')
