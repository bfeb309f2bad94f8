"""Builders and parsers turning problem instances into objective tables."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import ObjectiveTable, Spectrum, _is_integer, dense_size

#: Largest sum over the terms of max |t| that ``local_spectrum`` and
#: ``_local_objective`` accept: up to 2**53 every partial sum of integer
#: terms is exact in a float, so the dense table does not depend on the
#: order of the sums and its levels are those that elimination counts.
MAX_EXACT_TERM_SUM = 2**53


class ParseError(ValueError):
    """Malformed input text; the message names the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..vertex_count with no self-loops."""

    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if not _is_integer(self.vertex_count) or self.vertex_count < 1:
            raise ValueError(f"vertex count must be an integer >= 1, got {self.vertex_count!r}")
        seen = set()
        for u, v in self.edges:
            if not (_is_integer(u) and _is_integer(v)):
                raise ValueError(f"edge ({u!r},{v!r}) has a vertex that is not an integer")
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise ValueError(f"edge ({u},{v}) references a vertex outside 1..{self.vertex_count}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))


@dataclass(frozen=True)
class CnfFormula:
    """CNF formula with DIMACS-signed literals."""

    variable_count: int
    clauses: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_integer(self.variable_count) or self.variable_count < 1:
            raise ValueError(f"variable count must be an integer >= 1, got {self.variable_count!r}")
        for idx, clause in enumerate(self.clauses):
            if len(clause) == 0:
                raise ValueError(f"clause {idx + 1} is empty")
            for lit in clause:
                if not _is_integer(lit):
                    raise ValueError(f"clause {idx + 1} uses literal {lit!r}, not an integer")
                if lit == 0 or not (1 <= abs(lit) <= self.variable_count):
                    raise ValueError(f"clause {idx + 1} uses literal {lit} outside 1..{self.variable_count}")
        object.__setattr__(self, "clauses", tuple(tuple(int(l) for l in c) for c in self.clauses))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((i, i + 1) for i in range(1, n)) + ((n, 1),))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(1, n + 1), 2)))


def house_graph() -> Graph:
    """Square 1-2-3-4 with apex 5 joined to vertices 1 and 4."""
    return Graph(5, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (4, 5)))


def _checked_terms(n: int, q: int, terms) -> list:
    """The terms as ``(sites, table)`` pairs with int sites and float tables.

    Refuses a term unless its sites are distinct and lie in 0..n-1 and its
    table has shape ``(q,) * len(sites)`` and integer values, and refuses
    the list when the sum over the terms of max |t| exceeds
    ``MAX_EXACT_TERM_SUM``, so that every partial sum of terms is exact in
    a float.
    """
    checked, bound = [], 0
    for sites, table in terms:
        sites = tuple(int(site) for site in sites)
        table = np.asarray(table, dtype=float)
        if len(set(sites)) != len(sites) or not all(0 <= site < n for site in sites):
            raise ValueError(f"term sites {sites} must be distinct and lie in 0..{n - 1}")
        if table.shape != (q,) * len(sites):
            raise ValueError(f"term on sites {sites} needs a table of shape {(q,) * len(sites)}")
        if not np.all(np.isfinite(table) & (table == np.round(table))):
            raise ValueError("local terms must be integer-valued")
        bound += max(-int(table.min()), int(table.max()))
        checked.append((sites, table))
    if bound > MAX_EXACT_TERM_SUM:
        raise ValueError(f"the terms' sum of max |t| exceeds {MAX_EXACT_TERM_SUM}")
    return checked


def _on_grid(table: np.ndarray, axes, ndim: int, q: int) -> np.ndarray:
    """``table`` as a broadcastable array on a ``(q,) * ndim`` grid: its
    leading axes land on grid ``axes``, length 1 on the others, and any
    further axis stays last."""
    k = len(axes)
    shape = [q if axis in axes else 1 for axis in range(ndim)] + list(table.shape[k:])
    return np.transpose(table, list(np.argsort(axes)) + list(range(k, table.ndim))).reshape(shape)


def _columns(block: np.ndarray, axes, ndim: int, q: int) -> np.ndarray:
    """The ``(q**ndim, r)`` matrix of a ``block`` whose last axis, of
    length r, indexes the columns and whose other axes land on ``axes`` of a
    ``(q,) * ndim`` grid."""
    grid = _on_grid(block, axes, ndim, q)
    return np.broadcast_to(grid, (q,) * ndim + grid.shape[-1:]).reshape(q**ndim, -1)


def _local_objective(n: int, q: int, terms) -> ObjectiveTable:
    """Dense table of a sum of integer local terms over q-ary strings on n sites.

    Each term is ``(sites, table)``: distinct 0-based sites and a
    ``(q,) * len(sites)`` integer array indexed by their digits in that
    order, checked as in ``local_spectrum``.  Site i is axis n-1-i of a
    ``(q,) * n`` array, so its C-order ravel is the string index with site
    0 the least significant digit; this is the one place that maps sites
    to string indices.

    The table is a sum of matrix products V @ U.T, viewed as a
    ``(q**(n-h), q**h)`` matrix whose rows are the digits of the high sites
    h..n-1 and whose columns are those of the low sites 0..h-1, h = n // 2.
    The terms inside each half are added up into a half-table, which gives
    one column pair: (ones, low half-table) and (high half-table, ones).  A
    term that straddles the split, with k sites on its smaller side, gives
    r = q**k pairs, one per digit assignment a of those k sites: the term
    fixed at a, spread over the other half, and the one-hot indicator of
    a.  A product takes at most b = q**n // (4 * (q**(n-h) + q**h)) such
    pairs, whose factors and stacked copies hold at most half a table; it
    is added into the table before a term would pass b, a term with r > b
    is broadcast-added, and the half-table pair joins the last product.
    Sums are exact (``MAX_EXACT_TERM_SUM``) in any split or order, and each
    entry sums in the low half-table, which holds no -0.0, so none is -0.0.
    """
    dense_size(n, q)
    h = n // 2
    sizes = (n - h, h)  # sites in the high half (rows), in the low half (columns)
    budget = q**n // (4 * (q ** sizes[0] + q ** sizes[1]))
    halves = [np.zeros((q,) * m) for m in sizes]
    blocks, wide, width, values = ([], []), [], 0, None
    for sites, table in _checked_terms(n, q, terms):
        upper = [i for i, site in enumerate(sites) if site >= h]
        lower = [i for i, site in enumerate(sites) if site < h]
        axes = [n - 1 - site if site >= h else h - 1 - site for site in sites]
        if not (upper and lower):
            half = int(not upper)  # a term on no site joins the low half
            halves[half] += _on_grid(table, axes, sizes[half], q)
        elif q ** min(len(upper), len(lower)) > budget:
            wide.append((sites, table))
        else:
            cut = int(len(lower) <= len(upper))  # the half with fewer of its sites
            fixed, kept = (lower, upper) if cut else (upper, lower)
            r = q ** len(fixed)
            if width + r > budget:  # fold the product so far into the table
                values, blocks, width = _add_product(values, *blocks), ([], []), 0
            width += r
            # last axis: the digit assignment of the fixed sites, in C order
            sliced = np.moveaxis(table, fixed, range(len(kept), len(sites)))
            sliced = sliced.reshape((q,) * len(kept) + (r,))
            one_hot = np.eye(r).reshape((q,) * len(fixed) + (r,))
            blocks[1 - cut].append(_columns(sliced, [axes[i] for i in kept], sizes[1 - cut], q))
            blocks[cut].append(_columns(one_hot, [axes[i] for i in fixed], sizes[cut], q))
    rows = [np.ones((q ** sizes[0], 1)), halves[0].reshape(-1, 1), *blocks[0]]
    cols = [halves[1].reshape(-1, 1), np.ones((q ** sizes[1], 1)), *blocks[1]]
    values = _add_product(values, rows, cols)
    grid = values.reshape((q,) * n)
    for sites, table in wide:
        grid += _on_grid(table, [n - 1 - site for site in sites], n, q)
    return ObjectiveTable(n=n, q=q, values=values.reshape(-1))


def _add_product(values, rows, cols) -> np.ndarray:
    """``values += hstack(rows) @ hstack(cols).T``, or the product if ``values`` is None."""
    product = np.hstack(rows) @ np.hstack(cols).T
    return product if values is None else np.add(values, product, out=values)


def local_spectrum(n: int, q: int, terms):
    """Levels of a sum of integer local terms, counted by variable elimination.

    Gives the ``values`` and ``multiplicities`` of
    ``build_spectrum(_local_objective(n, q, terms))`` without the q**n
    table, as a ``Spectrum`` with no ``level_of``, or None when the
    elimination would need a factor larger than that table.

    The multiplicities are the coefficients of the counting polynomial
    sum_x z**(F(x) - F_min), F_min the sum of the term minima (Dechter,
    "Bucket elimination", 1999).  Each term is a factor whose entries are
    polynomials in z, one-hot along a trailing degree axis.  The sites are
    summed out one at a time in min-degree order, ties to the lowest site:
    each step multiplies the factors that hold the site and sums it out,
    so the cost is exponential in the elimination width, not in n.  The
    plan needs only the scopes and the terms' ranges, so it is made before
    any product; None is returned when its largest factor, q**|scope|
    entries times the length of the degree axis, exceeds q**n.

    Term tables must be integer-valued with sum of max |t| at most
    ``MAX_EXACT_TERM_SUM`` (``_checked_terms``, as for the dense table),
    and q**n within the dense-table limit, so every count, at most q**n,
    is exact in int64.
    """
    size = dense_size(n, q)
    scopes, tables, spans, offset = [], [], [], 0
    for sites, table in _checked_terms(n, q, terms):
        low, high = int(table.min()), int(table.max())
        scopes.append(sites)
        tables.append(table - low)
        spans.append(high - low)
        offset += low
    steps, largest = _elimination_plan(n, q, scopes, spans)
    if largest > size:
        return None
    factors = [
        (shifted[..., None] == np.arange(span + 1)).astype(np.int64)
        for shifted, span in zip(tables, spans)
    ]
    absorbed_any = set()
    for site, absorbed, scope in steps:
        axes = (site,) + scope
        product = np.ones((q,) + (1,) * len(scope) + (1,), dtype=np.int64)
        for i in absorbed:
            grid_axes = [axes.index(s) for s in scopes[i]]
            product = _polynomial_product(product, _on_grid(factors[i], grid_axes, len(axes), q))
        factors.append(product.sum(axis=0))
        scopes.append(scope)
        absorbed_any.update(absorbed)
    counts = np.ones(1, dtype=np.int64)
    for i, factor in enumerate(factors):
        if i not in absorbed_any:  # every scope is empty by now
            counts = _polynomial_product(counts, factor)
    degrees = np.flatnonzero(counts)[::-1]
    return Spectrum(
        values=(offset + degrees).astype(float), multiplicities=counts[degrees], n_states=size
    )


def _elimination_plan(n: int, q: int, scopes, spans):
    """Min-degree elimination order on the term scopes, ties to the lowest site.

    Returns the steps ``(site, absorbed, scope)`` and the entries of the
    largest factor a step multiplies out.  Factor i < len(scopes) is term
    i and step k makes factor len(scopes) + k: the product of the
    ``absorbed`` factors, which hold ``site``, with ``site`` summed out,
    over the sites ``scope``.  A site's degree is the number of other
    sites it shares a live factor with.
    """
    neighbours = [set() for _ in range(n)]
    holders = [set() for _ in range(n)]
    for i, scope in enumerate(scopes):
        for site in scope:
            neighbours[site].update(scope)
            holders[site].add(i)
    for site in range(n):
        neighbours[site].discard(site)
    spans = list(spans)
    remaining = set(range(n))
    steps, largest = [], 0
    while remaining:
        site = min(remaining, key=lambda s: (len(neighbours[s]), s))
        remaining.remove(site)
        absorbed = sorted(holders[site])
        scope = tuple(sorted(neighbours[site]))
        span = sum(spans[i] for i in absorbed)
        largest = max(largest, q ** (len(scope) + 1) * (span + 1))
        for other in scope:
            holders[other].difference_update(absorbed)
            holders[other].add(len(spans))
            neighbours[other].update(scope)
            neighbours[other].difference_update((other, site))
        spans.append(span)
        steps.append((site, absorbed, scope))
    return steps, largest


def _polynomial_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of two broadcastable factors whose entries are
    integer polynomials along the last axis."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (a.shape[-1] + b.shape[-1] - 1,)
    out = np.zeros(shape, dtype=np.int64)
    for k in range(a.shape[-1]):
        out[..., k : k + b.shape[-1]] += a[..., k : k + 1] * b
    return out


def maxcut_terms(graph: Graph) -> list:
    """One term per edge: 1 where its endpoints land on opposite sides of the cut.

    Vertex i corresponds to bit i-1 of the string index.
    """
    cut = 1.0 - np.eye(2)
    return [((u - 1, v - 1), cut) for u, v in graph.edges]


def maxcut_objective(graph: Graph) -> ObjectiveTable:
    """Number of edges whose endpoints land on opposite sides of the cut."""
    return _local_objective(graph.vertex_count, 2, maxcut_terms(graph))


def coloring_terms(graph: Graph, q: int) -> list:
    """One term per edge: 1 where its endpoints receive the same of q colors.

    One q-ary dit per vertex; vertex i is digit i-1 of the string index.
    """
    dense_size(graph.vertex_count, q)  # before the q x q table: any edge then means q <= 2**10
    same = np.eye(q) if graph.edges else None  # q reaches 2**20 only on one vertex, with no edge
    return [((u - 1, v - 1), same) for u, v in graph.edges]


def coloring_objective(graph: Graph, q: int) -> ObjectiveTable:
    """Number of edges whose endpoints receive the same of q colors."""
    return _local_objective(graph.vertex_count, q, coloring_terms(graph, q))


def cnf_terms(formula: CnfFormula) -> list:
    """One term per clause: 1 on the assignments that falsify it.

    Variable i is bit i-1 of the string index; a positive literal is true
    when its bit is 1.
    """
    dense_size(formula.variable_count, 2)  # before the 2**k tables: then every clause has k <= 20
    terms = []
    for clause in formula.clauses:
        variables = sorted({abs(lit) for lit in clause})
        falsified = np.ones((2,) * len(variables))
        for lit in clause:
            # the assignments on which the literal holds satisfy the clause
            np.moveaxis(falsified, variables.index(abs(lit)), 0)[int(lit > 0)] = 0.0
        terms.append(([v - 1 for v in variables], falsified))
    return terms


def cnf_objective(formula: CnfFormula) -> ObjectiveTable:
    """Number of clauses falsified by each assignment."""
    return _local_objective(formula.variable_count, 2, cnf_terms(formula))


def _check_threshold(t: float) -> None:
    # an infinite or NaN threshold marks every string or none of them
    if not math.isfinite(t):
        raise ValueError(f"threshold must be a finite number, got {t!r}")


def threshold_transform(objective: ObjectiveTable, t: float) -> ObjectiveTable:
    """Two-valued objective marking the strings whose value is >= the
    finite threshold t.  For t below the largest float, the strict cut
    > t is >= ``math.nextafter(t, math.inf)``: no float lies between."""
    _check_threshold(t)
    marked = objective.values >= t
    return ObjectiveTable(n=objective.n, q=objective.q, values=marked.astype(float))


def parse_graph(text: str) -> Graph:
    """Parse an edge-list description.

    Format: optional ``#`` comment lines; first data line ``n m``; then m
    lines ``u v`` with 1-indexed vertices.
    """
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", line=lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer header fields {parts!r}", line=lineno) from None
            if n < 1 or m < 0:
                raise ParseError("need n >= 1 and m >= 0", line=lineno)
            header = (n, m)
            continue
        if len(edges) >= header[1]:
            raise ParseError("more edge lines than declared in the header", line=lineno)
        if len(parts) != 2:
            raise ParseError("expected edge line 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer edge endpoints {parts!r}", line=lineno) from None
        edges.append((u, v))
    if header is None:
        raise ParseError("no header line found")
    if len(edges) != header[1]:
        raise ParseError(f"header declares {header[1]} edges, found {len(edges)}")
    return Graph(header[0], tuple(edges))


def parse_cnf(text: str) -> CnfFormula:
    """Parse a DIMACS cnf description."""
    nvars = nclauses = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line == "%":  # SATLIB's end of clause data; a stray "0" may follow
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise ParseError("duplicate problem line", line=lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line, expected 'p cnf <vars> <clauses>'", line=lineno)
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer counts in problem line {parts!r}", line=lineno) from None
            continue
        if nvars is None:
            raise ParseError("clause data before the problem line", line=lineno)
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", line=lineno) from None
    if nvars is None:
        raise ParseError("missing problem line")
    clauses: list[tuple] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise ParseError("unterminated clause (missing trailing 0)")
    if len(clauses) != nclauses:
        raise ParseError(f"header declares {nclauses} clauses, found {len(clauses)}")
    return CnfFormula(nvars, tuple(clauses))


def is_json_number(value) -> bool:
    """True for a parsed JSON number.  JSON booleans parse to ``bool``, a
    subclass of ``int``, and are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_custom_table(text: str) -> ObjectiveTable:
    """Parse a JSON objective table {"q": int, "n": int, "values": [...]}.

    Values are listed in string-index order (site 0 least significant).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object with keys q, n, values")
    for key in ("q", "n", "values"):
        if key not in payload:
            raise ValueError(f"missing key {key!r}")
    q, n, values = payload["q"], payload["n"], payload["values"]
    if not all(_is_integer(v) for v in (q, n)):
        raise ValueError("q and n must be integers")
    if not isinstance(values, list) or not all(is_json_number(v) for v in values):
        raise ValueError("values must be a list of numbers")
    return ObjectiveTable(n=n, q=q, values=np.asarray(values, dtype=float))
