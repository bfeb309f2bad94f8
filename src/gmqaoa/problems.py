"""Builders and parsers turning problem instances into objective tables."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import ObjectiveTable, SizeLimitError, dense_size


class ParseError(ValueError):
    """Malformed input text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
    """Structurally valid text describing an invalid instance."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..vertex_count with no self-loops."""

    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValidationError("vertex count must be at least 1")
        seen = set()
        for u, v in self.edges:
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise ValidationError(f"edge ({u},{v}) references a vertex outside 1..{self.vertex_count}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge ({u},{v})")
            seen.add(key)
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CnfFormula:
    """CNF formula with DIMACS-signed literals."""

    variable_count: int
    clauses: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValidationError("variable count must be at least 1")
        for idx, clause in enumerate(self.clauses):
            if len(clause) == 0:
                raise ValidationError(f"clause {idx + 1} is empty")
            for lit in clause:
                if lit == 0 or not (1 <= abs(lit) <= self.variable_count):
                    raise ValidationError(
                        f"clause {idx + 1} uses literal {lit} outside 1..{self.variable_count}"
                    )
        object.__setattr__(self, "clauses", tuple(tuple(int(l) for l in c) for c in self.clauses))

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((i, i + 1) for i in range(1, n)) + ((n, 1),))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(1, n + 1), 2)))


def house_graph() -> Graph:
    """Square 1-2-3-4 with apex 5 joined to vertices 1 and 4."""
    return Graph(5, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (4, 5)))


def _local_objective(n: int, q: int, terms) -> ObjectiveTable:
    """Dense table of a sum of local terms over q-ary strings on n sites.

    Each term is ``(sites, table)``: distinct 0-based sites and a
    ``(q,) * len(sites)`` array indexed by their digits in that order.
    Site i is axis n-1-i of a ``(q,) * n`` array, so its C-order ravel is
    the string index with site 0 the least significant digit; this is the
    one place that maps sites to string indices.
    """
    dense_size(n, q)
    values = np.zeros((q,) * n)
    for sites, table in terms:
        axes = [n - 1 - site for site in sites]
        shape = [q if axis in axes else 1 for axis in range(n)]
        values += np.transpose(table, np.argsort(axes)).reshape(shape)
    return ObjectiveTable(n=n, q=q, values=values.reshape(-1))


def maxcut_objective(graph: Graph) -> ObjectiveTable:
    """Number of edges whose endpoints land on opposite sides of the cut.

    Vertex i corresponds to bit i-1 of the string index.
    """
    cut = 1.0 - np.eye(2)
    return _local_objective(graph.vertex_count, 2, [((u - 1, v - 1), cut) for u, v in graph.edges])


def coloring_objective(graph: Graph, q: int) -> ObjectiveTable:
    """Number of edges whose endpoints receive the same of q colors.

    One q-ary dit per vertex; vertex i is digit i-1 of the string index.
    """
    if q < 2:
        raise ValueError("need at least 2 colors")
    same = np.eye(q) if graph.edges else None  # q reaches 2**20 only on one vertex, with no edge
    return _local_objective(graph.vertex_count, q, [((u - 1, v - 1), same) for u, v in graph.edges])


def cnf_objective(formula: CnfFormula) -> ObjectiveTable:
    """Number of clauses falsified by each assignment.

    Variable i is bit i-1 of the string index; a positive literal is true
    when its bit is 1.
    """
    terms = []
    for clause in formula.clauses:
        variables = sorted({abs(lit) for lit in clause})
        falsified = np.ones((2,) * len(variables))
        for lit in clause:
            # the assignments on which the literal holds satisfy the clause
            np.moveaxis(falsified, variables.index(abs(lit)), 0)[int(lit > 0)] = 0.0
        terms.append(([v - 1 for v in variables], falsified))
    return _local_objective(formula.variable_count, 2, terms)


def threshold_transform(objective: ObjectiveTable, t: float, strict: bool = False) -> ObjectiveTable:
    """Two-valued objective marking strings at or above the threshold.

    Non-strict (>= t) by default; ``strict`` switches to > t.
    """
    marked = objective.values > t if strict else objective.values >= t
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
        if not line or line.startswith("c") or line == "%":
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
        raise ValidationError("expected a JSON object with keys q, n, values")
    for key in ("q", "n", "values"):
        if key not in payload:
            raise ValidationError(f"missing key {key!r}")
    q, n, values = payload["q"], payload["n"], payload["values"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (q, n)):
        raise ValidationError("q and n must be integers")
    if not isinstance(values, list) or not all(is_json_number(v) for v in values):
        raise ValidationError("values must be a list of numbers")
    try:
        return ObjectiveTable(n=n, q=q, values=np.asarray(values, dtype=float))
    except SizeLimitError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
