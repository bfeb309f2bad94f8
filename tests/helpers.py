"""Independent reference evaluators shared by the test modules.

Everything here recomputes quantities from first principles (per-string
loops, dense exponentials) so the library's vectorized paths are checked
against genuinely independent oracles.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import scipy.linalg

from gmqaoa import problems
from gmqaoa.core import TOL_ZERO, InitialState, ObjectiveTable
from gmqaoa.oracle import TOL_INDEP, TOL_RANK, _ZERO_FLOOR, ClosureReport, gm_generators
from gmqaoa.problems import CnfFormula, Graph
from oracles import _commutant_operator


@contextmanager
def elimination_forced():
    """Lift ``local_spectrum``'s width rule, so it eliminates every plan."""
    plan = problems._elimination_plan
    with mock.patch.object(problems, "_elimination_plan", lambda *args: (plan(*args)[0], 0)):
        yield


def broadcast_objective(n: int, q: int, terms) -> np.ndarray:
    """Dense table of a sum of local terms, added one term at a time onto
    a ``(q,) * n`` array by broadcasting; site i is axis n-1-i."""
    values = np.zeros((q,) * n)
    for sites, table in terms:
        axes = [n - 1 - site for site in sites]
        shape = [q if axis in axes else 1 for axis in range(n)]
        values += np.transpose(np.asarray(table, dtype=float), np.argsort(axes)).reshape(shape)
    return values.reshape(-1)


def bits_of(index: int, n: int) -> list[int]:
    """Bit i of the string index is the value at site i (site 0 least significant)."""
    return [(index >> i) & 1 for i in range(n)]


def digits_of(index: int, n: int, q: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(index % q)
        index //= q
    return out


def naive_cut_value(graph: Graph, assignment: list[int]) -> int:
    return sum(1 for u, v in graph.edges if assignment[u - 1] != assignment[v - 1])


def naive_coloring_violations(graph: Graph, coloring: list[int]) -> int:
    return sum(1 for u, v in graph.edges if coloring[u - 1] == coloring[v - 1])


def naive_cnf_violations(formula: CnfFormula, assignment: list[int]) -> int:
    violated = 0
    for clause in formula.clauses:
        satisfied = False
        for lit in clause:
            value = assignment[abs(lit) - 1]
            if (lit > 0 and value == 1) or (lit < 0 and value == 0):
                satisfied = True
                break
        if not satisfied:
            violated += 1
    return violated


def brute_force_maxcut_table(graph: Graph) -> ObjectiveTable:
    n = graph.vertex_count
    values = [naive_cut_value(graph, bits_of(x, n)) for x in range(1 << n)]
    return ObjectiveTable(n=n, q=2, values=np.array(values, dtype=float))


def random_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.5) -> Graph:
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                edges.append((u, v))
    if not edges:
        edges.append((1, 2))
    return Graph(n, tuple(edges))


def dense_circuit_reference(amplitudes, values, betas, gammas):
    """Apply the layered evolution through dense matrix exponentials."""
    hp = np.diag(np.asarray(values, dtype=complex))
    gm = -np.outer(amplitudes, np.conj(amplitudes))
    state = np.asarray(amplitudes, dtype=complex).copy()
    for beta, gamma in zip(betas, gammas):
        state = scipy.linalg.expm(-1j * gamma * hp) @ state
        state = scipy.linalg.expm(-1j * beta * gm) @ state
    return state


def exact_unit(d: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((d, d))
    out[i, j] = 1.0
    return out


def commutant_null_space(generators) -> np.ndarray:
    """Orthonormal basis (columns, row-major vec(X)) of {X : [X, B] = 0 for all B}.

    Null space of the operator sum_B ad_B^dag ad_B that
    ``oracles.commutant_dimension`` builds; eigenvalues below ``TOL_RANK``
    count as null.
    """
    eigs, vecs = np.linalg.eigh(_commutant_operator(generators))
    return vecs[:, eigs < TOL_RANK]


def twirled_mean_loss(objective: ObjectiveTable, state: InitialState) -> tuple[float, int]:
    """Exact large-depth mean loss Tr(Phi(rho) H_p) and the commutant dimension.

    The group average Phi(rho) of rho = |xi><xi| over the group generated
    by the problem Hamiltonian and the Grover mixer is the Hilbert-Schmidt
    projection of rho onto the commutant of the two generators.
    """
    h_p, g_m = gm_generators(objective.values, state.amplitudes)
    basis = commutant_null_space([h_p, g_m])
    amps = state.amplitudes
    rho = np.outer(amps, amps.conj()).ravel()
    n = amps.shape[0]
    phi = (basis @ (basis.conj().T @ rho)).reshape(n, n)
    return float(np.trace(phi @ h_p).real), basis.shape[1]


def reference_decomposition(amplitudes, values) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Weights c_j and unit components xi_j by a per-string loop.

    Levels are the distinct values in descending order.  A level counts
    when its weight ||P_j xi|| exceeds ``TOL_ZERO``; then c_j is that
    weight and xi_j = P_j xi / c_j.
    """
    amps = [complex(a) for a in amplitudes]
    levels = sorted(set(float(v) for v in values), reverse=True)
    c = np.zeros(len(levels))
    components = {}
    for j, value in enumerate(levels):
        members = [x for x in range(len(amps)) if float(values[x]) == value]
        weight = sum(abs(amps[x]) ** 2 for x in members) ** 0.5
        if not weight > TOL_ZERO:
            continue
        c[j] = weight
        xi = np.zeros(len(amps), dtype=complex)
        for x in members:
            xi[x] = amps[x] / weight
        components[j] = xi
    return c, components


def level_state(values, coefficients: dict[float, complex]) -> InitialState:
    """State with amplitude c_v / sqrt(n_v) on every string of value v, normalized.

    Values missing from ``coefficients`` get amplitude zero.
    """
    values = np.asarray(values, dtype=float)
    amps = np.zeros(values.size, dtype=complex)
    for value, coeff in coefficients.items():
        members = values == value
        amps[members] = coeff / np.sqrt(np.count_nonzero(members))
    return InitialState(amps / np.linalg.norm(amps))


def reference_lie_closure(generators):
    """An all-pairs Lie closure with ``oracle.closure_report``'s per-candidate test.

    Per round, every element of the previous round's additions is commuted
    with every basis element present at the round's start, not only with
    the generators; each commutator takes the same two-pass Gram-Schmidt
    test against the whole current basis.  It forms about D**2 / 2
    candidates for a D-dimensional algebra and reaches the same algebra.
    It works on complex matrices, so it closes a complex generator set
    as given, with no realification or gauge.  Like ``closure_report``,
    a run that accepts a residual below sqrt(eps / TOL_INDEP) is redone
    with each round's commutators accepted largest unscaled residual
    first (``_pivoted_closure``).  Inputs are not validated.
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    dim_space = mats[0].shape[0]
    size2 = dim_space * dim_space
    basis = np.zeros((size2, dim_space, dim_space), dtype=complex)
    rows = basis.reshape(size2, size2).view(float)
    count = 0
    candidates = 0
    max_discarded = 0.0
    min_accepted = math.inf

    def try_add(mat, floor=0.0):
        nonlocal count, max_discarded, min_accepted
        nrm = float(np.linalg.norm(mat))
        if nrm <= floor:
            return False
        res = mat.ravel().view(float) / nrm
        if count:
            for _ in range(2):
                res = res - (rows[:count] @ res) @ rows[:count]
                rnorm = float(np.linalg.norm(res))
                if rnorm <= TOL_INDEP:
                    max_discarded = max(max_discarded, rnorm)
                    return False
            min_accepted = min(min_accepted, rnorm)
        new = res.view(complex).reshape(dim_space, dim_space)
        new = 0.5 * (new - new.conj().T)
        basis[count] = new / np.linalg.norm(new)
        count += 1
        return True

    for g in mats:
        if count == size2:
            break
        try_add(g)
    n_gens = count
    frontier = range(count)
    rounds = 0
    while frontier and count < size2:
        rounds += 1
        start = count
        span = basis[:start]
        for fi in frontier:
            f = basis[fi]
            commutators = np.matmul(f, span) - np.matmul(span, f)
            candidates += start
            for k in range(start):
                if try_add(commutators[k], floor=_ZERO_FLOOR) and count == size2:
                    break
            if count == size2:
                break
        frontier = range(start, count)
    report = ClosureReport(
        dimension=count,
        rounds=rounds,
        candidates=candidates,
        max_residual_discarded=max_discarded,
        min_residual_accepted=min_accepted if min_accepted < math.inf else None,
    )
    if min_accepted < math.sqrt(np.finfo(float).eps / TOL_INDEP):
        return _pivoted_closure(basis[:n_gens])
    return basis[:count], report


def _pivoted_closure(gens):
    """All-pairs rounds of unit generators, each round's commutators taken
    largest unscaled residual first, one round at a time.

    Only the dimension and span are meant to be compared: the
    other report fields count this run alone.
    """
    dim_space = gens.shape[1]
    size2 = dim_space * dim_space
    basis = list(gens.reshape(len(gens), size2).view(float))
    frontier = list(range(len(basis)))
    rounds = 0
    while frontier and len(basis) < size2:
        rounds += 1
        start = len(basis)
        span = np.array(basis).view(complex).reshape(start, dim_space, dim_space)
        cands = np.concatenate([np.matmul(span, span[i]) - np.matmul(span[i], span) for i in frontier])
        cands = cands.reshape(len(cands), size2).view(float)
        while len(cands) and len(basis) < size2:
            rows = np.array(basis)
            for _ in range(2):
                cands = cands - (cands @ rows.T) @ rows
            norms = np.linalg.norm(cands, axis=1)
            k = int(np.argmax(norms))
            if norms[k] <= TOL_INDEP:
                break
            new = cands[k].view(complex).reshape(dim_space, dim_space)
            new = 0.5 * (new - new.conj().T)
            basis.append((new / np.linalg.norm(new)).ravel().view(float))
            cands = np.delete(cands, k, axis=0)
        frontier = list(range(start, len(basis)))
    count = len(basis)
    report = ClosureReport(
        dimension=count,
        rounds=rounds,
        candidates=0,
        max_residual_discarded=0.0,
        min_residual_accepted=None,
        schedule="all-pairs",
    )
    return np.array(basis).view(complex).reshape(count, dim_space, dim_space), report
