"""Oracles of record for the paper's claims, shared by the test modules.

No report runs these; they check the library's reports against the
definitions the paper states:

- ``lie_closure``: the dense basis of ``gmqaoa.oracle.closure_report``'s
  closure, with complex generator sets closed through their
  realification;
- ``commutant_dimension``: the dense Kronecker commutant, the nullity of
  sum_k ad_k^dag ad_k on N x N matrices, against which
  ``gmqaoa.oracle.grover_commutant_dimension`` is checked.  Its spectrum
  has no structural gap, so it keeps its own ``tol_rank``, with the rule
  ``_check_tol_rank``;
- ``extract_matrix_units``: the constructive proof's recovery of every
  matrix unit from a diagonal/frame generator pair (acceptance test A6);
- ``run_circuit`` and its layers: the dense q**n statevector circuit,
  against which the Monte Carlo's evolution in W0 is checked, with
  ``sample_parameters`` drawing its angles from the Monte Carlo's stream.

The library's own closure (``_closure``), input rules (``_basis_array``,
``_check_oracle_size``) and angle stream (``_draw_angles``) are shared,
so these oracles refuse what the library refuses and see the same
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from gmqaoa.core import TOL_ZERO, InitialState, ObjectiveTable
from gmqaoa.oracle import TOL_RANK, ClosureReport, _basis_array, _check_oracle_size, _closure
from gmqaoa.simulator import BETA_MAX, GAMMA_MAX, _draw_angles


def lie_closure(generators: Sequence[np.ndarray]) -> Tuple[np.ndarray, ClosureReport]:
    """The closure of ``closure_report``, with its dense basis.

    Returns a ``(k, N, N)`` array of skew-Hermitian matrices, orthonormal
    under Re tr(A^dag B), and the closure report.  The basis lists the
    so(N) elements, then the i Sym(N) elements, each in acceptance order.

    A set whose generators are not each exactly real or exactly imaginary
    is closed through its realification X -> [[Re X, -Im X], [Im X, Re X]],
    an injective Lie-algebra map from u(N) into so(2N): the real images
    close to the same dimension, and each basis element B maps back to
    B_11 + i B_21, renormalized, since the map doubles Re tr(A^dag B).
    The report is then that of the 2N x 2N run, which the oracle cap
    bounds like any other.
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if any(g.real.any() and g.imag.any() for g in mats):
        n = mats[0].shape[0]
        real = [np.block([[g.real, -g.imag], [g.imag, g.real]]) for g in mats]
        basis, report = lie_closure(real)
        back = basis[:, :n, :n] + 1j * basis[:, n:, :n]
        return back / np.linalg.norm(back, axis=(1, 2))[:, None, None], report
    packing, classes, report = _closure(mats)
    parts = [packing.unpack(rows, kind) * (1j if kind == "p" else 1) for kind, rows in classes]
    return np.concatenate(parts).astype(complex, copy=False), report


def _commutant_operator(basis) -> np.ndarray:
    """sum_k ad_k^dag ad_k over a (k, N, N) array-like, as a Hermitian
    N**2 x N**2 matrix acting on row-major vec(X)."""
    elements = _basis_array(basis)
    n = elements.shape[1]
    _check_oracle_size(n)
    eye = np.eye(n)
    acc = np.zeros((n * n, n * n), dtype=complex)
    for b in elements:
        # ad_b^dag ad_b expanded into Kronecker terms; avoids forming
        # the n^2 x n^2 product explicitly
        bh = b.conj().T
        acc += np.kron(bh @ b, eye)
        acc += np.kron(eye, (b @ bh).T)
        acc -= np.kron(bh, b.T)
        acc -= np.kron(b, bh.T)
    return 0.5 * (acc + acc.conj().T)


def _check_tol_rank(tol_rank: float) -> None:
    # at 0 round-off decides which null eigenvalues count
    if not (math.isfinite(tol_rank) and tol_rank > 0.0):
        raise ValueError(f"tol_rank must be finite and > 0, got {tol_rank}")


def commutant_dimension(basis, tol_rank: float = TOL_RANK) -> int:
    """Complex dimension of {X : [X, B_k] = 0 for all k}.

    ``basis`` is any (k, N, N) array-like, such as the closure basis or a
    list of generators.  Computed as the nullity of sum_k ad_k^dag ad_k
    acting on complex N x N matrices; eigenvalues below ``tol_rank``
    count as null; ``tol_rank`` must be finite and > 0.
    """
    _check_tol_rank(tol_rank)
    eigs = np.linalg.eigvalsh(_commutant_operator(basis))
    return int(np.count_nonzero(eigs < tol_rank))


class FrameConditionError(ValueError):
    """The generator matrix misses a nonzero entry the construction divides by."""


class AmbiguousSelectorError(ValueError):
    """A spectral mask keeps entries besides the targeted one.

    Happens when distinct eigenvalue pairs share the same difference;
    only the extreme difference is guaranteed unique.
    """


class MatrixUnitError(ValueError):
    """Extracted units deviate from exact matrix units beyond tolerance."""


def frame_condition(a: np.ndarray) -> bool:
    """True iff the first/last row and column entries (corners excluded)
    are all nonzero; vacuously true for 2 x 2 matrices."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ValueError("need a square matrix of size >= 2")
    k = a.shape[0]
    for j in range(1, k - 1):
        if (
            abs(a[0, j]) <= TOL_ZERO
            or abs(a[j, 0]) <= TOL_ZERO
            or abs(a[j, k - 1]) <= TOL_ZERO
            or abs(a[k - 1, j]) <= TOL_ZERO
        ):
            return False
    return True


def extract_matrix_units(
    diag: np.ndarray,
    a: np.ndarray,
    tol: float = 1e-9,
) -> Dict[Tuple[int, int], np.ndarray]:
    """Recover all off-diagonal matrix units from a diagonal/frame pair.

    ``diag`` holds strictly decreasing values lam_0 > ... > lam_{d-1};
    ``a`` must satisfy the frame condition and, additionally, have
    nonzero (0, d-1) and (d-1, 0) entries, which the construction divides
    by.  Spectral selectors are entrywise masks keeping exactly the
    entries whose eigenvalue difference lam_k - lam_l matches the target
    (zero-difference diagonal entries are always dropped), by
    |Delta - target| < 1e-9 for every spectrum, integer-valued or not.
    Only the extreme difference is guaranteed to be attained once;
    whenever an intermediate mask keeps a nonzero entry besides its
    target, the instance is rejected with :class:`AmbiguousSelectorError`
    rather than guessed at.

    Returns a dict keyed by 0-indexed (i, j), i != j, containing all
    d**2 - d units; raises :class:`MatrixUnitError` if any of them
    deviates from the exact unit by more than ``tol``.
    """
    lam = np.asarray(diag, dtype=float).ravel()
    d = lam.size
    if d < 2:
        raise ValueError("need at least a 2 x 2 problem")
    if np.any(np.diff(lam) >= 0):
        raise ValueError("diagonal values must be strictly decreasing")
    a = np.asarray(a, dtype=complex)
    if a.shape != (d, d):
        raise ValueError(f"matrix must be {d} x {d}")
    if not frame_condition(a):
        raise FrameConditionError("frame entries must all be nonzero")
    last = d - 1
    if abs(a[0, last]) <= TOL_ZERO or abs(a[last, 0]) <= TOL_ZERO:
        raise FrameConditionError(
            "the construction divides by the (1,d) and (d,1) entries; both must be nonzero"
        )

    diffs = lam[:, None] - lam[None, :]
    offdiag = ~np.eye(d, dtype=bool)

    def select(mat: np.ndarray, i: int, j: int) -> np.ndarray:
        picked = np.where((np.abs(diffs - diffs[i, j]) < 1e-9) & offdiag, mat, 0.0)
        scale = max(1.0, float(np.max(np.abs(mat))))
        stray = picked.copy()
        stray[i, j] = 0.0
        if np.max(np.abs(stray)) > tol * scale:
            raise AmbiguousSelectorError(
                f"mask for eigenvalue difference {diffs[i, j]:g} keeps entries "
                f"besides ({i},{j}); coinciding differences make this selector ambiguous"
            )
        coeff = picked[i, j]
        if abs(coeff) <= tol * scale:
            raise FrameConditionError(f"vanishing coefficient at ({i},{j}) during extraction")
        return picked / coeff

    units: Dict[Tuple[int, int], np.ndarray] = {}
    units[(0, last)] = select(a, 0, last)
    units[(last, 0)] = select(a, last, 0)
    e_top = units[(0, last)]
    e_bot = units[(last, 0)]
    corner_gap = a[0, 0] - a[last, last]
    r_mat = e_top @ a - a @ e_top + corner_gap * e_top
    l_mat = a @ e_bot - e_bot @ a + corner_gap * e_bot
    for j in range(1, last):
        units[(0, j)] = select(r_mat, 0, j)
        units[(j, last)] = select(r_mat, j, last)
        units[(j, 0)] = select(l_mat, j, 0)
        units[(last, j)] = select(l_mat, last, j)
    for i in range(1, last):
        for j in range(1, last):
            if i == j:
                continue
            units[(i, j)] = units[(i, 0)] @ units[(0, j)] - units[(0, j)] @ units[(i, 0)]

    deviation = 0.0
    for (i, j), mat in units.items():
        exact = np.zeros((d, d))
        exact[i, j] = 1.0
        deviation = max(deviation, float(np.max(np.abs(mat - exact))))
    if deviation > tol:
        raise MatrixUnitError(f"units deviate from exact units by {deviation:g} > {tol:g}")
    return units


@dataclass(frozen=True)
class ParameterSet:
    """Per-layer mixer angles beta in [0, 2pi) and phase angles gamma in [0, pi)."""

    betas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        gammas = np.asarray(self.gammas, dtype=float)
        if betas.shape != gammas.shape or betas.ndim != 1:
            raise ValueError("betas and gammas must be 1-d arrays of equal length")
        if np.any(betas < 0.0) or np.any(betas >= BETA_MAX):
            raise ValueError("betas must lie in [0, 2pi)")
        if np.any(gammas < 0.0) or np.any(gammas >= GAMMA_MAX):
            raise ValueError("gammas must lie in [0, pi)")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)

    @property
    def depth(self) -> int:
        return len(self.betas)


def apply_phase_layer(state: np.ndarray, objective: ObjectiveTable, gamma: float) -> np.ndarray:
    """Multiply each amplitude by exp(-i * gamma * F(x))."""
    return state * np.exp(-1j * gamma * objective.values)


def apply_grover_mixer(state: np.ndarray, xi: InitialState, beta: float) -> np.ndarray:
    """Rank-one closed form of evolving under the negative projector onto xi."""
    amp = xi.amplitudes
    overlap = np.vdot(amp, state)
    return state + (np.exp(1j * beta) - 1.0) * overlap * amp


def run_circuit(xi: InitialState, objective: ObjectiveTable, params: ParameterSet) -> np.ndarray:
    """Alternate phase and mixer layers starting from xi (phase first per layer)."""
    if xi.amplitudes.shape[0] != objective.size:
        raise ValueError("state and objective dimensions disagree")
    state = np.array(xi.amplitudes, dtype=complex, copy=True)
    for beta, gamma in zip(params.betas, params.gammas):
        state = apply_phase_layer(state, objective, gamma)
        state = apply_grover_mixer(state, xi, beta)
    return state


def loss(state: np.ndarray, objective: ObjectiveTable) -> float:
    """Expected objective value sum_x F(x) |psi_x|^2."""
    if state.shape[0] != objective.size:
        raise ValueError("state and objective dimensions disagree")
    return float(np.sum(objective.values * (state.conj() * state).real))


def sample_parameters(p: int, rng: np.random.Generator) -> ParameterSet:
    """Draw one parameter set by ``_draw_angles``; repeated calls on one
    generator give the Monte Carlo's samples in order."""
    betas, gammas = _draw_angles(p, rng, 1)
    return ParameterSet(betas[0], gammas[0])


def grover_mixer_identity_check(n: int) -> float:
    """Max entrywise gap between -(1/2**n) prod_j (I + X_j) and the
    negative projector onto the uniform superposition."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 10:
        raise ValueError("dense product check capped at n = 10")
    size = 1 << n
    idx = np.arange(size)
    prod = np.eye(size)
    for j in range(n):
        flip = np.zeros((size, size))
        flip[idx, idx ^ (1 << j)] = 1.0
        prod = prod @ (np.eye(size) + flip)
    lhs = -prod / size
    rhs = -np.full((size, size), 1.0 / size)
    return float(np.max(np.abs(lhs - rhs)))
