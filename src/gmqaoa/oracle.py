"""Brute-force numerical verification of the structure predictions.

Lie closures from generators, commutant dimensions, invariant-subspace
residuals, and the constructive extraction of matrix units from a
diagonal/frame generator pair.

Dimension conventions, since mixing them is the classic bug here: the
Lie closure works over the REAL span of skew-Hermitian matrices and
reports real dimensions; the commutant solvers work over COMPLEX
matrices and report complex dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import TOL_ZERO, InitialState, ObjectiveTable

#: Dense-oracle cap on the state-space dimension.
ORACLE_DIM_LIMIT = 64

#: Default cap on the closure dimension.
DIM_CAP = 4096

#: Relative residual above which a commutator counts as independent.
TOL_INDEP = 1e-9

#: Eigenvalues of the commutant operator below this count as null.
TOL_RANK = 1e-8

_TOL_SKEW = 1e-10
_TOL_ORTH = 1e-8

#: Commutators of unit-norm elements below this are round-off noise, not
#: new directions; normalizing them would amplify noise into fake dimensions.
_ZERO_FLOOR = 1e-10

#: Commutator entries screened at once: one block of candidates per
#: frontier element (64 candidates at N = 32).
_SCREEN_ENTRIES = 1 << 16


class OracleCapError(ValueError):
    """Instance exceeds the dense-oracle size caps."""


class FrameConditionError(ValueError):
    """The generator matrix misses a nonzero entry the construction divides by."""


class AmbiguousSelectorError(ValueError):
    """A spectral mask keeps entries besides the targeted one.

    Happens when distinct eigenvalue pairs share the same difference;
    only the extreme difference is guaranteed unique.
    """


class MatrixUnitError(ValueError):
    """Extracted units deviate from exact matrix units beyond tolerance."""


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a closure run; if hit_cap, dimension is a lower bound only.

    ``max_residual_discarded`` and ``min_residual_accepted`` are the margin
    around ``tol_indep``: the largest relative residual of a discarded
    candidate, and the smallest of an accepted element (None when no
    element was tested against a non-empty basis).  ``candidates`` counts
    the commutators screened.
    """

    dimension: int
    rounds: int
    candidates: int
    max_residual_discarded: float
    min_residual_accepted: Optional[float]
    hit_cap: bool


@dataclass(frozen=True)
class CommutantReport:
    """Commutant dimension and its margin around ``tol_rank``: the largest
    eigenvalue counted as null and the smallest counted as non-null, each
    None when no eigenvalue falls on its side."""

    dimension: int
    max_null: Optional[float]
    min_nonnull: Optional[float]


def _check_oracle_size(n: int) -> None:
    if n > ORACLE_DIM_LIMIT:
        raise OracleCapError(f"dense oracle capped at {ORACLE_DIM_LIMIT} dimensions, got {n}")


def gm_generators(objective: ObjectiveTable, state: InitialState) -> Tuple[np.ndarray, np.ndarray]:
    """Dense Hermitian problem Hamiltonian and Grover mixer.

    The problem Hamiltonian is diagonal with the objective values; the
    mixer is the negative rank-one projector onto the state.  Multiply by
    1j to obtain the skew-Hermitian closure generators.
    """
    size = objective.size
    _check_oracle_size(size)
    amps = state.amplitudes
    if amps.shape[0] != size:
        raise ValueError("state and objective dimensions disagree")
    h_p = np.diag(objective.values.astype(complex))
    g_m = -np.outer(amps, amps.conj())
    return h_p, g_m


def x_mixer_generator(n: int) -> np.ndarray:
    """Sum of single-site bit flips as a dense 2**n matrix (binary alphabet only)."""
    if n < 1:
        raise ValueError("need n >= 1")
    size = 1 << n
    _check_oracle_size(size)
    idx = np.arange(size)
    b = np.zeros((size, size), dtype=complex)
    for j in range(n):
        b[idx, idx ^ (1 << j)] += 1.0
    return b


def traceless_part(h: np.ndarray) -> np.ndarray:
    """Remove the identity component of a square matrix.

    The standard-mixer comparison dimensions are defined for the
    traceless coupling form of the problem Hamiltonian; a counting
    objective carries a constant shift that can add one identity
    direction to the closure on some instances (e.g. the 3-vertex path
    reaches 10 instead of 9).
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    return h - (np.trace(h) / n) * np.eye(n)


def _packed_commutators(y: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Packed real coordinates of Y^dag - Y for each Y of a (k, N, N) stack.

    A skew-Hermitian C packs into the real N x N matrix Re C + Im C, its
    antisymmetric plus its symmetric part.  Their Frobenius cross term
    vanishes, so packed matrices have the dot product Re tr(A^dag B) in N**2
    floats instead of 2 N**2.  For C = Y^dag - Y the packed matrix is
    (Re Y - Im Y)^T - (Re Y + Im Y); ``out`` and ``work`` are real
    (k, N, N) buffers.
    """
    np.subtract(y.real, y.imag, out=work)
    np.add(y.real, y.imag, out=out)
    return np.subtract(work.transpose(0, 2, 1), out, out=out)


def lie_closure(
    generators: Sequence[np.ndarray],
    tol_indep: float = TOL_INDEP,
    dim_cap: int = DIM_CAP,
) -> Tuple[np.ndarray, ClosureReport]:
    """Close a set of skew-Hermitian generators under the commutator.

    Returns a ``(k, N, N)`` array of skew-Hermitian matrices, orthonormal
    under Re tr(A^dag B), and the closure report.

    The basis lives in one preallocated array of ``min(dim_cap, N**2)``
    rows.  Gram-Schmidt runs on its real view, one row of 2 N**2 floats
    per element, whose dot product is Re tr(A^dag B): classical
    Gram-Schmidt against the whole basis, with a second pass for
    survivors.  Deterministic schedule: the generators are
    orthonormalized in input order; then, per round, every element of the
    previous round's additions is commuted with every basis element
    present at the round's start, in index order, except the frontier
    elements up to and including itself: [f_i, f_j] = -[f_j, f_i] for
    j < i was tested already, and [f_i, f_i] = 0.  Each candidate is
    rescaled to unit Hilbert-Schmidt norm, projected against the current
    basis, and appended when the residual exceeds ``tol_indep``.
    Commutators whose norm sits at the round-off floor are treated as
    zero rather than normalized.

    The commutators of one frontier element f are screened in blocks of
    ``_SCREEN_ENTRIES`` entries.  For skew-Hermitian f and B, [f, B] =
    Y^dag - Y with Y = B f, so one stacked product per block gives the
    candidates; they are packed into N**2 real coordinates
    (``_packed_commutators``) and projected with two GEMMs against a
    packed mirror of the basis at the block's start.  That
    basis is contained in the one the per-candidate test sees, so a
    candidate screened out would be discarded there too; only the
    survivors, in index order, are formed again as f B - B f and take
    the per-candidate test, and the accepted elements are the same, bit
    for bit.

    Stops when a round adds nothing, when the basis spans all N**2 real
    dimensions of u(N) (exact, not flagged), or when ``dim_cap`` elements
    are reached (flagged as ``hit_cap``, not fatal).  ``tol_indep`` must
    be finite and > 0 (at 0 round-off residuals count as new
    directions), and the generators finite.
    """
    if dim_cap < 1:
        raise ValueError(f"dim_cap must be at least 1, got {dim_cap}")
    if not (math.isfinite(tol_indep) and tol_indep > 0.0):
        raise ValueError(f"tol_indep must be finite and > 0, got {tol_indep}")
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    dim_space = mats[0].shape[0]
    for g in mats:
        if g.ndim != 2 or g.shape != (dim_space, dim_space):
            raise ValueError("generators must be square matrices of one size")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators must be finite")
        if np.max(np.abs(g + g.conj().T)) > _TOL_SKEW:
            raise ValueError("generators must be skew-Hermitian")
    _check_oracle_size(dim_space)

    size2 = dim_space * dim_space
    capacity = min(dim_cap, size2)
    basis = np.zeros((capacity, dim_space, dim_space), dtype=complex)
    rows = basis.reshape(capacity, size2).view(float)
    block = max(1, _SCREEN_ENTRIES // size2)
    # the packed mirror grows by doubling: at full capacity (8 MiB at N = 32)
    # numpy would request huge pages for it, and each one touched adds
    # 2 MiB to peak RSS
    packed = np.zeros((min(capacity, block), size2))
    count = 0
    candidates = 0
    max_discarded = 0.0
    min_accepted = math.inf

    def try_add(mat: np.ndarray, floor: float = 0.0) -> bool:
        nonlocal count, packed, max_discarded, min_accepted
        nrm = float(np.linalg.norm(mat))
        if nrm <= floor:
            return False
        res = mat.ravel().view(float) / nrm
        if count:
            for _ in range(2):
                res = res - (rows[:count] @ res) @ rows[:count]
                rnorm = float(np.linalg.norm(res))
                if rnorm <= tol_indep:
                    max_discarded = max(max_discarded, rnorm)
                    return False
            min_accepted = min(min_accepted, rnorm)
        new = res.view(complex).reshape(dim_space, dim_space)
        new = 0.5 * (new - new.conj().T)
        basis[count] = new / np.linalg.norm(new)
        if count == len(packed):
            packed = np.vstack([packed, np.zeros_like(packed)])
        packed[count] = (basis[count].real + basis[count].imag).ravel()
        count += 1
        return True

    prods = np.empty((block, dim_space, dim_space), dtype=complex)
    cand_buf = np.empty((block, dim_space, dim_space))
    resid_buf = np.empty_like(cand_buf)

    def screened(f: np.ndarray, spans):
        """Commutators [f, B_k], k in ``spans``, that survive the screen, in index order."""
        nonlocal candidates, max_discarded
        for span in spans:
            for lo in range(span.start, span.stop, block):
                hi = min(lo + block, span.stop)
                k = hi - lo
                candidates += k
                part = basis[lo:hi]
                y = np.matmul(part, f, out=prods[:k])
                cand = _packed_commutators(y, cand_buf[:k], resid_buf[:k]).reshape(k, size2)
                known = packed[:count]
                proj = np.matmul(cand @ known.T, known, out=resid_buf[:k].reshape(k, size2))
                resid = np.linalg.norm(np.subtract(cand, proj, out=proj), axis=1)
                norms = np.linalg.norm(cand, axis=1)
                live = norms > _ZERO_FLOOR
                rel = np.divide(resid, norms, out=np.zeros_like(resid), where=live)
                dependent = live & (rel <= tol_indep)
                if dependent.any():
                    max_discarded = max(max_discarded, float(rel[dependent].max()))
                for j in np.flatnonzero(live & (rel > tol_indep)):
                    b = basis[lo + j]
                    yield f @ b - b @ f

    for g in mats:
        if count == capacity:
            break
        try_add(g)
    frontier = range(count)
    rounds = 0
    while frontier and count < capacity:
        rounds += 1
        start = count
        for fi in frontier:
            spans = (range(frontier.start), range(fi + 1, start))
            for mat in screened(basis[fi], spans):
                if try_add(mat, floor=_ZERO_FLOOR) and count == capacity:
                    break
            if count == capacity:
                break
        frontier = range(start, count)
    report = ClosureReport(
        dimension=count,
        rounds=rounds,
        candidates=candidates,
        max_residual_discarded=max_discarded,
        min_residual_accepted=min_accepted if min_accepted < math.inf else None,
        # N**2 elements span all of u(N): the exact answer, not a lower bound
        hit_cap=count == dim_cap < size2,
    )
    return basis[:count], report


def _check_tol_rank(tol_rank: float) -> None:
    # at 0 round-off decides which null eigenvalues count, and the zero
    # padding in grover_commutant_dimension would count toward the rank
    if not (math.isfinite(tol_rank) and tol_rank > 0.0):
        raise ValueError(f"tol_rank must be finite and > 0, got {tol_rank}")


def _basis_array(basis) -> np.ndarray:
    elements = np.asarray(basis, dtype=complex)
    if len(elements) == 0:
        raise ValueError("need at least one basis element")
    if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
        raise ValueError("basis must be a (k, N, N) array of square matrices")
    return elements


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


def _level_input(values, amplitudes) -> Tuple[np.ndarray, np.ndarray]:
    """Objective values and amplitudes as parallel 1-d arrays within the oracle cap."""
    lam = np.asarray(values, dtype=float)
    amps = np.asarray(amplitudes, dtype=complex)
    if lam.ndim != 1 or lam.size == 0 or amps.shape != lam.shape:
        raise ValueError("values and amplitudes must be non-empty 1-d arrays of one length")
    _check_oracle_size(lam.size)
    if not np.all(np.isfinite(lam)):
        raise ValueError("values must be finite")
    return lam, amps


def _level_split(values: np.ndarray, vec: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Level of every string and the norm ||P_j vec|| of each level; levels
    are the distinct values, largest first, by exact equality (the oracle's
    own grouping, independent of ``build_spectrum``)."""
    uniq, inverse = np.unique(values, return_inverse=True)
    level_of = (len(uniq) - 1) - inverse
    level_norms = np.sqrt(np.bincount(level_of, weights=vec.real**2 + vec.imag**2))
    return level_of, level_norms


def grover_commutant_dimension(
    values, amplitudes, tol_rank: float = TOL_RANK, tol_zero: float = TOL_ZERO
) -> CommutantReport:
    """Complex dimension of the commutant of diag(values) and the
    projector onto ``amplitudes``, from the 2N generator equations.

    X commutes with diag(values) iff X_ab = 0 unless values[a] ==
    values[b] (exact equality, as in ``build_spectrum``), which
    leaves sum_j n_j**2 unknowns.  With u the normalized amplitudes and
    P = I - u u^dag, X also commutes with u u^dag iff P X u = 0 and
    u^dag X P = 0: 2N equations M x = 0 with u^dag X u eliminated.  The
    unknowns of level j are scaled by 1 / ||P_j u||, so the rank gap does
    not shrink with a level's amplitude; a level with ||P_j u|| <=
    ``tol_zero`` is unsupported, as in ``decompose_initial_state``, and
    constrains nothing.  The rank of M is the number of eigenvalues of
    M M^dag (squared singular values of M) at or above ``tol_rank``.
    This equals the commutant of the whole Grover DLA, since an operator
    commutes with a Lie algebra iff it commutes with its generators.
    ``tol_rank`` must be finite and > 0.
    """
    _check_tol_rank(tol_rank)
    lam, amps = _level_input(values, amplitudes)
    n = lam.size
    nrm = float(np.linalg.norm(amps))
    if not (math.isfinite(nrm) and nrm > 0.0):
        raise ValueError("amplitudes must have a finite nonzero norm")
    u = amps / nrm

    level_of, level_norms = _level_split(lam, u)
    scale = np.zeros_like(level_norms)
    np.divide(1.0, level_norms, out=scale, where=level_norms > tol_zero)
    v = u * scale[level_of]
    a, b = np.nonzero(level_of[:, None] == level_of[None, :])
    proj = np.eye(n) - np.outer(u, u.conj())
    m = np.vstack([proj[:, a] * v[b], v[a].conj() * proj[b, :].T])
    eigs = np.zeros(2 * n)
    sing = np.linalg.svd(m, compute_uv=False)
    eigs[: sing.size] = sing**2
    eigs.sort()
    null = int(np.searchsorted(eigs, tol_rank))
    return CommutantReport(
        dimension=a.size - (2 * n - null),
        max_null=float(eigs[null - 1]) if null else None,
        min_nonnull=float(eigs[null]) if null < 2 * n else None,
    )


def isotypic_split(values, amplitudes, tol_zero: float = TOL_ZERO) -> Tuple[list, list]:
    """W0 and the invariant lines of the predicted isotypic split of C^N.

    W0 is spanned by the level components xi_j = P_j xi / ||P_j xi|| with
    ||P_j xi|| > ``tol_zero``, largest value first.  Level j's lines are
    the identity's columns on its strings, or for a supported level the QR
    factor of [xi_j | identity] without its first column (which spans
    xi_j).  Returns d + (N - d) unit vectors of full length."""
    lam, amps = _level_input(values, amplitudes)
    level_of, level_norms = _level_split(lam, amps)
    w0, lines = [], []
    for j, norm in enumerate(level_norms):
        idx = np.flatnonzero(level_of == j)
        block = np.eye(len(idx), dtype=complex)
        if norm > tol_zero:
            xi = np.zeros(lam.size, dtype=complex)
            xi[idx] = amps[idx] / norm
            w0.append(xi)
            block = np.linalg.qr(np.column_stack([xi[idx], block]))[0][:, 1:]
        full = np.zeros((lam.size, block.shape[1]), dtype=complex)
        full[idx] = block
        lines.extend(full.T)
    return w0, lines


def invariant_subspace_residual(basis, subspace: Sequence[np.ndarray]) -> float:
    """Largest norm of the part of B v falling outside the subspace,
    over basis elements B of a (k, N, N) array-like and subspace basis
    vectors v."""
    elements = _basis_array(basis)
    cols = [np.asarray(v, dtype=complex).ravel() for v in subspace]
    if not cols:
        raise ValueError("subspace must contain at least one vector")
    v = np.column_stack(cols)
    gram = v.conj().T @ v
    if np.max(np.abs(gram - np.eye(v.shape[1]))) > _TOL_ORTH:
        raise ValueError("subspace vectors must be orthonormal")
    w = elements @ v
    outside = w - v @ (v.conj().T @ w)
    return float(np.max(np.linalg.norm(outside, axis=1)))


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
