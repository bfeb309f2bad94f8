"""Brute-force numerical verification of the structure predictions.

The Lie closure of real or imaginary generators, the commutant
dimension of the Grover pair, and the residuals of the isotypic split.
The oracles of record that no report runs, the closure's dense basis,
the dense Kronecker commutant and the constructive extraction of matrix
units from a diagonal/frame generator pair, are in ``tests/oracles.py``.

Dimension conventions, since mixing them is the classic bug here: the
Lie closure works over the REAL span of skew-Hermitian matrices and
reports real dimensions; the commutant solvers work over COMPLEX
matrices and report complex dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import TOL_ZERO, InitialState, _level_norms, dense_size

#: Dense-oracle cap on the state-space dimension.
ORACLE_DIM_LIMIT = 64

#: Relative residual above which a commutator counts as independent.
TOL_INDEP = 1e-9

#: An acceptance below this residual, sqrt(eps / TOL_INDEP) = 4.7e-4,
#: abandons the generator-bracket run of ``closure_report``.
_TRUSTED = math.sqrt(np.finfo(float).eps / TOL_INDEP)

#: Eigenvalues of the commutant operator below this count as null.
TOL_RANK = 1e-8

_TOL_SKEW = 1e-10

#: Commutators of unit-norm elements below this are round-off noise, not
#: new directions; normalizing them would amplify noise into fake dimensions.
_ZERO_FLOOR = 1e-10

#: Floats per block of commutators on the all-pairs schedule (32 MiB),
#: unless one frontier element's brackets with one class already take more.
_BLOCK_FLOATS = 1 << 22

_SQRT_HALF = math.sqrt(0.5)


class OracleCapError(ValueError):
    """Instance exceeds the dense-oracle size caps."""


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a closure run.

    ``max_residual_discarded`` and ``min_residual_accepted`` are the margin
    around ``TOL_INDEP``: the largest residual of a discarded candidate,
    and the smallest of an accepted element (None when no element was
    tested against a non-empty basis), each that of the candidate as fed
    to the one acceptance routine of ``closure_report``: normalized to unit
    norm on generator brackets, unscaled commutators of unit elements on
    all pairs; each is taken against the basis of the candidate's own
    parity class, which, the classes being orthogonal, is the whole basis.
    ``candidates`` counts the commutators formed.
    ``schedule`` is ``"generators"`` or, when that run met an
    ill-conditioned acceptance, ``"all-pairs"``.
    """

    dimension: int
    rounds: int
    candidates: int
    max_residual_discarded: float
    min_residual_accepted: Optional[float]
    schedule: str = "generators"


@dataclass(frozen=True)
class CommutantReport:
    """Commutant dimension and its margin around ``TOL_RANK``: the largest
    eigenvalue counted as null and the smallest counted as non-null, each
    None when no eigenvalue falls on its side."""

    dimension: int
    max_null: Optional[float]
    min_nonnull: Optional[float]


@dataclass(frozen=True)
class IsotypicReport:
    """Residuals of ``isotypic_residuals``; its frame F is unitary when
    ``square`` and ``frame_residual``, max |F^dag F - I|, is 0."""

    w0_residual: float
    line_residual: float
    frame_residual: float
    square: bool


def _check_oracle_size(n: int) -> None:
    if n > ORACLE_DIM_LIMIT:
        raise OracleCapError(f"dense oracle capped at {ORACLE_DIM_LIMIT} dimensions, got {n}")


def gm_generators(values, amplitudes) -> Tuple[np.ndarray, np.ndarray]:
    """Dense Hermitian problem Hamiltonian and Grover mixer.

    The problem Hamiltonian is diagonal with the objective values; the
    mixer is the negative rank-one projector onto the amplitudes as
    given.  Both are read and checked by ``_levels``.  Multiply by 1j to
    obtain the skew-Hermitian closure generators.
    """
    lam = _levels(values, amplitudes)[0]
    amps = np.asarray(amplitudes, dtype=complex)
    return np.diag(lam.astype(complex)), -np.outer(amps, amps.conj())


def x_mixer_generator(n: int) -> np.ndarray:
    """Sum of single-site bit flips as a dense 2**n matrix (binary alphabet only)."""
    size = dense_size(n, 2)
    _check_oracle_size(size)
    idx = np.arange(size)
    b = np.zeros((size, size), dtype=complex)
    for j in range(n):
        b[idx, idx ^ (1 << j)] += 1.0
    return b


def closure_report(generators: Sequence[np.ndarray]) -> ClosureReport:
    """Close a set of skew-Hermitian generators under the commutator, on a
    basis orthonormal under Re tr(A^dag B), and report the closure.

    Parity classes.  Every generator is exactly real or exactly imaginary
    (checked with exact zeros), so the algebra splits as g = k + p with
    k = g & so(N) and p = g & i Sym(N), since [k, k] and [p, p] lie in
    so(N) and [k, p] in i Sym(N).  The closure runs on the two classes,
    each with its own basis array of packed real rows (``_Packing``):
    N(N-1)/2 coordinates for k, N(N+1)/2 for p.  A bracket's class
    follows from its factors' classes, it is computed in real arithmetic
    on their real representatives, and it is projected only against its
    own class's basis.

    One acceptance routine takes every candidate: it projects a batch of
    one class against that class's basis, then, largest residual first,
    projects each pick once more and appends it when that second residual
    exceeds ``TOL_INDEP``, projecting the rest of the batch off the new
    element.  It is fed two ways.  The generators, and on the
    generator-bracket schedule each commutator, go in alone at unit
    Hilbert-Schmidt norm, so a lone candidate takes classical
    Gram-Schmidt with a second pass; a generator is scaled by its largest
    entry before its norm is taken, and commutators whose norm sits at the
    round-off floor are treated as zero rather than normalized.  On the
    all-pairs schedule the commutators go in unscaled, since the round-off
    of a commutator of unit elements scales with the unit norms of its
    factors and not with its own norm, in blocks of at most
    ``_BLOCK_FLOATS`` floats (32 MiB) or of one frontier element's brackets
    with one class, whichever is larger: at N = 64 a class span of up to
    2080 elements gives 2080 * 64**2 floats (65 MiB).

    Deterministic schedule: the generators are orthonormalized in input
    order into S; then, per round, every element f of the previous round's
    additions, class by class in index order, is commuted with every
    element s of a span, class by class in index order, as [s, f].  The
    span is S on the generator-bracket schedule: the algebra generated by
    S is spanned by the left-normed brackets [s_1, [s_2, ..., s_k]], so
    V <- V + [S, V] reaches it, and its fixed point is closed under the
    commutator by the Jacobi identity; only the frontier is new to each
    round, so |S| commutators per element are formed in all.

    An element accepted at residual r carries its candidate's round-off
    amplified by 1/r, and so do the brackets formed from it.  When the
    generators hold a direction only at a small weight (a faint supported
    level), every bracket with a generator reaches it at such a residual
    and round-off compounds into fake directions.  So an acceptance below
    ``_TRUSTED`` = sqrt(eps / ``TOL_INDEP``) = 4.7e-4 (eps the float64
    round-off unit), where two chained acceptances can lift round-off
    above ``TOL_INDEP``, abandons the generator-bracket run; the second
    generator's own residual counts.  The closure then restarts
    from S, in the same arrays, on the all-pairs schedule, whose span is
    every element present at the round's start, so such a direction is
    reached through brackets of elements already at unit norm.  The
    report's ``schedule`` says which run produced the basis; ``rounds``,
    ``candidates`` and the margins count that run.

    Stops when a round adds nothing or when the basis spans all N**2 real
    dimensions of u(N).  The generators must be finite and skew-Hermitian
    relative to their largest entry: divided by it, max |g + g^dag| may
    not exceed 1e-10.  They must be square matrices of one size, at least
    1x1, each exactly real or exactly imaginary; other inputs raise
    ``ValueError``.
    A set with complex generators closes to the same dimension through
    its realification X -> [[Re X, -Im X], [Im X, Re X]], an injective
    Lie-algebra map from u(N) into so(2N) whose images are real.
    """
    return _closure(generators)[2]


class _Packing:
    """Real coordinates of u(N), split by complex-conjugation parity.

    Two classes, each holding real representatives M of its elements X:
    ``"k"`` is so(N), X = M real antisymmetric, packed as sqrt(2) M_ab
    over a < b; ``"p"`` is i Sym(N), X = i M with M real symmetric,
    packed as (M_aa, sqrt(2) M_ab over a < b).  Each packing is an
    isometry for Re tr(A^dag B), and ``pack`` projects onto its class
    first, so a bracket's round-off off the class is dropped.
    """

    def __init__(self, n: int):
        a, b = np.triu_indices(n, 1)
        self.n = n
        self.upper, self.lower, self.diag = a * n + b, b * n + a, np.arange(n) * (n + 1)
        self.width = {"k": a.size, "p": a.size + n}

    def pack(self, mats: np.ndarray, kind: str) -> np.ndarray:
        """Packed rows of a stack of (N, N) representatives, on the last axis."""
        flat = mats.reshape(mats.shape[:-2] + (-1,))
        upper = np.take(flat, self.upper, axis=-1)
        lower = np.take(flat, self.lower, axis=-1)
        if kind == "k":
            return (upper - lower) * _SQRT_HALF
        return np.concatenate([np.take(flat, self.diag, axis=-1), (upper + lower) * _SQRT_HALF], axis=-1)

    def unpack(self, rows: np.ndarray, kind: str) -> np.ndarray:
        """The (len(rows), N, N) representatives of packed rows."""
        flat = np.zeros((len(rows), self.n * self.n))
        if kind == "k":
            flat[:, self.upper] = rows * _SQRT_HALF
            flat[:, self.lower] = -flat[:, self.upper]
        else:
            flat[:, self.diag] = rows[:, : self.n]
            flat[:, self.upper] = rows[:, self.n :] * _SQRT_HALF
            flat[:, self.lower] = flat[:, self.upper]
        return flat.reshape(-1, self.n, self.n)


def _closure(generators: Sequence[np.ndarray]) -> Tuple[_Packing, list, ClosureReport]:
    """The routine behind ``closure_report``: its packing, the (kind,
    packed rows) of each parity class, and the report."""
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    # the shape is checked before any entry or reduction is read
    dim_space = mats[0].shape[0] if mats[0].ndim == 2 else 0
    if dim_space < 1 or any(g.shape != (dim_space, dim_space) for g in mats):
        raise ValueError("generators must be square matrices of one size, at least 1x1")
    tops = []
    for g in mats:
        if not np.all(np.isfinite(g)):
            raise ValueError("generators must be finite")
        # scaled to a largest entry of 1, so the check is relative: a faint
        # Hermitian generator is refused, and a huge skew one's round-off
        # passes without its sum overflowing
        top = float(np.max(np.abs(g)))
        unit = g / top if top > 0.0 else g
        if np.max(np.abs(unit + unit.conj().T)) > _TOL_SKEW:
            raise ValueError("generators must be skew-Hermitian")
        # exact zeros, not a tolerance: real generators lie in so(N) and
        # imaginary ones in i Sym(N), and then every bracket is one or the other
        if g.real.any() and g.imag.any():
            raise ValueError("generators must each be exactly real or exactly imaginary")
        tops.append(top)
    _check_oracle_size(dim_space)

    packing = _Packing(dim_space)
    # a class's index is its parity, 0 real and 1 imaginary, so a
    # bracket's class is the XOR of its factors' classes
    kinds = ("k", "p")
    widths = [packing.width[kind] for kind in kinds]
    # the class widths sum to N**2, so the closure spans u(N) exactly when
    # every class array is full
    basis = [np.zeros((w, w)) for w in widths]
    counts = [0, 0]
    full = dim_space * dim_space
    candidates = 0
    max_discarded = 0.0
    min_accepted = math.inf
    schedule = "generators"

    def accept(c: int, res: np.ndarray) -> None:
        nonlocal max_discarded, min_accepted
        rows = basis[c]
        # both callers pass a fresh array, so it is projected in place
        res -= (res @ rows[: counts[c]].T) @ rows[: counts[c]]
        left = len(res)
        while left and counts[c] < len(rows):
            # a lone candidate needs no pick, and its 1-d norm is the cheap one
            k = int(np.argmax(np.linalg.norm(res, axis=1))) if len(res) > 1 else 0
            first = float(np.linalg.norm(res[k]))
            if first <= TOL_INDEP:
                max_discarded = max(max_discarded, first)
                return
            count = counts[c]
            vec = res[k] - (rows[:count] @ res[k]) @ rows[:count]
            # a taken row stays in place at zero, so the order of the rest holds
            res[k] = 0.0
            left -= 1
            rnorm = float(np.linalg.norm(vec))
            if rnorm <= TOL_INDEP:
                max_discarded = max(max_discarded, rnorm)
                continue
            if sum(counts):
                min_accepted = min(min_accepted, rnorm)
            rows[count] = vec / rnorm
            if left:
                res -= np.outer(res @ rows[count], rows[count])
            counts[c] += 1

    def accept_unit(c: int, row: np.ndarray) -> None:
        nrm = float(np.linalg.norm(row))
        if nrm > _ZERO_FLOOR:
            accept(c, row[None] / nrm)

    def stopped() -> bool:
        return sum(counts) == full or (schedule == "generators" and min_accepted < _TRUSTED)

    for g, top in zip(mats, tops):
        c = int(g.imag.any())
        rep = g.imag if c else g.real
        # scaled to a largest entry of 1 before its norm is taken, so
        # entries whose squares overflow close like unit entries; rep
        # holds all of g's nonzero entries, so g's largest is rep's, and
        # its packed norm is at least 1, far above the floor
        if top > 0.0:
            accept_unit(c, packing.pack(rep / top, kinds[c]))
    gens = list(counts)
    frontier = [range(k) for k in gens]
    rounds = 0
    while True:
        if schedule == "generators" and min_accepted < _TRUSTED:
            schedule = "all-pairs"
            counts[:] = gens
            frontier, rounds, candidates = [range(k) for k in gens], 0, 0
            max_discarded, min_accepted = 0.0, math.inf
        if not any(frontier) or sum(counts) == full:
            break
        rounds += 1
        start = list(counts)
        if schedule == "generators":
            span_counts, block = gens, 1
        else:
            span_counts, block = start, max(1, _BLOCK_FLOATS // (full * sum(start)))
        spans = [(c, packing.unpack(basis[c][:k], kinds[c])) for c, k in enumerate(span_counts) if k]
        blocks = [
            (cf, lo, min(lo + block, todo.stop))
            for cf, todo in enumerate(frontier)
            for lo in range(todo.start, todo.stop, block)
        ]
        for cf, lo, hi in blocks:
            f = packing.unpack(basis[cf][lo:hi], kinds[cf])[:, None]
            for cs, span in spans:
                bracket = np.matmul(span, f) - np.matmul(f, span)
                if cs & cf:
                    # [iM, iM'] = -[M, M']: two imaginary factors give a real bracket
                    np.negative(bracket, out=bracket)
                c = cs ^ cf
                batch = packing.pack(bracket, kinds[c]).reshape(-1, widths[c])
                candidates += len(batch)
                if schedule == "all-pairs":
                    accept(c, batch)
                else:
                    for row in batch:
                        accept_unit(c, row)
                        if stopped():
                            break
                if stopped():
                    break
            if stopped():
                break
        frontier = [range(s, k) for s, k in zip(start, counts)]
    report = ClosureReport(
        dimension=sum(counts),
        rounds=rounds,
        candidates=candidates,
        max_residual_discarded=max_discarded,
        min_residual_accepted=min_accepted if min_accepted < math.inf else None,
        schedule=schedule,
    )
    return packing, [(kind, rows[:k]) for kind, rows, k in zip(kinds, basis, counts)], report


def _basis_array(basis) -> np.ndarray:
    elements = np.asarray(basis, dtype=complex)
    if len(elements) == 0:
        raise ValueError("need at least one basis element")
    if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
        raise ValueError("basis must be a (k, N, N) array of square matrices")
    return elements


def _levels(values, amplitudes):
    """The one reading of a Grover oracle's input.

    Checks that values and amplitudes are parallel 1-d arrays within the
    oracle cap, the values finite and the amplitudes a state (norm 1
    within ``TOL_NORM``, the rule of ``InitialState``), and returns the
    values, the normalized amplitudes u, each string's level, the norms
    ||P_j u||, the mask of the levels whose norm in the amplitudes as
    given exceeds ``TOL_ZERO`` (the reading of ``decompose_initial_state``,
    so a level at the cut is unsupported on both sides), and the unit
    level components u_j / ||P_j u|| (0 where unsupported).  Levels are
    the distinct values, largest first, by exact equality (the oracle's
    own grouping, independent of ``build_spectrum``)."""
    lam = np.asarray(values, dtype=float)
    amps = np.asarray(amplitudes, dtype=complex)
    if lam.ndim != 1 or lam.size == 0 or amps.shape != lam.shape:
        raise ValueError("values and amplitudes must be non-empty 1-d arrays of one length")
    _check_oracle_size(lam.size)
    if not np.all(np.isfinite(lam)):
        raise ValueError("values must be finite")
    InitialState(amps)
    u = amps / np.linalg.norm(amps)
    uniq, inverse = np.unique(lam, return_inverse=True)
    level_of = (len(uniq) - 1) - inverse
    level_norms = _level_norms(u, level_of, len(uniq))
    supported = _level_norms(amps, level_of, len(uniq)) > TOL_ZERO
    inv = np.divide(1.0, level_norms[level_of], out=np.zeros(lam.size), where=supported[level_of])
    xi = u * inv
    return lam, u, level_of, level_norms, supported, xi


def grover_commutant_dimension(values, amplitudes) -> CommutantReport:
    """Complex dimension of the commutant of diag(values) and the
    projector onto ``amplitudes``, from the 2N generator equations.

    X commutes with diag(values) iff X_ab = 0 unless values[a] ==
    values[b] (exact equality, as in ``build_spectrum``), which
    leaves sum_j n_j**2 unknowns.  With u the normalized amplitudes and
    P = I - u u^dag, X also commutes with u u^dag iff P X u = 0 and
    u^dag X P = 0: 2N equations M x = 0 with u^dag X u eliminated.  The
    unknowns of level j are scaled by 1 / ||P_j u||, so the rank gap does
    not shrink with a level's amplitude; a level with ||P_j u|| <=
    ``TOL_ZERO`` is unsupported, as in ``decompose_initial_state``, and
    constrains nothing.  The rank of M is the number of eigenvalues of
    M M^dag (squared singular values of M) at or above the constant
    ``TOL_RANK``; the scaling puts every non-null one at 1 or 2, and the
    null ones at round-off or, for an unsupported level of weight w, near
    2 w**2: about 2 * ``TOL_ZERO``**2 = 2e-20 at most, twelve decades
    below ``TOL_RANK``.
    This equals the commutant of the whole Grover DLA, since an operator
    commutes with a Lie algebra iff it commutes with its generators.
    """
    lam, u, level_of, _, _, v = _levels(values, amplitudes)
    n = lam.size
    a, b = np.nonzero(level_of[:, None] == level_of[None, :])
    proj = np.eye(n) - np.outer(u, u.conj())
    m = np.vstack([proj[:, a] * v[b], v[a].conj() * proj[b, :].T])
    eigs = np.zeros(2 * n)
    sing = np.linalg.svd(m, compute_uv=False)
    eigs[: sing.size] = sing**2
    eigs.sort()
    null = int(np.searchsorted(eigs, TOL_RANK))
    return CommutantReport(
        dimension=a.size - (2 * n - null),
        max_null=float(eigs[null - 1]) if null else None,
        min_nonnull=float(eigs[null]) if null < 2 * n else None,
    )


def isotypic_split(values, amplitudes) -> Tuple[list, list]:
    """W0 and the invariant lines of the predicted isotypic split of C^N.

    W0 is spanned by the level components xi_j = P_j xi / ||P_j xi|| with
    ||P_j xi|| > ``TOL_ZERO``, largest value first.  Level j's lines are
    the identity's columns on its strings, or for a supported level the QR
    factor of [xi_j | identity] without its first column (which spans
    xi_j).  Returns d + (N - d) unit vectors of full length."""
    lam, _, level_of, _, supported, xi = _levels(values, amplitudes)
    w0, lines = [], []
    for j, kept in enumerate(supported):
        idx = np.flatnonzero(level_of == j)
        block = np.eye(len(idx), dtype=complex)
        if kept:
            w0.append(np.where(level_of == j, xi, 0.0))
            block = np.linalg.qr(np.column_stack([xi[idx], block]))[0][:, 1:]
        full = np.zeros((lam.size, block.shape[1]), dtype=complex)
        full[idx] = block
        lines.extend(full.T)
    return w0, lines


def level_span_generators(values, amplitudes) -> Tuple[np.ndarray, np.ndarray]:
    """The Grover generators i H_p and -i u u^dag on d dimensions, plus one
    when H_p does not vanish off the level span.

    K = span{P_j u} over the levels of norm above ``TOL_ZERO`` holds u and
    is H_p-invariant, so every commutator acts on K alone, and the part of
    any DLA element on K's complement is a multiple of H_p there.  With Q
    the W0 columns of ``isotypic_split``, returns the block-diagonal
    i (Q^dag H_p Q + [t]) and i (-Q^dag u u^dag Q + [0]), the trailing
    blocks left out when H_p vanishes off K, i.e. unless a level of nonzero
    value is unsupported or holds more than one string (``predict_dla``'s
    rule; then d < N, so neither generator outgrows the instance).

    The tail t is the largest |value|, not ||(I - Q Q^dag) H_p||_F: every
    bracket of two block-diagonal generators has a zero tail, so X + x ->
    X + t x is a Lie-algebra automorphism of u(d) + u(1) for every real
    t != 0, and the closure has one dimension at every nonzero tail.  The
    pair is an isomorphism onto the DLA, not an isometry, and its tail
    cannot sink under ``TOL_INDEP`` beside the largest entry.

    Both are built from the levels, not from Q: Q^dag H_p Q is
    diag(lambda_j) over the supported levels, largest first, and Q^dag u
    is w with w_j = ||P_j u||.  So they are exactly i times a real
    symmetric matrix for every state, and ``closure_report`` runs on its
    two parity classes.  Their closure can only undercount: it lies in
    u(d) with no tail, and in u(d) + span{i E_dd} with one, since both
    generators are then block-diagonal and every bracket has a zero (d, d)
    entry.  That bounds it at d**2 and d**2 + 1, which is ``predict_dla``.
    """
    lam, _, level_of, level_norms, supported, _ = _levels(values, amplitudes)
    level_values = np.empty(level_norms.size)
    level_values[level_of] = lam
    off = (level_values != 0.0) & (~supported | (np.bincount(level_of) > 1))
    tail = [np.max(np.abs(lam))] if off.any() else []
    h_p = np.diag(np.append(level_values[supported], tail))
    w = level_norms[supported]
    g_m = np.zeros_like(h_p)
    g_m[: w.size, : w.size] = -np.outer(w, w)
    return 1j * h_p, 1j * g_m


def graded_pieces(h: np.ndarray, g: np.ndarray) -> list:
    """``[h]`` and the nonzero parts of ``g`` on the entries of each
    distinct |h_aa - h_bb|, smallest first.  For a diagonal imaginary h
    each part is p(ad_h**2) g, p a real polynomial, so they generate the
    algebra of h and g.  A piece holds g's entries at one scale, so no
    bracket has to separate g's grades, which at a level gap far below the
    largest value would fall under ``TOL_INDEP``.

    The gaps are grouped exactly, not by their rounded float: each is the
    pair (s, e) with s = fl(a - b) and a - b = s + e exactly (TwoSum),
    negated where s < 0, so gaps such as B - 1, B and B + 1 at B = 1e16 stay
    apart.  Rounding is monotone, so the pairs sort as the gaps do."""
    diag = np.diagonal(h).imag
    a, b = diag[:, None], -diag[None, :]
    s = a + b
    b_part = s - a
    err = (a - (s - b_part)) + (b - b_part)
    pairs = np.stack([np.abs(s), np.sign(s) * err], axis=-1).reshape(-1, 2)
    # return_inverse also keeps numpy 2's unique from importing numpy.ma
    keys, grade = np.unique(pairs, axis=0, return_inverse=True)
    grade = grade.reshape(s.shape)
    parts = (np.where(grade == k, g, 0.0) for k in range(len(keys)))
    return [h] + [part for part in parts if part.any()]


def isotypic_residuals(basis, w0: Sequence[np.ndarray], lines: Sequence[np.ndarray]) -> IsotypicReport:
    """How far a split of C^N into W0 and lines is from an invariant
    unitary frame F = [W0 | lines], over the elements B of a (k, N, N)
    array-like.  The residuals are the column norms of B F - F D, D the
    part of F^dag B F on W0's block and on the lines' diagonal: ||B w -
    W0 W0^dag B w|| on W0 and ||B v - v v^dag B v|| on a line when F is
    unitary.  An empty part has residual 0."""
    elements = _basis_array(basis)
    frame = np.column_stack([np.asarray(v, dtype=complex).ravel() for v in (*w0, *lines)])
    n, m = frame.shape
    keep = np.eye(m, dtype=bool)
    keep[: len(w0), : len(w0)] = True
    image = elements @ frame
    outside = np.linalg.norm(image - frame @ np.where(keep, frame.conj().T @ image, 0.0), axis=1)
    return IsotypicReport(
        w0_residual=float(np.max(outside[:, : len(w0)], initial=0.0)),
        line_residual=float(np.max(outside[:, len(w0) :], initial=0.0)),
        frame_residual=float(np.max(np.abs(frame.conj().T @ frame - np.eye(m)))),
        square=m == n,
    )
