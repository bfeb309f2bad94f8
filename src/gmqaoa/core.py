"""Level-set structure of dense combinatorial objectives.

Shared encodings for objective tables, spectra (distinct values with
multiplicities) and the decomposition of an initial state into per-level
weights.  ``build_spectrum`` groups a dense table into levels (the
oracle groups its own input, independently); ``problems.local_spectrum``
counts the same levels from local terms without a table, and its
spectrum has no ``level_of``.  The uniform state's weights depend on the
multiplicities alone, c_j = sqrt(n_j / q**n), and ``uniform_overlaps``
takes them from there whichever way the spectrum was built; any other
state goes through ``decompose_initial_state``, which sums its weights
over ``Spectrum.level_of``.  Both decide support by the one rule of
``_level_overlaps``: a level is supported when its weight exceeds the
constant ``TOL_ZERO``.  The string-to-index encoding is fixed
everywhere: a configuration (x_0, ..., x_{n-1}) over a q-letter alphabet
maps to the integer sum_i x_i * q**i, i.e. site 0 is the least
significant digit.  The built-in builders apply this rule in one place,
``problems._local_objective``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: Largest dense table kept in memory (q**n entries).
DENSE_SIZE_LIMIT = 2**20

#: Default tolerance for unit-norm checks.
TOL_NORM = 1e-9

#: Level weight at or below which a level counts as unsupported.
TOL_ZERO = 1e-10

#: Largest gap between sum(c**2) and 1 that a level decomposition accepts.
TOL_WEIGHT_SUM = 1e-6

#: Largest |F| an objective table accepts.  Values differ by at most
#: 2e64, so the fourth central moment of the Monte Carlo losses, at most
#: (2e64)**4, and every other loss statistic stay finite.
MAX_ABS_OBJECTIVE = 1e64


def _is_integer(value) -> bool:
    # a bool is an int to Python, but not a count, a vertex, a literal or a seed
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_letters(q: int) -> None:
    if q < 2:
        raise ValueError(f"need q >= 2 letters, got q = {q}")


def dense_size(n: int, q: int) -> int:
    """q**n, or ValueError unless n >= 1 and q >= 2 are integers and q**n
    is within the dense-table limit: the one size rule of every table and
    state.

    With q >= 2, n alone already rules out a too-large table, so a huge n
    is refused before q**n is formed.
    """
    if not (_is_integer(n) and _is_integer(q)):
        raise ValueError(f"n and q must be integers, got n = {n!r}, q = {q!r}")
    if n < 1:
        raise ValueError(f"need n >= 1 sites and q >= 2 letters, got n = {n}, q = {q}")
    _check_letters(q)
    if n >= DENSE_SIZE_LIMIT.bit_length() or q**n > DENSE_SIZE_LIMIT:
        raise ValueError(f"q**n = {q}**{n} exceeds the dense-table limit {DENSE_SIZE_LIMIT}")
    return q**n


def _check_values(values: np.ndarray) -> None:
    # min and max need no |F| temporary; NaN fails both comparisons
    if not (values.min() >= -MAX_ABS_OBJECTIVE and values.max() <= MAX_ABS_OBJECTIVE):
        raise ValueError(f"objective values must all be finite with |F| <= {MAX_ABS_OBJECTIVE:g}")


def _check_weight_sum(c: np.ndarray) -> None:
    with np.errstate(over="ignore"):  # an overflowed sum is inf, refused below
        total = float(np.sum(c**2))
    if not abs(total - 1.0) <= TOL_WEIGHT_SUM:  # also refuses NaN and infinite weights
        raise ValueError(f"coefficients must satisfy sum(c**2) = 1, got {total!r}")


@dataclass(frozen=True)
class ObjectiveTable:
    """Dense real-valued objective over all q-ary strings on n sites."""

    n: int
    q: int
    values: np.ndarray

    def __post_init__(self):
        size = dense_size(self.n, self.q)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (size,):
            raise ValueError(f"values must have length q**n = {size}, got {vals.shape}")
        _check_values(vals)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.q**self.n


@dataclass(frozen=True)
class Spectrum:
    """Distinct objective values, strictly descending, with multiplicities.

    ``level_of[x]`` is the level index of string ``x``, so
    ``values[level_of[x]]`` recovers the objective value of ``x``; it is
    None for a spectrum counted without a dense table.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    n_states: int
    level_of: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=int)
        if vals.ndim != 1 or vals.shape != mult.shape:
            raise ValueError("values and multiplicities must be parallel 1-d arrays")
        if np.any(np.diff(vals) >= 0):
            raise ValueError("values must be strictly decreasing")
        if int(mult.sum()) != self.n_states:
            raise ValueError("multiplicities must sum to the state-space dimension")
        if self.level_of is not None:
            lev = np.asarray(self.level_of, dtype=int)
            if lev.shape != (self.n_states,):
                raise ValueError("level_of must map every string index")
            object.__setattr__(self, "level_of", lev)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def r(self) -> int:
        """Number of distinct objective values."""
        return len(self.values)

    @property
    def levels(self) -> List[tuple]:
        """(value, multiplicity) pairs in descending value order."""
        return [(float(v), int(m)) for v, m in zip(self.values, self.multiplicities)]


@dataclass(frozen=True)
class InitialState:
    """Normalized state vector over the q**n configuration strings."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        with np.errstate(over="ignore"):  # an overflowed norm is inf, refused below
            nrm = float(np.linalg.norm(amp))
        if not abs(nrm - 1.0) <= TOL_NORM:  # also refuses a NaN norm
            raise ValueError(f"state norm {nrm!r} differs from 1 beyond {TOL_NORM}")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class LevelOverlaps:
    """Per-level weights of an initial state.

    ``c[j] = ||P_j xi||`` is the weight of the state on level j (zero
    where unsupported); sum(c**2) = 1, so at least one level is
    supported.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        _check_weight_sum(c)
        object.__setattr__(self, "c", c)

    @property
    def supported_levels(self) -> List[int]:
        """Indices of the levels with nonzero weight, in spectrum order."""
        return np.flatnonzero(self.c).tolist()

    @property
    def d(self) -> int:
        """Number of supported levels."""
        return int(np.count_nonzero(self.c))


def build_spectrum(objective: ObjectiveTable) -> Spectrum:
    """Group the objective table into level sets, largest value first.

    Grouping uses exact equality, as the oracle's commutant solver does;
    the built-in problem builders emit integer-valued objectives, for
    which this is always safe.  When every value is, bit for bit, the
    table's minimum plus an integer k <= q**n, as for any integer-valued
    table with range at most q**n and no -0.0, the levels are counted by
    one ``np.bincount`` over k and each string's level is a rank lookup.
    Any other table is sorted once and each string finds its level by
    binary search in the sorted distinct values.
    """
    values, size = objective.values, objective.size
    low = values.min()
    if values.max() - low <= size:  # first, as a range up to 2e64 would overflow the cast
        shift = (values - low).astype(np.int64)
        if np.array_equal((shift + low).view(np.int64), values.view(np.int64)):
            counts = np.bincount(shift)
            present = np.flatnonzero(counts)[::-1]
            rank = np.zeros(len(counts), dtype=np.int64)
            rank[present] = np.arange(len(present))
            return Spectrum(
                values=present + low,
                multiplicities=counts[present],
                n_states=size,
                level_of=rank[shift],
            )
    uniq, counts = np.unique(values, return_counts=True)
    return Spectrum(
        values=uniq[::-1],
        multiplicities=counts[::-1],
        n_states=size,
        level_of=(len(uniq) - 1) - np.searchsorted(uniq, values),
    )


def uniform_state(n: int, q: int) -> InitialState:
    """Equal-amplitude superposition of all q**n strings."""
    size = dense_size(n, q)
    return InitialState(np.full(size, 1.0 / np.sqrt(size), dtype=complex))


def decompose_initial_state(state: InitialState, spectrum: Spectrum) -> LevelOverlaps:
    """Split a state into its weights along the level-set blocks.

    The weights ``||P_j xi||`` are summed in one pass over ``level_of``,
    so the spectrum must come from a dense table.  A level is supported
    when its weight exceeds ``TOL_ZERO``; its coefficient c_j is that
    weight.  The phases inside a level stay in its component xi_j: a
    per-level phase commutes with both generators, so no prediction
    depends on it.
    """
    amps = state.amplitudes
    if amps.shape[0] != spectrum.n_states:
        raise ValueError("state and spectrum dimensions disagree")
    if spectrum.level_of is None:
        raise ValueError("the spectrum has no level_of: build it from a dense table")
    return _level_overlaps(_level_norms(amps, spectrum.level_of, spectrum.r))


def _level_norms(amps: np.ndarray, level_of: np.ndarray, r: int) -> np.ndarray:
    """||P_j amps|| for each of the r levels.  A norm reads low only
    when its squares go subnormal, so below 2**-485, far under
    ``TOL_ZERO``: that level is unsupported either way."""
    sq = amps.real**2
    sq += amps.imag**2
    return np.sqrt(np.bincount(level_of, weights=sq, minlength=r))


def uniform_overlaps(spectrum: Spectrum) -> LevelOverlaps:
    """Per-level weights of the uniform state, c_j = sqrt(n_j / q**n).

    They depend on the multiplicities alone, so this needs no state and
    no ``level_of``; support is decided as in ``decompose_initial_state``.
    """
    return _level_overlaps(np.sqrt(spectrum.multiplicities / spectrum.n_states))


def _level_overlaps(weights: np.ndarray) -> LevelOverlaps:
    """Keep the weights above ``TOL_ZERO`` as the coefficients c_j.  The
    r dropped ones sum to at most r * TOL_ZERO**2 in c**2, far inside
    ``TOL_WEIGHT_SUM``, so ``LevelOverlaps`` accepts whatever the state's
    own norm allows."""
    return LevelOverlaps(c=np.where(weights > TOL_ZERO, weights, 0.0))
