"""Level-set structure of dense combinatorial objectives.

Shared encodings for objective tables, spectra (distinct values with
multiplicities) and the decomposition of an initial state into per-level
weights.  ``build_spectrum`` groups objective values into levels (the
oracle groups its own input, independently);
``decompose_initial_state`` reads the per-level weights off
``Spectrum.level_of``.  The string-to-index encoding is fixed
everywhere: a configuration (x_0, ..., x_{n-1}) over a q-letter alphabet
maps to the integer sum_i x_i * q**i, i.e. site 0 is the least
significant digit.  The built-in builders apply this rule in one place,
``problems._local_objective``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: Largest dense table kept in memory (q**n entries).
DENSE_SIZE_LIMIT = 2**20

#: Default tolerance for unit-norm checks.
TOL_NORM = 1e-9

#: Default tolerance below which a level projection counts as unsupported.
TOL_ZERO = 1e-10

#: Largest gap between sum(c**2) and 1 that a level decomposition accepts.
TOL_WEIGHT_SUM = 1e-6

#: Largest |F| an objective table accepts.  Values differ by at most
#: 2e64, so the fourth central moment of the Monte Carlo losses, at most
#: (2e64)**4, and every other loss statistic stay finite.
MAX_ABS_OBJECTIVE = 1e64


class SizeLimitError(ValueError):
    """q**n exceeds the dense-table limit."""


def dense_size(n: int, q: int) -> int:
    """q**n for q >= 2, or SizeLimitError above the dense-table limit.

    Since q >= 2, n alone already rules out a too-large table, so a huge n
    is refused before q**n is formed.
    """
    if n >= DENSE_SIZE_LIMIT.bit_length() or q**n > DENSE_SIZE_LIMIT:
        raise SizeLimitError(f"q**n = {q}**{n} exceeds the dense-table limit {DENSE_SIZE_LIMIT}")
    return q**n


@dataclass(frozen=True)
class ObjectiveTable:
    """Dense real-valued objective over all q-ary strings on n sites."""

    n: int
    q: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("site count n must be at least 1")
        if self.q < 2:
            raise ValueError("alphabet size q must be at least 2")
        size = dense_size(self.n, self.q)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (size,):
            raise ValueError(f"values must have length q**n = {size}, got {vals.shape}")
        if not np.all(np.abs(vals) <= MAX_ABS_OBJECTIVE):  # also refuses NaN
            raise ValueError(
                f"objective values must all be finite with |F| <= {MAX_ABS_OBJECTIVE:g}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.q**self.n


@dataclass(frozen=True)
class Spectrum:
    """Distinct objective values, strictly descending, with multiplicities.

    ``level_of[x]`` is the level index of string ``x``, so
    ``values[level_of[x]]`` recovers the objective value of ``x``.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    level_of: np.ndarray
    n_states: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=int)
        lev = np.asarray(self.level_of, dtype=int)
        if vals.ndim != 1 or vals.shape != mult.shape:
            raise ValueError("values and multiplicities must be parallel 1-d arrays")
        if np.any(np.diff(vals) >= 0):
            raise ValueError("values must be strictly decreasing")
        if int(mult.sum()) != self.n_states:
            raise ValueError("multiplicities must sum to the state-space dimension")
        if lev.shape != (self.n_states,):
            raise ValueError("level_of must map every string index")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "multiplicities", mult)
        object.__setattr__(self, "level_of", lev)

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
        total = float(np.sum(c**2))
        if not abs(total - 1.0) <= TOL_WEIGHT_SUM:  # also refuses a NaN norm
            raise ValueError(f"coefficients must satisfy sum(c**2) = 1, got {total!r}")
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
    which this is always safe.
    """
    uniq, inverse, counts = np.unique(objective.values, return_inverse=True, return_counts=True)
    return Spectrum(
        values=uniq[::-1],
        multiplicities=counts[::-1],
        level_of=(len(uniq) - 1) - inverse,
        n_states=objective.size,
    )


def uniform_state(n: int, q: int) -> InitialState:
    """Equal-amplitude superposition of all q**n strings."""
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    size = dense_size(n, q)
    return InitialState(np.full(size, 1.0 / np.sqrt(size), dtype=complex))


def decompose_initial_state(
    state: InitialState, spectrum: Spectrum, tol_zero: float = TOL_ZERO
) -> LevelOverlaps:
    """Split a state into its weights along the level-set blocks.

    The weights ``||P_j xi||`` are summed in one pass over ``level_of``.
    A level is supported when its weight exceeds ``tol_zero``; its
    coefficient c_j is that weight.  The phases inside a level stay in
    its component xi_j: a per-level phase commutes with both generators,
    so no prediction depends on it.
    """
    amps = state.amplitudes
    if amps.shape[0] != spectrum.n_states:
        raise ValueError("state and spectrum dimensions disagree")
    mags_sq = amps.real**2 + amps.imag**2
    weights = np.sqrt(np.bincount(spectrum.level_of, weights=mags_sq, minlength=spectrum.r))
    coeff = np.where(weights > tol_zero, weights, 0.0)
    kept = float(np.sum(coeff**2))
    if not kept >= 1.0 - TOL_WEIGHT_SUM:  # also refuses a NaN tol_zero
        dropped = float(np.max(weights[coeff == 0.0]))
        raise ValueError(
            f"tol_zero = {tol_zero!r} drops level weights up to {dropped:.3g}, "
            f"so the kept weights give sum(c**2) = {kept!r} < 1 - {TOL_WEIGHT_SUM:g}"
        )
    return LevelOverlaps(c=coeff)
