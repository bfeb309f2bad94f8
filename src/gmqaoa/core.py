"""Level-set structure of dense combinatorial objectives.

Shared encodings for objective tables, spectra (distinct values with
multiplicities) and the decomposition of an initial state into per-level
components.  The string-to-index encoding is fixed everywhere: a
configuration (x_0, ..., x_{n-1}) over a q-letter alphabet maps to the
integer sum_i x_i * q**i, i.e. site 0 is the least significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: Largest dense table kept in memory (q**n entries).
DENSE_SIZE_LIMIT = 2**20

#: Default tolerance for unit-norm checks.
TOL_NORM = 1e-9

#: Default tolerance below which a level projection counts as unsupported.
TOL_ZERO = 1e-10


class SizeLimitError(ValueError):
    """q**n exceeds the dense-table limit."""


class ComplexOverlapError(ValueError):
    """A level projection has a genuinely complex phase.

    The real-coefficient convention used by the classification routines
    cannot represent such a state; the numerical oracle routines accept
    it directly.
    """


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
        if not np.all(np.isfinite(vals)):
            raise ValueError("objective values must all be finite")
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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class LevelOverlaps:
    """Per-level components of an initial state.

    ``c[j]`` is the signed real coefficient of the state on level j (zero
    where unsupported) and ``xi_components[j]`` the corresponding unit
    vector, stored full-length but supported only on the strings of level
    j.  ``d`` counts the supported levels.
    """

    c: np.ndarray
    xi_components: Dict[int, np.ndarray]
    d: int
    supported_levels: List[int] = field(default_factory=list)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        total = float(np.sum(c**2))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"coefficients must satisfy sum(c**2) = 1, got {total!r}")
        if self.d != len(self.supported_levels):
            raise ValueError("d must equal the number of supported levels")
        object.__setattr__(self, "c", c)

    @property
    def sum_c(self) -> float:
        return float(np.sum(self.c))

    def reconstruct(self) -> np.ndarray:
        """Sum of c_j * xi_j over the supported levels."""
        if not self.supported_levels:
            raise ValueError("no supported levels to reconstruct from")
        out = None
        for j in self.supported_levels:
            term = self.c[j] * self.xi_components[j]
            out = term if out is None else out + term
        return out


def build_spectrum(objective: ObjectiveTable, tol_level: float = 0.0) -> Spectrum:
    """Group the objective table into level sets, largest value first.

    Grouping uses exact equality by default; the built-in problem
    builders emit integer-valued objectives, for which this is always
    safe.  A positive ``tol_level`` merges adjacent distinct values
    whose gap is at most ``tol_level`` (the largest member represents
    the merged level); choosing it sensibly for hand-made real-valued
    tables is the caller's responsibility.
    """
    vals = objective.values
    uniq, inverse, counts = np.unique(vals, return_inverse=True, return_counts=True)
    r = len(uniq)
    if tol_level > 0.0 and r > 1:
        desc = uniq[::-1]
        counts_desc = counts[::-1]
        group = np.empty(r, dtype=int)
        group[0] = 0
        g = 0
        for k in range(1, r):
            if desc[k - 1] - desc[k] > tol_level:
                g += 1
            group[k] = g
        n_groups = g + 1
        values = np.array([desc[group == gg][0] for gg in range(n_groups)])
        mult = np.array([int(counts_desc[group == gg].sum()) for gg in range(n_groups)])
        level_of = group[(r - 1) - inverse]
    else:
        values = uniq[::-1].copy()
        mult = counts[::-1].copy()
        level_of = (r - 1) - inverse
    return Spectrum(
        values=values,
        multiplicities=mult,
        level_of=level_of,
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
    """Split a state into its components along the level-set blocks.

    Phase convention: each supported component xi_j is the normalized
    projection onto level j, rotated so that its first nonzero amplitude
    (lowest string index) is real positive; the coefficient c_j absorbs
    the resulting real sign.  Projections whose phase cannot be rotated
    to +-1 this way are rejected with :class:`ComplexOverlapError`.
    """
    amps = state.amplitudes
    if amps.shape[0] != spectrum.n_states:
        raise ValueError("state and spectrum dimensions disagree")
    r = spectrum.r
    c = np.zeros(r)
    components: Dict[int, np.ndarray] = {}
    for j in range(r):
        mask = spectrum.level_of == j
        block = amps[mask]
        weight = float(np.linalg.norm(block))
        if weight <= tol_zero:
            continue
        mags = np.abs(block)
        visible = mags > tol_zero
        lead = int(np.argmax(visible)) if visible.any() else int(np.argmax(mags))
        phase = block[lead] / mags[lead]
        coeff = weight * phase
        if abs(coeff.imag) > TOL_NORM * max(1.0, abs(coeff)):
            raise ComplexOverlapError(
                f"complex-overlap: level {j} projection carries phase "
                f"{complex(phase):.6g}; the real-coefficient convention does not apply"
            )
        c[j] = coeff.real
        comp = np.zeros_like(amps)
        comp[mask] = block * np.conj(phase) / weight
        components[j] = comp
    supported = [j for j in range(r) if c[j] != 0.0]
    return LevelOverlaps(
        c=c, xi_components=components, d=len(supported), supported_levels=supported
    )
