"""Statevector evolution and Monte Carlo loss statistics.

The Monte Carlo runs in W0, the span of the d level components
u_j = P_j xi / ||P_j xi|| of the initial state, and takes only the
supported levels' values lambda_j and weights w_j = ||P_j xi||: for
the uniform state w_j = sqrt(n_j / q**n) from the multiplicities
(``core.uniform_overlaps``), for any other state the weights that
``core.decompose_initial_state`` sums.  Both layers leave W0
invariant, so a state there is a coefficient vector a over the u_j,
starting at w: the phase layer scales a_j by exp(-i gamma lambda_j),
the Grover mixer adds (e^{i beta} - 1)(w.a) w, and the loss is
sum_j lambda_j |a_j|^2.  Each layer-sample costs O(d) instead of
O(q**n).

The dense path (``run_circuit``, ``apply_*``, ``loss``) moves the full
q**n state, applying the mixer through its rank-one closed form, never
through a dense exponential.  It is kept as the oracle the reduced path
is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InitialState, ObjectiveTable, SizeLimitError, _check_values, _check_weight_sum

BETA_MAX = 2.0 * np.pi
GAMMA_MAX = np.pi

#: Entries per block of samples, each row holding its d coefficients and
#: its 2p angles; bounds the memory of the Monte Carlo for any sample
#: count and depth.
_BLOCK_ENTRIES = 1 << 21


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


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimates, in report order; reproducible from
    (problem, depth, samples, seed)."""

    depth: int
    samples: int
    seed: int
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float


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


def _draw_angles(p: int, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows of angles, each the next 2p doubles of ``rng``:
    p betas uniform on [0, 2pi), then p gammas uniform on [0, pi)."""
    angles = rng.random((count, 2, p))
    angles[:, 0] *= BETA_MAX
    angles[:, 1] *= GAMMA_MAX
    return angles[:, 0], angles[:, 1]


def sample_parameters(p: int, rng: np.random.Generator) -> ParameterSet:
    """Draw one parameter set by ``_draw_angles``; repeated calls on one
    generator give the Monte Carlo's samples in order."""
    betas, gammas = _draw_angles(p, rng, 1)
    return ParameterSet(betas[0], gammas[0])


def _sample_losses(
    values: np.ndarray, weights: np.ndarray, p: int, samples: int, seed: int
) -> np.ndarray:
    """Loss of each sample, in sample order, evolved in W0.

    ``values`` and ``weights`` are the supported levels in spectrum
    (descending) order; the evolution runs over them in ascending order.
    One ``PCG64(seed)`` stream gives the samples' angles in sample
    order, and every operation acts row by row, so a sample's loss does
    not depend on the block it is evolved in.
    """
    lam, w = values[::-1], weights[::-1]
    rows = max(1, _BLOCK_ENTRIES // (len(w) + 2 * p))
    rng = np.random.Generator(np.random.PCG64(seed))
    losses = np.empty(samples)
    for start in range(0, samples, rows):
        stop = min(start + rows, samples)
        betas, gammas = _draw_angles(p, rng, stop - start)
        a = np.tile(w.astype(complex), (stop - start, 1))
        for k in range(p):
            a *= np.exp(-1j * gammas[:, k, None] * lam)
            overlap = np.sum(a * w, axis=1)
            a += ((np.exp(1j * betas[:, k]) - 1.0) * overlap)[:, None] * w
        losses[start:stop] = np.sum((a.real**2 + a.imag**2) * lam, axis=1)
    return losses


def _check_depth(p: int) -> None:
    # a bool is an int to Python, but not a layer count
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"depth must be an integer >= 1, got {p!r}")


def _check_samples(samples: int) -> None:
    # the variance is unbiased, so it needs two samples; a bool is not a count
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def monte_carlo_stats(values, weights, p: int, samples: int, seed: int) -> McReport:
    """Estimate mean and variance of the loss over random parameters.

    ``values`` and ``weights`` are the supported levels' objective values
    lambda_j and weights ||P_j xi||, in spectrum order: the nonzero
    entries of ``LevelOverlaps.c`` and the matching ``Spectrum.values``;
    the values and weights are refused by the rules of an objective
    table's values (|F| <= ``MAX_ABS_OBJECTIVE``) and of a level
    decomposition's weights (sum(w**2) = 1 to within ``TOL_WEIGHT_SUM``).
    The angles come from one ``PCG64(seed)`` stream for a ``seed`` in
    [0, 2**64), and the reductions run over the sample-ordered array, so
    the report is a pure function of the arguments.  The variance is the
    unbiased sample variance; its standard error uses the plug-in
    fourth-central-moment formula sqrt((m4 - s^4 (M-3)/(M-1)) / M).
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or values.shape != weights.shape or values.size == 0:
        raise ValueError("values and weights must be parallel non-empty 1-d arrays")
    _check_values(values)
    _check_weight_sum(weights)
    _check_samples(samples)
    _check_depth(p)
    _check_seed(seed)
    losses = _sample_losses(values, weights, p, samples, seed)
    mean = float(np.mean(losses))
    variance = float(np.var(losses, ddof=1))
    centered = losses - mean
    m4 = float(np.mean(centered**4))
    var_of_var = (m4 - variance**2 * (samples - 3) / (samples - 1)) / samples
    return McReport(
        depth=p,
        samples=samples,
        seed=int(seed),
        mean=mean,
        variance=variance,
        stderr_mean=float(np.sqrt(variance / samples)),
        stderr_variance=float(np.sqrt(max(var_of_var, 0.0))),
    )


def grover_mixer_identity_check(n: int) -> float:
    """Max entrywise gap between -(1/2**n) prod_j (I + X_j) and the
    negative projector onto the uniform superposition."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 10:
        raise SizeLimitError("dense product check capped at n = 10")
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
