"""Monte Carlo loss statistics of the Grover-mixer circuit.

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

The dense q**n statevector circuit that the reduced path is tested
against is an oracle of record in ``tests/oracles.py``; it draws its
angles through ``_draw_angles``, so it sees the Monte Carlo's samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_values, _check_weight_sum, _is_integer

BETA_MAX = 2.0 * np.pi
GAMMA_MAX = np.pi

#: Entries per block of samples, each row holding its d coefficients and
#: its 2p angles; bounds the memory of the Monte Carlo for any sample
#: count, at every depth that ``_check_depth`` accepts: up to 2**20, so
#: that one row of 2p angles fits in a block.
_BLOCK_ENTRIES = 1 << 21


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


def _draw_angles(p: int, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows of angles, each the next 2p doubles of ``rng``:
    p betas uniform on [0, 2pi), then p gammas uniform on [0, pi)."""
    angles = rng.random((count, 2, p))
    angles[:, 0] *= BETA_MAX
    angles[:, 1] *= GAMMA_MAX
    return angles[:, 0], angles[:, 1]


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
    # past 2p > _BLOCK_ENTRIES a sample's row of angles alone would outgrow a block
    if not _is_integer(p) or not 1 <= p <= _BLOCK_ENTRIES // 2:
        raise ValueError(f"depth must be an integer in [1, {_BLOCK_ENTRIES // 2}], got {p!r}")


def _check_samples(samples: int) -> None:
    # the variance is unbiased, so it needs two samples
    if not _is_integer(samples) or samples < 2:
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")


def _check_seed(seed: int) -> None:
    if not _is_integer(seed) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64) and be an integer, got {seed!r}")


def monte_carlo_stats(values, weights, p: int, samples: int, seed: int) -> McReport:
    """Estimate mean and variance of the loss over random parameters.

    ``values`` and ``weights`` are the supported levels' objective values
    lambda_j and weights ||P_j xi||, in spectrum order: the nonzero
    entries of ``LevelOverlaps.c`` and the matching ``Spectrum.values``;
    the values and weights are refused by the rules of an objective
    table's values (|F| <= ``MAX_ABS_OBJECTIVE``) and of a level
    decomposition's weights (sum(w**2) = 1 to within ``TOL_WEIGHT_SUM``).
    The depth ``p`` is an integer from 1 to 2**20 (``_BLOCK_ENTRIES // 2``),
    so that a block of samples, and with it the memory, stays bounded.
    The angles come from one ``PCG64(seed)`` stream for an integer
    ``seed`` in [0, 2**64), and the reductions run over the
    sample-ordered array, so the report is a pure function of the
    arguments.  The variance is the
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
