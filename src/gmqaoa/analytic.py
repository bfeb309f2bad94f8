"""Closed-form structure predictions for Grover-mixer QAOA circuits.

Everything here is a function of the objective's level-set spectrum and
of the initial state's per-level weights c_j = ||P_j xi||: the
classification of the generated Lie algebra and its center, the
commutant dimension and the large-depth loss statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LevelOverlaps, Spectrum


@dataclass(frozen=True)
class DlaPrediction:
    """Predicted Lie-algebra type for the two-generator circuit."""

    algebra: str
    dim: int
    center_dim: int


@dataclass(frozen=True)
class LossStatsPrediction:
    """Large-depth mean and variance of the loss under random parameters.

    ``zeta_mean``/``zeta_var`` are the statistics of a uniform draw from
    the d supported objective values; ``expected_loss`` equals
    ``zeta_mean`` (= l1/d).
    """

    zeta_mean: float
    zeta_var: float
    p_su_rho: float
    p_su_hp: float
    expected_loss: float
    loss_variance: float
    l1: float
    l2: float


def predict_dla(spectrum: Spectrum, overlaps: LevelOverlaps) -> DlaPrediction:
    """Classify the Lie algebra generated by the circuit's two generators.

    With d supported levels the algebra is su_d on the span W0 of the
    level components plus a center spanned by the identity on W0 and,
    when it is nonzero, the problem Hamiltonian restricted to W0's
    complement: real dimension d**2 or d**2 + 1.  That restriction is
    nonzero iff some level of nonzero value is unsupported or holds more
    than one string, so only the weights' support enters, not their
    phases.
    """
    d = overlaps.d
    outside = (overlaps.c == 0) | (spectrum.multiplicities > 1)
    center_dim = 1 + bool(np.any((spectrum.values != 0) & outside))
    algebra = f"su_{d}" + " + u_1" * center_dim
    return DlaPrediction(algebra=algebra, dim=d**2 - 1 + center_dim, center_dim=center_dim)


def predict_commutant(spectrum: Spectrum, overlaps: LevelOverlaps) -> int:
    """Largest possible commutant dimension, attained by the Grover mixer:
    1 + sum over supported levels of (n_j - 1)**2 plus sum over
    unsupported levels of n_j**2 (complex dimensions)."""
    m = spectrum.multiplicities
    return int(1 + np.sum(np.where(overlaps.c > 0, (m - 1) ** 2, m**2)))


def predict_loss_stats(spectrum: Spectrum, overlaps: LevelOverlaps) -> LossStatsPrediction:
    """Large-depth loss statistics over uniformly random parameters.

    The circuit twirls the state block W0 = span{xi_j} to P_W0/d, so the
    expected loss is Tr(P_W0 H_p)/d = l1/d = mean(zeta) and the loss
    variance is Var(zeta)/(d+1), where zeta is uniform on the d supported
    objective values.
    """
    lam = spectrum.values[overlaps.c > 0]
    d = overlaps.d
    zeta_mean = float(np.mean(lam))
    zeta_var = float(np.var(lam))
    l1 = float(np.sum(lam))
    l2 = float(np.sum(lam**2))
    return LossStatsPrediction(
        zeta_mean=zeta_mean,
        zeta_var=zeta_var,
        p_su_rho=1.0 - 1.0 / d,
        p_su_hp=l2 - l1**2 / d,
        expected_loss=zeta_mean,
        loss_variance=zeta_var / (d + 1),
        l1=l1,
        l2=l2,
    )

