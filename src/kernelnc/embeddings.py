"""Conditional kernel mean embedding weights.

The conditional effect estimators reweight the covariate and control
average by conditional embedding weights: a kernel ridge system on the
conditioning block, solved for one column per query.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .ridge import RidgeSystem


def cme_weights(K_BB: np.ndarray, lam: float, K_Bb: np.ndarray) -> np.ndarray:
    """Conditional-embedding weights (K_BB + n lambda I)^{-1} K_Bb.

    `K_Bb` may be a single column (one query) or a matrix with one
    column per query; the result matches its shape.
    """
    K_BB = np.asarray(K_BB, dtype=float)
    if K_BB.ndim != 2 or K_BB.shape[0] != K_BB.shape[1]:
        raise InputError("K_BB must be square")
    n = K_BB.shape[0]
    if not np.isfinite(lam) or lam < 0.0:
        raise InputError(f"lambda must be finite and >= 0, got {lam}")
    return RidgeSystem(K_BB).solve(n * lam, np.asarray(K_Bb, dtype=float))
