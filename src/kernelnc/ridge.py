"""Regularized PSD solves, kernel ridge regression, and leave-one-out tuning.

The two tuners share one trick: a single symmetric eigendecomposition of
the input Gram serves every candidate penalty, because the smoother
R = K (K + n lambda I)^{-1} has the same eigenvectors for all lambda.
Both leave-one-out losses are exact closed forms, not refits; the test
suite checks them against brute-force refits to 1e-8 relative error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError

#: Default tuning grid: 20 log-spaced candidates spanning [1e-8, 1e2].
DEFAULT_GRID = np.logspace(-8.0, 2.0, 20)

_JITTER_UNIT = 1e-12  # first retry adds 1e-12 * mean(diag), then 10x per retry
_MAX_RETRIES = 3


def _check_square(K: np.ndarray, name: str) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] == 0:
        raise InputError(f"{name} must be a non-empty square matrix, got {K.shape}")
    if not np.all(np.isfinite(K)):
        i, j = np.argwhere(~np.isfinite(K))[0]
        raise NumericalError(f"non-finite entry in {name} at ({i}, {j})")
    return K


@dataclass
class RidgeSystem:
    """The PSD system (K + ridge I) with a cached Cholesky factorization.

    Factorization happens on first solve and escalates a diagonal jitter
    when K + ridge I is numerically singular: starting from
    1e-12 * mean(diag K) and growing tenfold, at most three retries.
    The jitter actually applied is recorded on the instance.
    """

    kernel: np.ndarray
    ridge: float
    jitter: float = field(default=0.0, init=False)
    _factor: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.kernel = _check_square(self.kernel, "kernel")
        if not np.isfinite(self.ridge) or self.ridge < 0.0:
            raise InputError(f"ridge must be finite and >= 0, got {self.ridge}")

    def _factorize(self) -> tuple:
        if self._factor is not None:
            return self._factor
        n = self.kernel.shape[0]
        mean_diag = float(np.trace(self.kernel)) / n
        scale = mean_diag if mean_diag > 0.0 else 1.0
        jitters = [0.0] + [_JITTER_UNIT * scale * 10.0**k for k in range(_MAX_RETRIES)]
        for jit in jitters:
            shifted = self.kernel.copy()
            shifted.flat[:: n + 1] += self.ridge + jit
            try:
                self._factor = scipy.linalg.cho_factor(shifted, lower=True)
            except scipy.linalg.LinAlgError:
                continue
            self.jitter = jit
            return self._factor
        raise NumericalError(
            f"Cholesky failed for a {n}x{n} system with ridge {self.ridge:g}; "
            f"attempted jitters {[f'{j:g}' for j in jitters]}"
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return (K + ridge I)^{-1} b for a vector or matrix b."""
        b = np.asarray(b, dtype=float)
        rows = b.shape[0] if b.ndim in (1, 2) else -1
        if rows != self.kernel.shape[0]:
            raise InputError(
                f"rhs has {rows} rows, system has {self.kernel.shape[0]}"
            )
        if not np.all(np.isfinite(b)):
            raise NumericalError("non-finite entry in right-hand side")
        return scipy.linalg.cho_solve(self._factorize(), b)


def solve_ridge(K: np.ndarray, ridge: float, b: np.ndarray) -> np.ndarray:
    """One-shot (K + ridge I)^{-1} b with the jitter-escalation policy."""
    return RidgeSystem(K, ridge).solve(b)


def krr_fit_predict(
    K_train: np.ndarray, targets: np.ndarray, lam: float, K_cross: np.ndarray
) -> np.ndarray:
    """Kernel ridge predictions targets' (K + n lambda I)^{-1} K_cross.

    `K_cross` holds training rows against query columns, shape
    (n_train, n_query); returns one prediction per query.
    """
    y = np.asarray(targets, dtype=float)
    if y.ndim != 1:
        raise InputError("targets must be 1-D")
    n = y.shape[0]
    kc = np.asarray(K_cross, dtype=float)
    if kc.ndim == 1:
        kc = kc[:, None]
    if kc.shape[0] != n:
        raise InputError(f"K_cross has {kc.shape[0]} rows, expected {n}")
    coef = RidgeSystem(K_train, n * lam).solve(y)
    return kc.T @ coef


@dataclass(frozen=True)
class TuneReport:
    """Grid-search record: candidates, losses, and the selected penalty.

    The grid is sorted ascending and ties resolve to the smallest
    candidate, so `selected` is always the first minimizer.
    """

    grid: np.ndarray
    losses: np.ndarray
    selected: float
    loss_kind: str

    def __post_init__(self) -> None:
        if self.grid.shape != self.losses.shape or self.grid.ndim != 1:
            raise InputError("grid and losses must be 1-D arrays of equal length")
        if not np.all(np.isfinite(self.losses)):
            raise NumericalError(f"non-finite {self.loss_kind} loss on the grid")
        if self.selected != self.grid[int(np.argmin(self.losses))]:
            raise InputError("selected penalty does not attain the minimum loss")


def _prepare_grid(grid) -> np.ndarray:
    g = np.sort(np.asarray(DEFAULT_GRID if grid is None else grid, dtype=float))
    if g.ndim != 1 or g.shape[0] == 0:
        raise InputError("grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise InputError("grid candidates must be finite and positive")
    return g


def loocv_scalar(K: np.ndarray, y: np.ndarray, grid=None) -> TuneReport:
    """Exact leave-one-out loss for scalar kernel ridge regression.

    For each candidate lambda, with H = I - K (K + n lambda I)^{-1} and
    Htilde = diag(H), the loss is n^{-1} || Htilde^{-1} H y ||^2: the
    mean squared leave-one-out residual, no refits required.
    """
    y = np.asarray(y, dtype=float)
    g = _prepare_grid(grid)
    n = y.shape[0]
    if y.ndim != 1 or n == 0:
        raise InputError("y must be a non-empty 1-D array")
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite entry in y")
    K = _check_square(K, "K")
    if K.shape[0] != n:
        raise InputError(f"K is {K.shape[0]}x{K.shape[0]} but y has length {n}")
    eigvals, Q = np.linalg.eigh(K)
    Qty = Q.T @ y
    Q2 = Q * Q
    losses = np.empty_like(g)
    for idx, lam in enumerate(g):
        d = eigvals / (eigvals + n * lam)
        h_diag = 1.0 - Q2 @ d
        if np.any(h_diag == 0.0):
            raise NumericalError(f"zero leave-one-out diagonal at lambda={lam:g}")
        resid = (y - Q @ (d * Qty)) / h_diag
        losses[idx] = float(resid @ resid) / n
    report = TuneReport(g, losses, float(g[int(np.argmin(losses))]), "scalar_loocv")
    return report


def loocv_embedding(K_input: np.ndarray, K_output: np.ndarray, grid=None) -> TuneReport:
    """Exact leave-one-out loss for a conditional mean embedding.

    For each candidate lambda, with R = K_input (K_input + n lambda I)^{-1}
    and S = diag((1 - R_ii)^{-2}), the loss is
    n^{-1} tr(S (K_output - 2 K_output R' + R K_output R')): the mean
    squared RKHS distance between each held-out output feature and its
    leave-one-out embedding.
    """
    g = _prepare_grid(grid)
    Ko = _check_square(K_output, "K_output")
    eigvals, Q = np.linalg.eigh(_check_square(K_input, "K_input"))
    n = Q.shape[0]
    if Ko.shape[0] != n:
        raise InputError(
            f"K_output is {Ko.shape[0]}x{Ko.shape[0]}, K_input is {n}x{n}"
        )
    Q2 = Q * Q
    KoQ = Ko @ Q
    P = Q.T @ KoQ
    t1 = np.diag(Ko)
    losses = np.empty_like(g)
    for idx, lam in enumerate(g):
        d = eigvals / (eigvals + n * lam)
        denom = 1.0 - Q2 @ d
        if np.any(denom == 0.0):
            raise NumericalError(f"zero leave-one-out diagonal at lambda={lam:g}")
        t2 = np.sum(Q * (KoQ * d), axis=1)
        U = Q * d
        t3 = np.sum((U @ P) * U, axis=1)
        losses[idx] = float(np.mean((t1 - 2.0 * t2 + t3) / (denom * denom)))
    report = TuneReport(g, losses, float(g[int(np.argmin(losses))]), "embedding_loocv")
    return report
