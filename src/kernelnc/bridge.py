"""Two-stage kernel ridge bridge from negative controls to outcomes.

Stage 1 ridge-projects each sample point onto the sample through the
(treatment, covariates, control-exposure) kernel; stage 2
ridge-regresses outcomes on the projected features, which is where the
negative control outcomes enter. One sample serves both stages, and
both are closed-form linear solves. Every effect estimator averages
the fitted bridge over a (covariates, control-outcome) population.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import DegenerateScaleError, InputError, NumericalError
from .kernels import KernelSpec, gram
from .ridge import RidgeSystem, TuneReport, gram_factor

@contextmanager
def _step(num: int, label: str):
    """Tag package errors with the pipeline step that raised them."""
    try:
        yield
    except (InputError, NumericalError, DegenerateScaleError) as err:
        raise type(err)(f"step {num} ({label}): {err}") from err


def compute_grams(
    data: Dataset,
    specs: Mapping[str, KernelSpec],
    roles: Sequence[str] = ("d", "x", "z", "w", "v"),
) -> dict[str, np.ndarray]:
    """The Gram set of one call: role -> n x n Gram over `data`.

    Covers each of `roles` that the data has; the default is every
    role. Every later step of a call reads its training-sample Grams
    from this dict rather than calling `gram` again, and deletes the
    entries no later step reads. The set is never kept beyond the call
    that built it.
    """
    roles = [role for role in roles if data.has_role(role)]
    missing = set(roles).difference(specs)
    if missing:
        raise InputError(f"kernel specs missing for roles {sorted(missing)}")
    blocks = {role: data.block(role) for role in roles}
    return {role: gram(b, b, specs[role]) for role, b in blocks.items()}


def bridge_products(grams: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The stage-1 Gram A over (d, x, z[, v]) and the stage-2 core over (d, x[, v]).

    The stage-2 core is the stage-1 product with the control-exposure
    factor dropped. Both multiply in role order, (d, x, z, v).
    """
    core = grams["d"] * grams["x"]
    A = core * grams["z"]
    if "v" in grams:
        A = A * grams["v"]
        core = core * grams["v"]
    return A, core


def project_stage1(
    stage1: RidgeSystem, stage2_core: np.ndarray, w_factor: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 solve: weights B and the derived second-stage kernel M.

    `stage1` is the system of the stage-1 Gram A. B is its smoother
    (A + n lam I)^{-1} A, and M multiplies the second-stage core Gram by
    B' K_ww B = (B' L)(B' L)', where `w_factor` is the factor L of
    K_ww = L L' (see :func:`gram_factor`); M is symmetrized to wash out
    round-off.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise InputError(f"lam must be finite and >= 0, got {lam}")
    try:
        B = stage1.smoother(stage1.n * lam)
    except NumericalError as err:
        raise NumericalError(f"stage 1: {err}") from err
    BL = B.T @ w_factor
    M = stage2_core * (BL @ BL.T)
    M = 0.5 * (M + M.T)
    return B, M


def solve_coef(stage2: RidgeSystem, y: np.ndarray, xi: float) -> np.ndarray:
    """Stage-2 solve: coefficients (M + m xi I)^{-1} y.

    `stage2` is the system of the second-stage kernel M. For nonsingular
    M this equals the paper's (M M' + m xi M)^{-1} M y without squaring
    the condition number of M, and it is the ridge whose xi the scalar
    leave-one-out loss tunes.
    """
    if not np.isfinite(xi) or xi < 0.0:
        raise InputError(f"xi must be finite and >= 0, got {xi}")
    m = stage2.n
    if y.shape != (m,):
        raise InputError(f"y must have shape ({m},), got {y.shape}")
    try:
        return stage2.solve(m * xi, y)
    except NumericalError as err:
        raise NumericalError(f"stage 2: {err}") from err


@dataclass
class BridgeModel:
    """Fitted two-stage bridge.

    `stage1_weights` (n x n) holds the stage-1 ridge weights of each
    sample point over the sample; `stage2_gram` (n x n) is the derived
    second-stage kernel; `coef` (n,) are the bridge coefficients;
    `w_factor` (n x r) is the pivoted-Cholesky factor L of the
    control-outcome Gram, K_ww = L L', through which every later step
    reads K_ww.
    """

    data: Dataset
    specs: dict[str, KernelSpec]
    lam: float
    xi: float
    stage1_weights: np.ndarray
    stage2_gram: np.ndarray
    coef: np.ndarray
    w_factor: np.ndarray

    @property
    def has_v(self) -> bool:
        return "v" in self.specs


def tune_and_fit(
    data: Dataset,
    specs: Mapping[str, KernelSpec],
    grams: dict[str, np.ndarray],
    lam: float | None = None,
    xi: float | None = None,
    grid=None,
) -> tuple[BridgeModel, dict[str, TuneReport]]:
    """The bridge's tuning sequence lam -> project_stage1 -> xi -> solve_coef.

    `grams` is the call's Gram set from :func:`compute_grams`; the
    products consume its d and z entries, and its w entry is factored in
    its own buffer and removed. Every penalty left as None is selected
    by closed-form leave-one-out on `grid`.

    Returns the bridge and the report of each tuned penalty. Errors
    carry the number of the pipeline step that raised them.
    """
    reports: dict[str, TuneReport] = {}
    A, core = bridge_products(grams)
    # Only the products read d and z; dropping them bounds the call's
    # peak memory.
    del grams["d"], grams["z"]
    with _step(3, "bridge fit"):
        w_factor = gram_factor(grams.pop("w"))
    stage1 = RidgeSystem(A)
    if lam is None:
        with _step(2, "penalty tuning"):
            reports["lam"] = stage1.loo_embedding(w_factor, grid)
        lam = reports["lam"].selected
    with _step(3, "bridge fit"):
        B, M = project_stage1(stage1, core, w_factor, lam)
    del A, core, stage1
    stage2 = RidgeSystem(M)
    if xi is None:
        with _step(2, "penalty tuning"):
            reports["xi"] = stage2.loo_scalar(data.y, grid)
        xi = reports["xi"].selected
    with _step(3, "bridge fit"):
        coef = solve_coef(stage2, data.y, xi)
    del stage2
    roles = ("d", "x", "z", "w") + (("v",) if data.has_role("v") else ())
    kept = {role: specs[role] for role in roles}
    model = BridgeModel(data, kept, float(lam), float(xi), B, M, coef, w_factor)
    return model, reports


def fit_bridge(
    data: Dataset, specs: Mapping[str, KernelSpec], lam: float, xi: float
) -> BridgeModel:
    """Fit the bridge on one sample that serves both stages.

    Solve failures carry a stage tag so callers can tell which linear
    system was at fault.
    """
    return tune_and_fit(data, specs, compute_grams(data, specs), lam, xi)[0]


def theoretical_embedding_penalty(n: int, smoothness: float) -> float:
    """Rate-optimal penalty n^{-1/(smoothness+1)} for an embedding ridge."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if not 1.0 < smoothness <= 2.0:
        raise InputError(f"smoothness must lie in (1, 2], got {smoothness}")
    return float(n) ** (-1.0 / (smoothness + 1.0))


def theoretical_schedule(
    n: int, m: int, c0: float, c: float, reuse: bool = False
) -> tuple[float, float]:
    """Rate-optimal (lam, xi) from the sample sizes and smoothness.

    `c0` is the stage-1 smoothness, `c` the stage-2 smoothness, both in
    (1, 2]. With sample reuse (m == n) the pair collapses to
    lam = n^{-1/(c0+1)}, xi = n^{-(c0-1)/((c0+1)(c+3))}; otherwise the
    xi exponent switches regime at a = (c+3)/(c+1), where
    a = (c0-1) log n / ((c0+1) log m).
    """
    for val, name in ((c0, "c0"), (c, "c")):
        if not 1.0 < val <= 2.0:
            raise InputError(f"{name} must lie in (1, 2], got {val}")
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    lam = float(n) ** (-1.0 / (c0 + 1.0))
    if reuse:
        if m != n:
            raise InputError("sample reuse requires m == n")
        xi = float(n) ** (-(c0 - 1.0) / ((c0 + 1.0) * (c + 3.0)))
        return lam, xi
    if m < 2:
        raise InputError(f"need m >= 2, got {m}")
    a = (c0 - 1.0) * math.log(n) / ((c0 + 1.0) * math.log(m))
    if a <= (c + 3.0) / (c + 1.0):
        xi = float(m) ** (-a / (c + 3.0))
    else:
        xi = float(m) ** (-1.0 / (c + 1.0))
    return lam, xi
