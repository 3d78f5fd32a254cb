"""Two-stage kernel ridge bridge from negative controls to outcomes.

Stage 1 ridge-projects each sample point onto the sample through the
(treatment, covariates, control-exposure) kernel; stage 2
ridge-regresses outcomes on the projected features, which is where the
negative control outcomes enter. One sample serves both stages, and
both are closed-form linear solves. The fitted bridge evaluates at
arbitrary (treatment, covariates, control-outcome) points and underpins
every effect estimator.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset
from .errors import DegenerateScaleError, InputError, NumericalError
from .kernels import KernelSpec, gram
from .ridge import RidgeSystem, TuneReport, loocv_embedding, loocv_scalar

# Penalty of the conditional embedding given each conditioning role:
# lam1 embeds (x, w[, v]) given the treatment, lam2 embeds (x, w) given
# the subgroup covariates.
EMBEDDING_PENALTIES = {"d": "lam1", "v": "lam2"}


@contextmanager
def _step(num: int, label: str):
    """Tag package errors with the pipeline step that raised them."""
    try:
        yield
    except (InputError, NumericalError, DegenerateScaleError) as err:
        raise type(err)(f"step {num} ({label}): {err}") from err


def _as_block(arr, dim: int, name: str) -> np.ndarray:
    """Normalize query points to shape (q, dim)."""
    a = np.asarray(arr, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        # A 1-D array is a batch of scalars when the block is 1-D,
        # otherwise a single point.
        a = a[:, None] if dim == 1 else a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise InputError(f"{name} queries must have {dim} column(s), got {a.shape}")
    return a


def compute_grams(
    data: Dataset, specs: Mapping[str, KernelSpec]
) -> dict[str, np.ndarray]:
    """The Gram set of one call: role -> n x n Gram over `data`.

    Covers the roles d, x, z, w and, when present, v. Every later step
    of a call reads its training-sample Grams from this dict rather than
    calling `gram` again, and deletes the entries no later step reads.
    The set is never kept beyond the call that built it.
    """
    roles = ["d", "x", "z", "w"] + (["v"] if data.has_role("v") else [])
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


def _output_gram(grams: Mapping[str, np.ndarray], include_v: bool) -> np.ndarray:
    """Gram of the embedded outputs (x, w[, v]) over the sample."""
    out = grams["x"] * grams["w"]
    if include_v and "v" in grams:
        out = out * grams["v"]
    return out


def project_stage1(
    A: np.ndarray, stage2_core: np.ndarray, K_ww: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 solve: weights B and the derived second-stage kernel M.

    B = (A + n lam I)^{-1} A, and M multiplies the second-stage core
    Gram by B' K_ww B, symmetrized to wash out round-off.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise InputError(f"lam must be finite and >= 0, got {lam}")
    n = A.shape[0]
    try:
        B = RidgeSystem(A, n * lam).solve(A)
    except NumericalError as err:
        raise NumericalError(f"stage 1: {err}") from err
    M = stage2_core * (B.T @ K_ww @ B)
    M = 0.5 * (M + M.T)
    return B, M


def solve_coef(M: np.ndarray, y: np.ndarray, xi: float) -> np.ndarray:
    """Stage-2 solve: coefficients (M M' + m xi M)^{-1} M y."""
    if not np.isfinite(xi) or xi < 0.0:
        raise InputError(f"xi must be finite and >= 0, got {xi}")
    m = M.shape[0]
    if y.shape != (m,):
        raise InputError(f"y must have shape ({m},), got {y.shape}")
    try:
        return RidgeSystem(M @ M.T + m * xi * M, 0.0).solve(M @ y)
    except NumericalError as err:
        raise NumericalError(f"stage 2: {err}") from err


@dataclass
class BridgeModel:
    """Fitted two-stage bridge.

    `stage1_weights` (n x n) holds the stage-1 ridge weights of each
    sample point over the sample; `stage2_gram` (n x n) is the derived
    second-stage kernel; `coef` (n,) are the bridge coefficients.
    """

    data: Dataset
    specs: dict[str, KernelSpec]
    lam: float
    xi: float
    stage1_weights: np.ndarray
    stage2_gram: np.ndarray
    coef: np.ndarray

    @property
    def has_v(self) -> bool:
        return "v" in self.specs


def tune_and_fit(
    data: Dataset,
    specs: Mapping[str, KernelSpec],
    grams: dict[str, np.ndarray],
    lam: float | None = None,
    xi: float | None = None,
    embeds: Mapping[str, float | None] | None = None,
    grid=None,
    model: BridgeModel | None = None,
) -> tuple[BridgeModel, dict[str, float], dict[str, TuneReport]]:
    """The tuning sequence lam -> project_stage1 -> xi -> (lam1 | lam2).

    `grams` is the call's Gram set from :func:`compute_grams`. `embeds`
    maps the conditioning role of each conditional embedding the caller
    will use ("d" for lam1, "v" for lam2) to its penalty. Every penalty
    left as None is selected by closed-form leave-one-out on `grid`.
    Given a fitted `model`, the bridge steps are skipped.

    Returns the bridge, every penalty by name, and the report of each
    tuned one. Errors carry the number of the pipeline step that raised
    them.
    """
    embeds = dict(embeds or {})
    reports: dict[str, TuneReport] = {}
    if model is None:
        A, core = bridge_products(grams)
        # Only the products read z, and past them only the treatment
        # embedding reads d; dropping them bounds the call's peak memory.
        del grams["z"]
        if "d" not in embeds:
            del grams["d"]
        if lam is None:
            with _step(2, "penalty tuning"):
                reports["lam"] = loocv_embedding(A, grams["w"], grid)
            lam = reports["lam"].selected
        with _step(3, "bridge fit"):
            B, M = project_stage1(A, core, grams["w"], lam)
        del A, core
        if xi is None:
            with _step(2, "penalty tuning"):
                reports["xi"] = loocv_scalar(M, data.y, grid)
            xi = reports["xi"].selected
        with _step(3, "bridge fit"):
            coef = solve_coef(M, data.y, xi)
        roles = ("d", "x", "z", "w") + (("v",) if data.has_role("v") else ())
        kept = {role: specs[role] for role in roles}
        model = BridgeModel(data, kept, float(lam), float(xi), B, M, coef)
    penalties = {"lam": model.lam, "xi": model.xi}
    for role, penalty in embeds.items():
        name = EMBEDDING_PENALTIES[role]
        if penalty is None:
            with _step(4, "embedding weights"):
                if role not in grams:
                    raise InputError(f"dataset has no {role!r} columns")
                K_out = _output_gram(grams, include_v=role == "d")
                reports[name] = loocv_embedding(grams[role], K_out, grid)
            penalty = reports[name].selected
        penalties[name] = float(penalty)
    return model, penalties, reports


def fit_bridge(
    data: Dataset, specs: Mapping[str, KernelSpec], lam: float, xi: float
) -> BridgeModel:
    """Fit the bridge on one sample that serves both stages.

    Solve failures carry a stage tag so callers can tell which linear
    system was at fault.
    """
    return tune_and_fit(data, specs, compute_grams(data, specs), lam, xi)[0]


def eval_bridge(model: BridgeModel, d, x, w, v=None) -> np.ndarray:
    """Evaluate the bridge at query (d, x, w[, v]) points.

    Each argument is a batch with one row per query (scalars and 1-D
    inputs are promoted); returns one value per query.
    """
    specs = model.specs
    dq = _as_block(d, specs["d"].dim, "d")
    xq = _as_block(x, specs["x"].dim, "x")
    wq = _as_block(w, specs["w"].dim, "w")
    nq = dq.shape[0]
    if xq.shape[0] != nq or wq.shape[0] != nq:
        raise InputError("d, x, w must carry the same number of query rows")
    kd = gram(model.data.block("d"), dq, specs["d"])
    kx = gram(model.data.block("x"), xq, specs["x"])
    kw = gram(model.data.block("w"), wq, specs["w"])
    feats = kd * kx * (model.stage1_weights.T @ kw)
    if model.has_v:
        if v is None:
            raise InputError("model includes a 'v' block; pass v queries")
        vq = _as_block(v, specs["v"].dim, "v")
        if vq.shape[0] != nq:
            raise InputError("v must carry the same number of query rows")
        feats = feats * gram(model.data.block("v"), vq, specs["v"])
    elif v is not None:
        raise InputError("model has no 'v' block")
    return model.coef @ feats


def stage2_fitted_values(model: BridgeModel) -> np.ndarray:
    """In-sample predictions for the second-stage outcomes."""
    return model.stage2_gram.T @ model.coef


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
