"""Two-stage kernel ridge bridge from negative controls to outcomes.

Stage 1 ridge-projects each sample point onto the sample through the
(treatment, covariates, control-exposure) kernel; stage 2
ridge-regresses outcomes on the projected features, which is where the
negative control outcomes enter. One sample serves both stages, and
both are closed-form linear solves. Every effect estimator averages
the fitted bridge over a (covariates, control-outcome) population.

The only large objects of a fit are n x n Grams. The estimator reads
the training sample only through products of role kernels, and each
product is one Gram over the roles' columns (see :func:`product_gram`),
built just before its reader and dropped after it. The stage-1
smoother B is never formed: every later step reads it as B'L (n x r)
for the factor L of K_ww, or applies it to a cross Gram through the
stage-1 system. While either stage's system decomposes, the n x n
array it decomposes is the only one live, LAPACK's own buffers aside:
the stage-2 core is built once stage 1 is done with, rather than held
across its decomposition.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .data import Dataset
from .errors import DegenerateScaleError, InputError, NumericalError
from .kernels import _BLOCK_BYTES, KernelSpec, gram
from .ridge import RidgeSystem, TuneReport


@contextmanager
def _step(num: int, label: str):
    """Tag package errors with the pipeline step that raised them; an
    error that an inner step already tagged passes through unchanged."""
    try:
        yield
    except (InputError, NumericalError, DegenerateScaleError) as err:
        if str(err).startswith("step "):
            raise
        raise type(err)(f"step {num} ({label}): {err}") from err


def _search(
    reports: dict[str, TuneReport],
    name: str,
    penalty: float | None,
    loss: Callable[[], TuneReport],
) -> float:
    """`penalty` as a float, or, when it is None, the selection of the
    leave-one-out search `loss()`, whose report is kept as reports[name].

    Every penalty search of a pass runs here, as step 2.
    """
    if penalty is None:
        with _step(2, "penalty tuning"):
            reports[name] = loss()
        penalty = reports[name].selected
    return float(penalty)


def product_gram(
    data: Dataset, specs: Mapping[str, KernelSpec], roles: tuple[str, ...]
) -> np.ndarray:
    """The n x n Gram, on the training sample, of the product of the role
    kernels of those `roles` the data has.

    The roles' columns and column kernels are concatenated in the order
    of `roles` into one spec, so the product is one :func:`gram` call.
    The stage-1 Gram A is the product over ("d", "x", "z", "v"), the
    stage-2 core over ("d", "x", "v"), and the baseline's Gram without
    treatment over ("x", "z", "w", "v").
    """
    present = [role for role in roles if data.has_role(role)]
    columns = np.hstack([data.block(role) for role in present])
    spec = KernelSpec(sum((specs[role].columns for role in present), ()))
    return gram(columns, columns, spec)


def project_stage1(stage1: RidgeSystem, w_factor: np.ndarray, lam: float) -> np.ndarray:
    """Stage-1 solve: B'L, the stage-1 weights read through K_ww.

    `stage1` is the system of the stage-1 Gram A, whose weights are the
    smoother B = A (A + n lam I)^{-1}, and `w_factor` is the factor L of
    K_ww = L L' (see :func:`gram_factor`). B is never formed: B'L = B L
    (n x r) is the system's smooth of L.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise InputError(f"lam must be finite and >= 0, got {lam}")
    try:
        return stage1.smooth(stage1.n * lam, w_factor)
    except NumericalError as err:
        raise NumericalError(f"stage 1: {err}") from err


def stage2_kernel(core: np.ndarray, projected_w: np.ndarray) -> np.ndarray:
    """The second-stage kernel M = core o B' K_ww B, in the buffer of `core`.

    `core` is the stage-2 core K_d o K_x [o K_v] and `projected_w` is
    B'L (see :func:`project_stage1`), so B' K_ww B = (B'L)(B'L)'. M is
    formed one block of rows at a time, so that no other n x n array is
    allocated. Entries (i, j) and (j, i) of M may differ in round-off,
    and every solve reads only its lower triangle.
    """
    M = core
    n = M.shape[0]
    height = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, height):
        rows = slice(start, start + height)
        M[rows] *= projected_w[rows] @ projected_w.T
    return M


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
    """Fitted two-stage bridge, as the effect evaluation reads it.

    `c` (n,) is the reweighting vector that the effect evaluation read
    from the fitted stage 1 (see :func:`tune_and_fit`), and `coef` (n,)
    are the bridge coefficients. The model holds no n x n array.
    """

    lam: float
    xi: float
    c: np.ndarray
    coef: np.ndarray


def tune_and_fit(
    data: Dataset,
    specs: Mapping[str, KernelSpec],
    w_factor: np.ndarray,
    reweight: Callable[[RidgeSystem, float, np.ndarray], np.ndarray],
    lam: float | None = None,
    xi: float | None = None,
    grid=None,
) -> tuple[BridgeModel, dict[str, TuneReport]]:
    """The bridge's sequence lam -> project_stage1 -> reweight -> xi -> solve_coef.

    `w_factor` is the factor L of K_ww (see :func:`gram_factor`).
    `reweight(stage1, lam, B'L)` returns the reweighting vector c of the
    effect evaluation: it is called once B'L is formed, with the
    fitted stage-1 system, whose smoother B = A (A + n lam I)^{-1} is
    the stage-1 weights, and nothing reads stage 1 after it. Every
    penalty left as None is selected by closed-form leave-one-out on
    `grid`.

    While a system decomposes, its input is the only n x n array live,
    LAPACK's buffers aside. A is built from `specs` as the product Gram
    over d, x, z[, v] (see :func:`product_gram`), and the stage-1 system
    releases it after its eigendecomposition. The stage-1 system is
    released once c is read, and only then is the stage-2 core built
    over d, x[, v] and M formed in its buffer; the stage-2 system
    releases M likewise.

    Returns the bridge and the report of each tuned penalty. Errors
    carry the number of the pipeline step that raised them.
    """
    reports: dict[str, TuneReport] = {}
    stage1 = RidgeSystem(product_gram(data, specs, ("d", "x", "z", "v")))
    lam = _search(reports, "lam", lam, lambda: stage1.loo_embedding(w_factor, grid))
    with _step(3, "bridge fit"):
        projected_w = project_stage1(stage1, w_factor, lam)
    c = reweight(stage1, lam, projected_w)
    del stage1
    M = stage2_kernel(product_gram(data, specs, ("d", "x", "v")), projected_w)
    stage2 = RidgeSystem(M)
    del M  # the system holds it until its eigendecomposition
    xi = _search(reports, "xi", xi, lambda: stage2.loo_scalar(data.y, grid))
    with _step(3, "bridge fit"):
        coef = solve_coef(stage2, data.y, xi)
    return BridgeModel(lam, xi, c, coef), reports


def theoretical_embedding_penalty(n: int, smoothness: float) -> float:
    """Rate-optimal penalty n^{-1/(smoothness+1)} for an embedding ridge."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if not 1.0 < smoothness <= 2.0:
        raise InputError(f"smoothness must lie in (1, 2], got {smoothness}")
    return float(n) ** (-1.0 / (smoothness + 1.0))


def theoretical_schedule(n: int, c0: float, c: float) -> tuple[float, float]:
    """Rate-optimal (lam, xi) for one sample of size n serving both stages.

    `c0` is the stage-1 smoothness, `c` the stage-2 smoothness, both in
    (1, 2]: lam = n^{-1/(c0+1)}, xi = n^{-(c0-1)/((c0+1)(c+3))}.
    """
    for val, name in ((c0, "c0"), (c, "c")):
        if not 1.0 < val <= 2.0:
            raise InputError(f"{name} must lie in (1, 2], got {val}")
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    lam = float(n) ** (-1.0 / (c0 + 1.0))
    xi = float(n) ** (-(c0 - 1.0) / ((c0 + 1.0) * (c + 3.0)))
    return lam, xi
