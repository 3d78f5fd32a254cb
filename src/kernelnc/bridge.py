"""Two-stage kernel ridge bridge from negative controls to outcomes.

Stage 1 ridge-projects each sample point onto the sample through the
(treatment, covariates, control-exposure) kernel; stage 2
ridge-regresses outcomes on the projected features, which is where the
negative control outcomes enter. One sample serves both stages, and
both are closed-form linear solves. Every effect estimator averages
the fitted bridge over a (covariates, control-outcome) population.

The only large objects of a fit are n x n Grams. Each role Gram is
built just before its first reader and released after its last (see
:class:`GramSet`), the products multiply in place, and the stage-1
smoother B is never formed: every later step reads it as B'L (n x r)
for the factor L of K_ww, or applies it to a cross Gram through the
stage-1 system. One fit holds at most four n x n arrays at once,
LAPACK's own buffers aside.
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

ROLES = ("d", "x", "z", "w", "v")


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


class GramSet:
    """The training-sample Grams of one call, each built at its first read.

    `grams[role]` builds the role's n x n Gram and keeps it;
    `grams.pop(role)` hands it over for the last time, so that the
    reader can multiply in its buffer and the set no longer holds it.
    `role in grams` is true for every role the data has that was not
    popped. The set is never kept beyond the call that made it, and a
    popped role is not built again.
    """

    def __init__(self, data: Dataset, specs: Mapping[str, KernelSpec]):
        self._data, self._specs = data, specs
        self._roles = [role for role in ROLES if data.has_role(role)]
        missing = set(self._roles).difference(specs)
        if missing:
            raise InputError(f"kernel specs missing for roles {sorted(missing)}")
        self._built: dict[str, np.ndarray] = {}

    def __contains__(self, role: str) -> bool:
        return role in self._roles

    def __getitem__(self, role: str) -> np.ndarray:
        if role not in self._built:
            if role not in self._roles:
                raise KeyError(role)
            block = self._data.block(role)
            self._built[role] = gram(block, block, self._specs[role])
        return self._built[role]

    def pop(self, role: str) -> np.ndarray:
        gram_ = self[role]
        del self._built[role]
        self._roles.remove(role)
        return gram_


def bridge_products(grams: GramSet) -> tuple[np.ndarray, np.ndarray]:
    """The stage-1 Gram A over (d, x, z[, v]) and the stage-2 core over (d, x[, v]).

    The stage-2 core is the stage-1 product with the control-exposure
    factor dropped. Both multiply in role order, (d, x, z, v), in the
    buffers of the d and z Grams; each entry is popped from `grams` and
    released once it is multiplied in.

    z is built before x is released. The allocator then has x's freed
    buffer, exactly n x n, for the stage-1 eigenvectors, which places A
    above them: when the stage-1 system releases A, its memory rejoins
    the top of the heap and the stage-2 eigh reuses it. Released the
    other way round, glibc keeps A's buffer as a hole that small arrays
    split, and an n = 2000 fit peaks one n x n (30.5 MiB) higher.
    """
    core = grams.pop("d")
    x = grams.pop("x")
    A = grams.pop("z")
    core *= x
    del x
    A *= core
    if "v" in grams:
        v = grams.pop("v")
        A *= v
        core *= v
    return A, core


def project_stage1(
    stage1: RidgeSystem, stage2_core: np.ndarray, w_factor: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 solve: B'L and the derived second-stage kernel M.

    `stage1` is the system of the stage-1 Gram A, whose weights are the
    smoother B = A (A + n lam I)^{-1}, and `w_factor` is the factor L of
    K_ww = L L' (see :func:`gram_factor`). B is never formed: B'L = B L
    (n x r) is the system's smooth of L. M multiplies the second-stage
    core by B' K_ww B = (B'L)(B'L)'; it is formed in the buffer of
    `stage2_core`, one block of rows at a time, so that no other n x n
    array is allocated. Entries (i, j) and (j, i) of M may differ in
    round-off, and every solve reads only its lower triangle.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise InputError(f"lam must be finite and >= 0, got {lam}")
    try:
        BL = stage1.smooth(stage1.n * lam, w_factor)
    except NumericalError as err:
        raise NumericalError(f"stage 1: {err}") from err
    M = stage2_core
    n = M.shape[0]
    height = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, height):
        rows = slice(start, start + height)
        M[rows] *= BL[rows] @ BL.T
    return BL, M


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

    `stage1` is the ridge system of the stage-1 Gram A, whose smoother
    B = A (A + n lam I)^{-1} holds the stage-1 weights of each sample
    point over the sample; it keeps the eigenpairs of A (or A itself
    when lam was not tuned), through which a ds request reads B.
    `projected_w` (n x r) is B'L for the pivoted-Cholesky factor L of
    the control-outcome Gram, K_ww = L L', through which every other
    effect reads B' K_ww. `coef` (n,) are the bridge coefficients. No
    n x n array besides the one inside `stage1` is kept.
    """

    lam: float
    xi: float
    stage1: RidgeSystem
    projected_w: np.ndarray
    coef: np.ndarray


def tune_and_fit(
    data: Dataset,
    grams: GramSet,
    w_factor: np.ndarray,
    lam: float | None = None,
    xi: float | None = None,
    grid=None,
) -> tuple[BridgeModel, dict[str, TuneReport]]:
    """The bridge's tuning sequence lam -> project_stage1 -> xi -> solve_coef.

    The products consume the d, x, z[, v] entries of `grams`, and
    `w_factor` is the factor of K_ww (see :func:`gram_factor`). Every
    penalty left as None is selected by closed-form leave-one-out on
    `grid`.

    The stage-1 system releases A after its eigendecomposition, M is
    formed in the buffer of the stage-2 core, and the stage-2 system
    releases M likewise, so at most four n x n arrays are live,
    LAPACK's buffers aside.

    Returns the bridge and the report of each tuned penalty. Errors
    carry the number of the pipeline step that raised them.
    """
    reports: dict[str, TuneReport] = {}
    A, core = bridge_products(grams)
    stage1 = RidgeSystem(A)
    del A  # the system holds it until its eigendecomposition
    lam = _search(reports, "lam", lam, lambda: stage1.loo_embedding(w_factor, grid))
    with _step(3, "bridge fit"):
        projected_w, M = project_stage1(stage1, core, w_factor, lam)
    del core
    stage2 = RidgeSystem(M)
    del M
    xi = _search(reports, "xi", xi, lambda: stage2.loo_scalar(data.y, grid))
    with _step(3, "bridge fit"):
        coef = solve_coef(stage2, data.y, xi)
    return BridgeModel(lam, xi, stage1, projected_w, coef), reports


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
