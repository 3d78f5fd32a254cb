"""Pieces of the two-stage kernel ridge bridge from negative controls to outcomes.

Stage 1 ridge-projects each sample point onto the sample through the
(treatment, covariates, control-exposure) kernel; stage 2
ridge-regresses outcomes on the projected features, which is where the
negative control outcomes enter. One sample serves both stages, and
both are closed-form linear solves, run in that order by
:func:`kernelnc.effects._nc_curve`. This module holds what the steps
share: their error tags, the penalty search, the product Grams and the
second-stage kernel, plus the theoretical penalty schedules.

The only large objects of a fit are n x n Grams. The estimator reads
the training sample only through products of role kernels, and each
product is one Gram over the roles' columns (see :func:`product_gram`),
built just before its reader and dropped after it. The stage-1
smoother B is never formed: every later step reads it as B'L (n x r)
for the factor L of K_ww, or applies it to a cross Gram through the
stage-1 system.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Mapping

import numpy as np

from .data import Dataset
from .errors import DegenerateScaleError, InputError, NumericalError
from .kernels import _BLOCK_BYTES, KernelSpec, gram
from .ridge import TuneReport


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
    data: Dataset,
    specs: Mapping[str, KernelSpec],
    roles: tuple[str, ...],
    points: Mapping[str, np.ndarray] | None = None,
) -> np.ndarray:
    """The Gram, between the training sample and `points`, of the product
    of the role kernels of those `roles` the data has.

    `points` maps each such role to its query block (m rows each) and
    gives an n x m Gram; without it the Gram is the sample's own, n x n.
    The roles' columns and column kernels are concatenated in the order
    of `roles` into one spec, so the product is one :func:`gram` call.
    The stage-1 Gram A is the product over ("d", "x", "z", "v"), the
    stage-2 core over ("d", "x", "v"), and the baseline's Gram without
    treatment over ("x", "z", "w", "v").
    """
    present = [role for role in roles if data.has_role(role)]
    rows = np.hstack([data.block(role) for role in present])
    cols = rows if points is None else np.hstack([points[role] for role in present])
    spec = KernelSpec(sum((specs[role].columns for role in present), ()))
    return gram(rows, cols, spec)


def stage2_kernel(core: np.ndarray, projected_w: np.ndarray) -> np.ndarray:
    """The second-stage kernel M = core o B' K_ww B, in the buffer of `core`.

    `core` is the stage-2 core K_d o K_x [o K_v] and `projected_w` is
    B'L, the stage-1 smooth of the factor L of K_ww, so
    B' K_ww B = (B'L)(B'L)'. M is formed one block of rows at a time,
    so that no other n x n array is allocated. Entries (i, j) and
    (j, i) of M may differ in round-off, and every solve reads only its
    lower triangle.
    """
    M = core
    n = M.shape[0]
    height = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, height):
        rows = slice(start, start + height)
        M[rows] *= projected_w[rows] @ projected_w.T
    return M


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
