"""Product kernels over mixed continuous and categorical columns.

Every variable block (treatment, covariates, controls) carries one
:class:`KernelSpec`: a product of per-column kernels, Gaussian for
continuous columns and indicator (exact match) for categorical ones.
Gaussian lengthscales default to the per-dimension median interpoint
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateScaleError, InputError

GAUSSIAN = "gaussian"
INDICATOR = "indicator"


@dataclass(frozen=True)
class ColumnKernel:
    """Kernel applied to one input column.

    Gaussian columns require a finite positive lengthscale; indicator
    columns must not carry one.
    """

    family: str
    lengthscale: float | None = None

    def __post_init__(self) -> None:
        if self.family not in (GAUSSIAN, INDICATOR):
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN:
            ls = self.lengthscale
            if ls is None or not np.isfinite(ls) or ls <= 0.0:
                raise InputError(
                    f"gaussian column needs a finite positive lengthscale, got {ls!r}"
                )
        elif self.lengthscale is not None:
            raise InputError("indicator columns do not take a lengthscale")


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel over the columns of one variable block."""

    columns: tuple[ColumnKernel, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise InputError("KernelSpec needs at least one column")

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def lengthscales(self) -> tuple[float | None, ...]:
        """Per-column lengthscales, None on indicator columns."""
        return tuple(c.lengthscale for c in self.columns)

    @classmethod
    def gaussian(cls, lengthscales: Iterable[float]) -> "KernelSpec":
        return cls(tuple(ColumnKernel(GAUSSIAN, float(s)) for s in lengthscales))

    @classmethod
    def indicator(cls, ncols: int) -> "KernelSpec":
        return cls(tuple(ColumnKernel(INDICATOR) for _ in range(ncols)))


def _as_matrix(samples: np.ndarray, name: str) -> np.ndarray:
    """Coerce samples to a 2-D float array, one row per observation."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InputError(f"{name} must be a non-empty 1-D or 2-D array")
    return arr


def gram(rows: np.ndarray, cols: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix K[i, j] = k(rows_i, cols_j) under a product kernel.

    The product over columns accumulates in declared column order, so
    gram(S, S) is exactly symmetric: entry (i, j) and entry (j, i) see
    the same factors because (a - b)^2 == (b - a)^2 bit for bit.
    """
    r = _as_matrix(rows, "rows")
    c = _as_matrix(cols, "cols")
    if r.shape[1] != spec.dim or c.shape[1] != spec.dim:
        raise InputError(
            f"spec has {spec.dim} columns but rows have {r.shape[1]} "
            f"and cols have {c.shape[1]}"
        )
    out = np.ones((r.shape[0], c.shape[0]))
    for j, ck in enumerate(spec.columns):
        rj = r[:, j][:, None]
        cj = c[:, j][None, :]
        if ck.family == GAUSSIAN:
            t = (rj - cj) / ck.lengthscale
            out *= np.exp(-0.5 * t * t)
        else:
            out *= (rj == cj).astype(float)
    return out


def median_heuristic(samples: np.ndarray, dim: int = 0) -> float:
    """Median interpoint distance for one column of a sample matrix.

    Takes the median of |a_ij - a_kj| over all pairs i < k. An even pair
    count yields the mean of the two central order statistics. Raises
    :class:`DegenerateScaleError` when the result would be 0 (all values
    identical, or more than half of all pairs coincide); callers must
    then supply an explicit lengthscale or declare the column
    categorical.
    """
    arr = _as_matrix(samples, "samples")
    if not 0 <= dim < arr.shape[1]:
        raise InputError(f"dimension {dim} out of range for {arr.shape[1]} columns")
    x = arr[:, dim]
    if x.shape[0] < 2:
        raise InputError("median heuristic needs at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise InputError(f"non-finite values in column {dim}")
    med = float(np.median(pdist(x[:, None], metric="cityblock")))
    if med <= 0.0:
        raise DegenerateScaleError(
            f"median interpoint distance in column {dim} is 0; supply a "
            "lengthscale or declare the column categorical",
            column=dim,
        )
    return med


def spec_from_data(
    samples: np.ndarray,
    categorical: Sequence[bool] | None = None,
    lengthscales: Sequence[float | None] | None = None,
) -> KernelSpec:
    """Build a block spec from data: indicator for categorical columns,
    Gaussian with the median heuristic otherwise.

    `lengthscales` entries, where given and not None, override the
    heuristic for that column; a categorical column takes none.
    """
    arr = _as_matrix(samples, "samples")
    p = arr.shape[1]
    cat = list(categorical) if categorical is not None else [False] * p
    forced = list(lengthscales) if lengthscales is not None else [None] * p
    if len(cat) != p or len(forced) != p:
        raise InputError("categorical/lengthscales must match the column count")
    cols = []
    for j in range(p):
        if cat[j]:
            if forced[j] is not None:
                raise InputError(f"column {j} is categorical and takes no lengthscale")
            cols.append(ColumnKernel(INDICATOR))
        elif forced[j] is not None:
            cols.append(ColumnKernel(GAUSSIAN, float(forced[j])))
        else:
            cols.append(ColumnKernel(GAUSSIAN, median_heuristic(arr, j)))
    return KernelSpec(tuple(cols))
