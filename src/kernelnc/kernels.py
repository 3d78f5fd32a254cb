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

from .errors import DegenerateScaleError, InputError, _number

GAUSSIAN = "gaussian"
INDICATOR = "indicator"

# Bytes of rows per block of a blocked pass (see _row_blocks): a few hundred
# KiB keeps a block of gram's output and its scratch factor in cache.
_BLOCK_BYTES = 1 << 18


def _row_blocks(n: int, width: int) -> list[slice]:
    """The row slices of an n x width float array, about _BLOCK_BYTES each."""
    height = max(1, _BLOCK_BYTES // (8 * width))
    return [slice(s, min(s + height, n)) for s in range(0, n, height)]


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
            ls = _number("lengthscale", self.lengthscale)
            if ls <= 0.0:
                raise InputError(f"lengthscale must be > 0, got {ls!r}", "lengthscale")
            object.__setattr__(self, "lengthscale", ls)
        elif self.lengthscale is not None:
            raise InputError("indicator columns do not take a lengthscale")


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel over the columns of one variable block."""

    columns: tuple[ColumnKernel, ...]

    def __post_init__(self) -> None:
        columns = tuple(self.columns) if isinstance(self.columns, Iterable) else ()
        if not columns or not all(isinstance(c, ColumnKernel) for c in columns):
            raise InputError(f"columns must be one or more ColumnKernels, got {self.columns!r}",
                             "columns")
        object.__setattr__(self, "columns", columns)

    @property
    def dim(self) -> int:
        return len(self.columns)

    @classmethod
    def gaussian(cls, lengthscales: Iterable[float]) -> "KernelSpec":
        return cls(tuple(ColumnKernel(GAUSSIAN, s) for s in lengthscales))

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

    A product of Gaussian columns takes one exp per entry: the squared
    scaled differences t^2, t = (a - b) * (1 / lengthscale), are summed
    over the Gaussian columns in declared order, and K = exp(sum * -0.5)
    times each indicator factor in declared order; with no Gaussian
    column the product starts from ones. gram(S, S) is exactly
    symmetric: entry (i, j) and entry (j, i) see the same terms, because
    (a - b)^2 == (b - a)^2 bit for bit, and add them in the same order.

    The output is filled one block of rows at a time, about
    _BLOCK_BYTES per block, so each term is formed in one cache-resident
    scratch block and no n x n temporary is allocated.
    """
    r = _as_matrix(rows, "rows")
    c = _as_matrix(cols, "cols")
    if r.shape[1] != spec.dim or c.shape[1] != spec.dim:
        raise InputError(
            f"spec has {spec.dim} columns but rows have {r.shape[1]} "
            f"and cols have {c.shape[1]}"
        )
    nr, nc = r.shape[0], c.shape[0]
    out = np.empty((nr, nc))
    col_values = [np.ascontiguousarray(c[:, j]) for j in range(spec.dim)]
    scales = {
        j: 1.0 / ck.lengthscale
        for j, ck in enumerate(spec.columns)
        if ck.family == GAUSSIAN
    }
    blocks = _row_blocks(nr, nc)
    scratch = np.empty((blocks[0].stop, nc))
    for span in blocks:
        block = out[span]
        f = scratch[: block.shape[0]]
        for k, (j, scale) in enumerate(scales.items()):
            # the first term goes straight into the output rows
            t = block if k == 0 else f
            np.subtract(r[span, j, None], col_values[j], out=t)
            t *= scale
            np.square(t, out=t)
            if k > 0:
                block += t
        if scales:
            block *= -0.5
            np.exp(block, out=block)
        else:
            block.fill(1.0)
        for j, ck in enumerate(spec.columns):
            if ck.family == INDICATOR:
                np.equal(r[span, j, None], col_values[j], out=f)
                block *= f
    return out


def _row_ends(xs: np.ndarray, t: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row i of sorted `xs`, one past the last j with fl(xs[j] - xs[i]) <= t.

    The search is confined to [lo[i], hi[i]]: every j < lo[i] must meet the
    predicate and every j >= hi[i] must fail it. The predicate is the rounded
    difference itself, which is monotone in j; searchsorted on fl(xs[i] + t)
    can sit an ulp away from it, so the guess is moved until it holds,
    jumping over runs of tied values in one step.
    """
    ends = np.clip(np.searchsorted(xs, xs + t, side="right"), lo, hi)
    while True:
        up = np.flatnonzero(ends < hi)
        up = up[xs[ends[up]] - xs[up] <= t]
        if up.size == 0:
            break
        ends[up] = np.minimum(np.searchsorted(xs, xs[ends[up]], side="right"), hi[up])
    while True:
        down = np.flatnonzero(ends > lo)
        down = down[xs[ends[down] - 1] - xs[down] > t]
        if down.size == 0:
            return ends
        ends[down] = np.maximum(np.searchsorted(xs, xs[ends[down] - 1], side="left"), lo[down])


def _central_gaps(xs: np.ndarray) -> list[float]:
    """The central order statistics of fl(xs[j] - xs[i]), i < j, for sorted `xs`.

    One statistic for an odd pair count, two for an even one: exactly the
    values np.median averages, so np.median of them is np.median of all
    gaps. They are bracketed by bisection on the gap value: per row i,
    the pairs (i, j) with lo[i] <= j < hi[i] form the window that still
    holds them. Once the window holds a few n pairs they are gathered and
    partitioned; no array of all n(n - 1)/2 gaps is ever formed.
    """
    n = xs.shape[0]
    rows = np.arange(n)
    pairs = n * (n - 1) // 2
    k = sorted({(pairs - 1) // 2, pairs // 2})
    lo, hi = rows + 1, np.full(n, n)
    below = 0  # pairs (i, j < lo[i]), all smaller than the window
    while True:
        live = np.flatnonzero(hi > lo)
        wmin = np.min(xs[lo[live]] - xs[live])
        wmax = np.max(xs[hi[live] - 1] - xs[live])
        if wmin == wmax:  # one distinct gap value, however many pairs
            return [wmin] * len(k)
        if int(np.sum(hi - lo)) <= 4 * n:
            break
        # a gap of two huge values can round to inf; bisect below it
        mid = min(wmin + 0.5 * (wmax - wmin), np.finfo(float).max)
        if mid >= wmax:  # adjacent floats: split off the smaller one
            mid = wmin
        ends = _row_ends(xs, mid, lo, hi)
        count = int(np.sum(ends - rows - 1))
        if count <= k[0]:
            lo, below = ends, count
        elif count > k[-1]:
            hi = ends
        else:  # count == k1 == k0 + 1: largest gap <= mid, smallest above it
            last = np.flatnonzero(ends > rows + 1)
            first = np.flatnonzero(ends < n)
            return [
                np.max(xs[ends[last] - 1] - xs[last]),
                np.min(xs[ends[first]] - xs[first]),
            ]
    lens = hi - lo
    i = np.repeat(rows, lens)
    j = np.arange(i.shape[0]) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
    ranks = [r - below for r in k]
    return list(np.partition(xs[j] - xs[i], ranks)[ranks])


def median_heuristic(samples: np.ndarray, dim: int = 0) -> float:
    """Median interpoint distance for one column of a sample matrix.

    Takes the median of |a_ij - a_kj| over all pairs i < k. An even pair
    count yields the mean of the two central order statistics. The result
    is the same float as np.median over all pairwise distances, found
    without forming them (see :func:`_central_gaps`). Raises
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
    med = float(np.median(_central_gaps(np.sort(x))))
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
            cols.append(ColumnKernel(GAUSSIAN, forced[j]))
        else:
            cols.append(ColumnKernel(GAUSSIAN, median_heuristic(arr, j)))
    return KernelSpec(tuple(cols))
