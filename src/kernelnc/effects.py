"""Treatment-effect curves from the fitted bridge, plus a naive baseline.

The bridge's stage 1 ridge-projects the sample through the (treatment,
covariates, control-exposure) kernel and stage 2 ridge-regresses
outcomes on the projected features; :func:`_nc_curve` runs both.

Every estimator reduces to one pattern: pair the bridge coefficients
with reweighting constants c_j that encode which population the
covariates and control outcomes are averaged over, then sweep the
treatment kernel over a grid. The dose-response estimator averages the
training population, the distribution-shift variant averages an
alternative sample, and the conditional variants (on a treatment level,
or on subgroup covariates) replace the uniform average with conditional
embedding weights. Step 5 reads the bridge only through n x r
products, c = rowsum(B'L o K_x (weights o L)) for the factor L of K_ww,
so no n x n feature matrix is formed.

The naive baseline regresses the outcome on treatment, covariates, and
both negative controls in a single kernel ridge and averages out
everything but the treatment; it ignores confounding by construction
and exists as a comparison target.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import numpy.ma  # noqa: F401  np.percentile imports it at its first call, not in a fit

from .data import Dataset
from .errors import DegenerateScaleError, InputError, NumericalError, _number
from .kernels import _BLOCK_BYTES, KernelSpec, gram, spec_from_data
from .ridge import RidgeSystem, TuneReport, _prepare_grid, gram_factor

EFFECT_KINDS = ("ate", "ds", "att", "cate")
ESTIMATORS = ("nc", "te")
TUNING_MODES = ("loocv", "theoretical", "forced")
PENALTIES = ("lam", "xi", "lam1", "lam2")
SMOOTHNESS = ("c0", "c", "c1", "c2")


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


@dataclass(frozen=True, eq=False)
class EffectRequest:
    """What to estimate and where to evaluate it.

    `grid` overrides the default treatment grid (100 points between the
    1st and 99th percentile of observed treatment, or the category
    codes when treatment is categorical); it must be non-empty, finite
    and at most 1-D, and a scalar is a one-point grid. `alt_*` carry
    the target population for kind "ds", `d_value` the conditioning
    treatment for "att", `v_value` the subgroup point for "cate". Each
    given number is stored as a finite float (`d_value`), an int
    (`grid_size`, at least 2 without a grid) or a float array of finite
    entries; anything else raises InputError naming its field.
    """

    kind: str = "ate"
    grid: np.ndarray | None = None
    grid_size: int = 100
    alt_x: np.ndarray | None = None
    alt_w: np.ndarray | None = None
    alt_v: np.ndarray | None = None
    d_value: float | None = None
    v_value: np.ndarray | float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EFFECT_KINDS:
            raise InputError(f"unknown effect kind {self.kind!r}")
        size = _number("grid_size", self.grid_size, int, 2 if self.grid is None else None)
        object.__setattr__(self, "grid_size", size)
        for name in ("grid", "d_value", "v_value", "alt_x", "alt_w", "alt_v"):
            value = getattr(self, name)
            if value is not None:
                as_type = float if name == "d_value" else np.ndarray
                object.__setattr__(self, name, _number(name, value, as_type))
        if self.grid is not None and (self.grid.ndim > 1 or self.grid.size == 0):
            raise InputError("explicit grid must be non-empty, finite and at most 1-D")
        if self.kind == "ds" and (self.alt_x is None or self.alt_w is None):
            raise InputError("kind 'ds' needs alt_x and alt_w")
        if self.kind == "att" and self.d_value is None:
            raise InputError("kind 'att' needs d_value")
        if self.kind == "cate" and self.v_value is None:
            raise InputError("kind 'cate' needs v_value")


@dataclass(frozen=True, eq=False)
class TuningPlan:
    """Penalty selection policy for the end-to-end runner.

    Mode "loocv" tunes every penalty on the grid; "theoretical" sets
    them from the smoothness parameters; "forced" uses the values given
    here and falls back to LOOCV for any left as None, which is how the
    robustness sweeps pin one penalty while tuning the other. Penalty
    values apply only in mode "forced", and each must be finite and
    >= 0. The smoothness values c0, c, c1 and c2 must lie in (1, 2] in
    every mode, and a given `grid` must hold distinct, finite, positive
    candidates. Each number is stored as a float, the grid as a float
    array; a value that is not one raises InputError naming its field.
    """

    mode: str = "loocv"
    lam: float | None = None
    xi: float | None = None
    lam1: float | None = None
    lam2: float | None = None
    c0: float = 2.0
    c: float = 2.0
    c1: float = 2.0
    c2: float = 2.0
    grid: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in TUNING_MODES:
            raise InputError(f"unknown tuning mode {self.mode!r}")
        for name in PENALTIES:
            value = getattr(self, name)
            if value is None:
                continue
            if self.mode != "forced":
                raise InputError(
                    f"penalty {name} is set but tuning mode is {self.mode!r}; "
                    "penalty values apply only in mode 'forced'"
                )
            object.__setattr__(self, name, _number(name, value, least=0))
        for name in SMOOTHNESS:
            value = _number(name, getattr(self, name))
            if not 1.0 < value <= 2.0:
                raise InputError(f"smoothness {name} must lie in (1, 2], got {value}")
            object.__setattr__(self, name, value)
        if self.grid is not None:
            object.__setattr__(self, "grid", _number("grid", self.grid, np.ndarray))
            _prepare_grid(self.grid)

    def penalties(self, n: int) -> dict[str, float | None]:
        """lam, xi, lam1 and lam2 for a sample of size n; None is tuned.
        Mode "theoretical" gives the rate-optimal schedule for one sample."""
        if self.mode != "theoretical":
            return {name: getattr(self, name) for name in PENALTIES}
        n = float(n)
        return {
            "lam": n ** (-1.0 / (self.c0 + 1.0)),
            "xi": n ** (-(self.c0 - 1.0) / ((self.c0 + 1.0) * (self.c + 3.0))),
            "lam1": n ** (-1.0 / (self.c1 + 1.0)),
            "lam2": n ** (-1.0 / (self.c2 + 1.0)),
        }


@dataclass(eq=False)
class EffectCurve:
    """Estimated effect on a treatment grid, with run metadata."""

    grid: np.ndarray
    values: np.ndarray
    estimator: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape or self.grid.ndim != 1:
            raise InputError("grid and values must be 1-D arrays of equal length")


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


def kernel_specs(
    data: Dataset, lengthscales: Mapping[str, float] | None = None
) -> dict[str, KernelSpec]:
    """Per-role kernel specs: indicator for categorical columns,
    Gaussian with the median heuristic otherwise.

    `lengthscales` maps column names to explicit overrides.
    """
    overrides = dict(lengthscales or {})
    roles = ["d", "x", "z", "w"] + (["v"] if data.has_role("v") else [])
    specs: dict[str, KernelSpec] = {}
    for role in roles:
        forced = [overrides.pop(name, None) for name in data.names(role)]
        try:
            specs[role] = spec_from_data(
                data.block(role), data.categorical_flags(role), forced
            )
        except InputError as err:
            raise InputError(f"{role!r} block: {err}") from err
        except DegenerateScaleError as err:
            name = data.names(role)[err.column]
            raise DegenerateScaleError(f"{role!r} block: column {name!r}: {err}") from err
    if overrides:
        raise InputError(
            f"lengthscale overrides for unknown columns {sorted(overrides)}"
        )
    return specs


def lengthscale_digest(specs: Mapping[str, KernelSpec]) -> str:
    """Short stable digest of every block's kernel configuration."""
    parts = []
    for role in sorted(specs):
        for j, col in enumerate(specs[role].columns):
            parts.append(f"{role}[{j}]:{col.family}:{col.lengthscale!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def default_grid(d_values, size: int = 100, categorical: bool = False) -> np.ndarray:
    """Evaluation grid over the observed treatment range."""
    d = np.asarray(d_values, dtype=float).ravel()
    if d.size == 0:
        raise InputError("no treatment values")
    if categorical:
        return np.unique(d)
    if size < 2:
        raise InputError("grid size must be at least 2")
    lo, hi = np.percentile(d, [1.0, 99.0])
    return np.linspace(lo, hi, size)


def _resolve_grid(request: EffectRequest, data: Dataset) -> np.ndarray:
    if request.grid is not None:
        return np.asarray(request.grid, dtype=float).ravel()
    categorical = data.categorical_flags("d")[0]
    return default_grid(data.block("d")[:, 0], request.grid_size, categorical)


@dataclass(eq=False)
class _Pass:
    """One estimate's pass: its data, kernel specs and treatment grid, the
    plan's penalties (None is tuned) and candidates, and what the steps
    write: the penalties the pass used and the search of each tuned one.
    It holds no Gram and no RidgeSystem."""

    data: Dataset
    specs: dict[str, KernelSpec]
    grid: np.ndarray
    plan: dict[str, float | None]
    candidates: np.ndarray | None
    used: dict[str, float] = field(default_factory=dict)
    reports: dict[str, TuneReport] = field(default_factory=dict)

    def penalty(self, name: str, loss: Callable[[np.ndarray | None], TuneReport]) -> float:
        """The plan's value of penalty `name`, or, when it is None, the
        selection of the leave-one-out search `loss(candidates)`, whose
        report is kept. Every penalty search of a pass runs here, as step 2.
        """
        value = self.plan[name]
        if value is None:
            with _step(2, "penalty tuning"):
                self.reports[name] = loss(self.candidates)
            value = self.reports[name].selected
        self.used[name] = float(value)
        return self.used[name]

    def curve(self, coef: np.ndarray, estimator: str, kind: str) -> EffectCurve:
        """The curve g -> sum_i coef_i k_d(d_i, g) over the grid, with its
        metadata: the penalties used (xi None for te, extra_penalty the
        embedding's lam1 or lam2, else None), and on metadata["tuning"] the
        search of each tuned penalty, keyed by name, as plain floats:
        candidates, losses and selected.
        """
        kd = gram(self.data.block("d"), self.grid[:, None], self.specs["d"])
        tuning = {
            name: {"candidates": r.grid.tolist(), "losses": r.losses.tolist(),
                   "selected": r.selected}
            for name, r in sorted(self.reports.items())
        }
        used = self.used
        metadata = dict(estimator=estimator, effect=kind, n=self.data.n, m=self.data.n,
                        lam=used["lam"], xi=used.get("xi"),
                        extra_penalty=used.get("lam1", used.get("lam2")), tuning=tuning)
        return EffectCurve(self.grid, kd.T @ coef, estimator, metadata)


def _population(specs, data: Dataset, request: EffectRequest) -> dict | None:
    """The validated (x, w, v) sample of a ds request, v None without a v
    block; None when it is the training sample itself."""
    ax = _as_block(request.alt_x, specs["x"].dim, "alt_x")
    aw = _as_block(request.alt_w, specs["w"].dim, "alt_w")
    if ax.shape[0] != aw.shape[0]:
        raise InputError("alt_x and alt_w must have the same number of rows")
    av = None
    if "v" in specs:
        if request.alt_v is None:
            raise InputError("model includes a 'v' block; pass alt_v")
        av = _as_block(request.alt_v, specs["v"].dim, "alt_v")
        if av.shape[0] != ax.shape[0]:
            raise InputError("alt_v must match alt_x rows")
    elif request.alt_v is not None:
        raise InputError("model has no 'v' block")
    sample = {"x": ax, "w": aw, "v": av}
    if all(np.array_equal(b, data.block(r)) for r, b in sample.items() if b is not None):
        return None
    return sample


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


def _population_features(
    data: Dataset, specs, stage1: RidgeSystem, lam: float, sample
) -> np.ndarray:
    """n x m features pairing each sample point with the m-point (x, w[, v])
    population of a ds request: k_x(x, ax) [o k_v(v, av)] o B k_w(w, aw),
    with B applied as the smooth of the stage-1 system at penalty `lam`.
    The smooth runs first, with no other n x m array live."""
    kw = product_gram(data, specs, ("w",), sample)
    smoothed = stage1.smooth(data.n * lam, kw)
    del kw
    features = product_gram(data, specs, ("x", "v"), sample)
    features *= smoothed
    return features


def _read_x(
    data: Dataset, specs, kind: str, weights: np.ndarray, w_factor: np.ndarray
) -> np.ndarray:
    """K_x' (weights o L), n x r: the population side of step 5.

    K_x' is the product Gram over x and, except for cate, v; L is the
    factor of K_ww. Step 5 reads the training sample only through this
    product, and K_x' is dropped once it is formed.
    """
    roles = ("x",) if kind == "cate" else ("x", "v")
    return product_gram(data, specs, roles) @ (weights[:, None] * w_factor)


def _embedding(p: _Pass, request: EffectRequest) -> tuple[np.ndarray, np.ndarray | None]:
    """Step 4: the conditional mean embedding of att or cate.

    One kernel ridge on the conditioning Gram: the treatment's for att
    (penalty lam1, outputs x, w[, v]), the subgroup covariates' for cate
    (penalty lam2, outputs x, w). The system is built from the
    pivoted-Cholesky factor of that Gram, which is dropped once
    factored: a one-column treatment or subgroup Gram has numerical rank
    r of about 20 at n = 1000, so the system's eigendecomposition is
    r x r (see :class:`RidgeSystem`). A penalty the plan leaves as None
    is selected by closed-form leave-one-out, against the factor of the
    product Gram of the outputs, which is built for the search alone.
    The weights (K + n penalty I)^{-1} k_q of the query point are
    solved from the same decomposition, tuned or forced. A query with a
    zero k_q (a level the sample lacks, or so far out that exp
    underflows) would give an all-zero curve and is refused up front.

    Returns the weights and, for cate, its own kernel column k_q.
    """
    data, specs, kind = p.data, p.specs, request.kind
    role, name = ("d", "lam1") if kind == "att" else ("v", "lam2")
    with _step(4, "embedding weights"):
        if not data.has_role(role):
            raise InputError(f"{kind} needs a dataset with {role!r} columns")
        if role == "d":
            point = np.asarray([[request.d_value]])
        else:
            point = _as_block(request.v_value, specs["v"].dim, "v")
            if point.shape[0] != 1:
                raise InputError("cate takes a single v point")
        kq = gram(data.block(role), point, specs[role])
        if not np.any(kq):
            raise InputError(
                f"{kind} query {role}={point[0].tolist()} has zero kernel weight "
                "at every sample point"
            )
        system = RidgeSystem(factor=gram_factor(product_gram(data, specs, (role,))))
        outputs = ("x", "w", "v") if role == "d" else ("x", "w")

        def loss(candidates):
            factor = gram_factor(product_gram(data, specs, outputs))
            return system.loo(factor, candidates)

        weights = system.solve(data.n * p.penalty(name, loss), kq)[:, 0]
    return weights, (kq[:, 0] if role == "v" else None)


def _nc_curve(p: _Pass, request: EffectRequest) -> EffectCurve:
    """Steps 4, 2-3 and 5 of the bridge estimator.

    The att/cate embedding runs first. Stage 1 is the ridge system of
    the Gram A over d, x, z[, v], whose smoother B = A (A + n lam I)^{-1}
    is the stage-1 weights; it is read only as B'L, its smooth of the
    factor L of K_ww. The bridge's coefficients are reweighted by
    c = rowsum(B'L o K_x' (weights o L)) (see :func:`_read_x`), with
    weights 1/n for ate and the embedding weights for att and cate;
    cate also multiplies in its subgroup point's kernel column. A ds
    request averages the features of its alternative sample instead
    (see :func:`_population_features`), unless that sample is the
    training one, which it averages exactly as ate does. Stage 2 is the
    ridge system of M (see :func:`stage2_kernel`) and its coefficients
    are (M + n xi I)^{-1} y. Each penalty comes from :meth:`_Pass.penalty`.

    The only large objects of a fit are n x n product Grams (see
    :func:`product_gram`), each built just before its reader and
    dropped after it. While either stage decomposes, its input is the
    only n x n array live, LAPACK's buffers aside: each system releases
    its input after its eigendecomposition, c is read from stage 1
    before stage 1 is released, and only then is the stage-2 core built
    over d, x[, v] and M formed in its buffer.
    """
    data, specs, kind = p.data, p.specs, request.kind
    weights = kq = sample = None
    if kind in ("att", "cate"):
        weights, kq = _embedding(p, request)
    elif kind == "ds":
        with _step(5, "effect evaluation"):
            sample = _population(specs, data, request)
    if weights is None:
        weights = np.full(data.n, 1.0 / data.n)
    with _step(3, "bridge fit"):
        w_factor = gram_factor(product_gram(data, specs, ("w",)))
    if sample is None:
        with _step(5, "effect evaluation"):
            reads = _read_x(data, specs, kind, weights, w_factor)
    n, y = data.n, data.y
    with _step(3, "bridge fit"):
        stage1 = RidgeSystem(product_gram(data, specs, ("d", "x", "z", "v")))
        lam = p.penalty("lam", lambda grid: stage1.loo(w_factor, grid))
        projected_w = stage1.smooth(n * lam, w_factor)
        with _step(5, "effect evaluation"):
            if sample is None:
                c = np.sum(projected_w * reads, axis=1)
            else:
                c = _population_features(data, specs, stage1, lam, sample).mean(axis=1)
        del stage1  # and its eigenpairs, before the stage-2 core is built
        stage2 = RidgeSystem(
            stage2_kernel(product_gram(data, specs, ("d", "x", "v")), projected_w)
        )
        xi = p.penalty("xi", lambda grid: stage2.loo(y, grid))
        coef = stage2.solve(n * xi, y)
    with _step(5, "effect evaluation"):
        coef = coef * c if kq is None else coef * kq * c
        return p.curve(coef, "nc", kind)


def _te_curve(p: _Pass) -> EffectCurve:
    """The baseline's curve: lam, the ridge coefficients, then the sweep.

    The product Gram over x, z, w[, v] is built first and its row means,
    the sample mean of the non-treatment kernel factors, taken; the d
    Gram is then multiplied into its buffer, so at most two n x n arrays
    are live before the eigh.
    """
    data = p.data
    full = product_gram(data, p.specs, ("x", "z", "w", "v"))
    rest_mean = full.mean(axis=1)
    full *= product_gram(data, p.specs, ("d",))
    y = data.y
    system = RidgeSystem(full)
    del full  # the system releases it after its eigendecomposition
    lam = p.penalty("lam", lambda grid: system.loo(y, grid))
    coef = system.solve(data.n * lam, y)
    return p.curve(coef * rest_mean, "te", "ate")


def run_end_to_end(
    data: Dataset,
    request: EffectRequest,
    tuning: TuningPlan | None = None,
    estimator: str = "nc",
    lengthscales: Mapping[str, float] | None = None,
) -> EffectCurve:
    """Full pipeline: kernels, penalties, bridge, embedding, effect.

    The one public way to an effect curve; a TuningPlan in mode
    "forced" pins any of the penalties. Steps are numbered in errors:
    (1) kernel selection, (2) penalty tuning, (3) bridge fit, (4)
    embedding weights, (5) effect evaluation. Every penalty search is
    step 2, whichever step reads its penalty. The same data serves both
    bridge stages.
    """
    tuning = tuning if tuning is not None else TuningPlan()
    if estimator not in ESTIMATORS:
        raise InputError(f"unknown estimator {estimator!r}")
    if estimator == "te" and request.kind != "ate":
        raise InputError("the 'te' baseline only supports kind 'ate'")

    with _step(1, "kernel selection"):
        specs = kernel_specs(data, lengthscales)
        grid = _resolve_grid(request, data)
    p = _Pass(data, specs, grid, tuning.penalties(data.n), tuning.grid)
    if estimator == "te":
        with _step(3, "bridge fit"):
            curve = _te_curve(p)
    else:
        curve = _nc_curve(p, request)
    curve.metadata.update(
        tuning_mode=tuning.mode, lengthscale_digest=lengthscale_digest(specs)
    )
    return curve
