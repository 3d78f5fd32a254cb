"""Monte Carlo designs with controlled unobserved confounding.

All designs share the same confounding mechanism: two latent shocks
u_z and u_w built from shared standard normals, leaked into the
negative controls, the treatment, and the outcome. The continuous
designs differ only in the counterfactual curve; the no-confounding
variant keeps the quadratic curve but makes u_z and u_w independent;
the discrete variant draws a Bernoulli treatment with true contrast
2.2 between the arms.

Draws use splittable streams keyed by (master seed, replicate,
variable role), so sweeping one block's dimension never perturbs
another block's values.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, from_arrays
from .effects import (
    ESTIMATORS,
    EffectRequest,
    TuningPlan,
    _step,
    kernel_specs,
    run_end_to_end,
)
from .errors import InputError, KernelncError, NumericalError, _names, _number

DESIGN_KINDS = ("quadratic", "sigmoid", "peaked", "no_confounding", "discrete")

# Curve-MSE scoring grid for continuous designs: the treatment support,
# meaning the truncated logistic link range widened by two standard
# deviations of the additive confounder shift 0.25 * u_w (sd 0.25*sqrt(2)).
MSE_GRID_SHIFT = 2.0 * 0.25 * np.sqrt(2.0)
MSE_GRID_LO = 0.1 - MSE_GRID_SHIFT
MSE_GRID_HI = 0.9 + MSE_GRID_SHIFT
MSE_GRID_POINTS = 100

_STREAMS = {"shared": 0, "z": 1, "w": 2, "x": 3, "treatment": 4}

# OpenBLAS takes its thread count from the first of these that is set.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class SimDesign:
    """One design configuration: curve kind, sample size, dimensions.
    n (at least 2) and each dimension (at least 1) must be integers."""

    kind: str = "quadratic"
    n: int = 1000
    dim_x: int = 5
    dim_z: int = 1
    dim_w: int = 1

    def __post_init__(self) -> None:
        if self.kind not in DESIGN_KINDS:
            raise InputError(f"unknown design kind {self.kind!r}")
        for name, least in (("n", 2), ("dim_x", 1), ("dim_z", 1), ("dim_w", 1)):
            object.__setattr__(self, name, _number(name, getattr(self, name), int, least))


def _stream(seed: int, replicate: int, role: str) -> np.random.Generator:
    key = np.random.SeedSequence(seed, spawn_key=(replicate, _STREAMS[role]))
    return np.random.default_rng(key)


def _decay(k: int) -> np.ndarray:
    return np.arange(1, k + 1, dtype=float) ** -2.0


def _link(t: np.ndarray) -> np.ndarray:
    # the logistic by C's exp, as every dataset was drawn (numpy's differs in
    # the last bit); e^-t capped below overflow leaves 0.1 + 0.8 p unchanged
    p = [1.0 / (1.0 + math.exp(min(-v, 700.0))) for v in np.ravel(t)]
    return 0.1 + 0.8 * np.reshape(p, np.shape(t))


def _x_factor(p: int) -> np.ndarray:
    sigma = np.eye(p) + 0.5 * (np.eye(p, k=1) + np.eye(p, k=-1))
    return np.linalg.cholesky(sigma)


def true_curve(design: SimDesign, d) -> np.ndarray:
    """Counterfactual mean outcome at treatment level d."""
    d = np.asarray(d, dtype=float)
    if design.kind in ("quadratic", "no_confounding"):
        return d**2 + 1.2 * d
    if design.kind == "sigmoid":
        return np.log(np.abs(16.0 * d - 8.0) + 1.0) * np.sign(d - 0.5) + 1.2 * d
    if design.kind == "peaked":
        return 2.0 * (d**4 / 600.0 + np.exp(-4.0 * d**2) + d / 10.0 - 2.0) + 1.2 * d
    return 2.2 * d


def generate(design: SimDesign, seed: int, replicate: int = 0) -> Dataset:
    """Draw one dataset; same arguments always give identical bytes.

    `seed` and `replicate` must be non-negative integers."""
    seed = _number("seed", seed, int, 0)
    replicate = _number("replicate", replicate, int, 0)
    n = design.n
    confounded = design.kind != "no_confounding"
    eps = _stream(seed, replicate, "shared").standard_normal((n, 3 if confounded else 4))
    if confounded:
        u_z = eps[:, 0] + eps[:, 2]
        u_w = eps[:, 1] + eps[:, 2]
    else:
        u_z = eps[:, 0] + eps[:, 1]
        u_w = eps[:, 2] + eps[:, 3]
    leak = 0.5 if design.kind == "discrete" else 0.25
    z = _stream(seed, replicate, "z").uniform(-1.0, 1.0, (n, design.dim_z))
    z = z + leak * u_z[:, None]
    w = _stream(seed, replicate, "w").uniform(-1.0, 1.0, (n, design.dim_w))
    w = w + leak * u_w[:, None]
    x = _stream(seed, replicate, "x").standard_normal((n, design.dim_x))
    x = x @ _x_factor(design.dim_x).T
    bx = _decay(design.dim_x)
    bz = _decay(design.dim_z)
    bw = _decay(design.dim_w)

    if design.kind == "discrete":
        p = _link(x @ bx + z @ bz + u_w)
        draws = _stream(seed, replicate, "treatment").uniform(size=n)
        d = (draws < p).astype(float)
        y = 2.2 * d + 1.2 * (x @ bx + w @ bw) + d * x[:, 0] + 0.5 * u_z
        return from_arrays(y, d, x, z, w, d_categorical=True)
    if design.kind == "no_confounding":
        d = _link(3.0 * (x @ bx)) + 0.25 * u_w
        y = true_curve(design, d) + 1.2 * (x @ bx) + d * x[:, 0] + 0.25 * u_z
    else:
        d = _link(3.0 * (x @ bx) + 3.0 * (z @ bz)) + 0.25 * u_w
        y = true_curve(design, d) + 1.2 * (x @ bx + w @ bw) + d * x[:, 0] + 0.25 * u_z
    return from_arrays(y, d, x, z, w)


def scoring_grid(design: SimDesign) -> np.ndarray:
    """Treatment levels where replicates are scored."""
    if design.kind == "discrete":
        return np.array([0.0, 1.0])
    return np.linspace(MSE_GRID_LO, MSE_GRID_HI, MSE_GRID_POINTS)


def score_replicate(
    design: SimDesign,
    seed: int,
    replicate: int,
    estimators=ESTIMATORS,
    tuning: TuningPlan | None = None,
) -> dict[str, float]:
    """Generate one dataset and score each estimator on it.

    Continuous designs score the curve MSE against the true curve on
    :func:`scoring_grid`; the discrete design scores the estimated
    contrast between the treated and untreated arms.
    """
    data = generate(design, seed, replicate)
    # Select the kernels once per replicate: every estimator then reuses
    # the Gaussian lengthscales rather than recomputing the medians.
    with _step(1, "kernel selection"):
        specs = kernel_specs(data)
    lengthscales = {
        name: column.lengthscale
        for role, spec in specs.items()
        for name, column in zip(data.names(role), spec.columns)
        if column.lengthscale is not None
    }
    grid = scoring_grid(design)
    request = EffectRequest("ate", grid=grid)
    out: dict[str, float] = {}
    for est in estimators:
        curve = run_end_to_end(data, request, tuning, est, lengthscales)
        if design.kind == "discrete":
            out[est] = float(curve.values[1] - curve.values[0])
        else:
            out[est] = float(np.mean((curve.values - true_curve(design, grid)) ** 2))
    return out


def blas_environment() -> dict:
    """numpy's BLAS build and this process's BLAS thread count.

    A result is byte-reproducible only at one BLAS build and thread
    count: OpenBLAS splits a product across its threads, which changes
    the order of summation once n reaches a few hundred. The count is
    $OPENBLAS_NUM_THREADS, else $OMP_NUM_THREADS, capped at the CPUs
    this process may run on, which is the count without either.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        build = "unknown"
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        cpus = os.cpu_count() or 1
    threads = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            threads = min(int(value), cpus)
            break
    return {"numpy": build, "threads": threads}


@contextmanager
def _one_blas_thread():
    """Hold the BLAS thread variables at 1 for the block: a spawned worker
    reads them when it imports numpy, before any pool initializer runs."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _worker(args) -> tuple[int, dict[str, float] | None, str | None]:
    design, seed, replicate, estimators, tuning = args
    try:
        return replicate, score_replicate(design, seed, replicate, estimators, tuning), None
    except KernelncError as err:
        return replicate, None, str(err)


@dataclass(eq=False)
class ReplicateReport:
    """Per-replicate scores plus deterministic aggregates.

    `mse` is the mean squared deviation of the per-replicate estimate
    from the true contrast for the discrete design; for continuous
    designs the per-replicate value is already a curve MSE, so `mse`
    is its mean and equals `mean`.
    """

    estimator: str
    replicates: np.ndarray
    values: np.ndarray
    mean: float
    sd: float
    mse: float
    failures: tuple[tuple[int, str], ...] = ()
    metadata: dict = field(default_factory=dict)


def _aggregate(values: np.ndarray, truth: float | None) -> tuple[float, float, float]:
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    if truth is None:
        mse = mean
    else:
        mse = float(np.mean((values - truth) ** 2))
    return mean, sd, mse


def run_experiment(
    design: SimDesign,
    replicates: int,
    seed: int,
    estimators=ESTIMATORS,
    tuning: TuningPlan | None = None,
    workers: int = 1,
    strict: bool = True,
) -> dict[str, ReplicateReport]:
    """Score every estimator over independent replicates.

    Fails fast by default, naming the failing replicate and seed;
    with strict=False failed replicates are skipped and reported.
    One worker scores the replicates in this process. More workers
    run in a pool of spawned processes, each at one BLAS thread, so
    a script that calls this with workers > 1 needs an
    ``if __name__ == "__main__":`` guard. Aggregation folds values in
    replicate order regardless of worker scheduling, so the worker
    count changes no number when this process also runs BLAS at one
    thread. The metadata's `blas` records numpy's BLAS build and the
    thread count the replicates ran with (see :func:`blas_environment`).
    Every argument is checked before any replicate runs: `replicates`
    and `workers` must be integers of at least 1, `seed` a non-negative
    integer and `estimators` a list of distinct estimator names.
    """
    replicates = _number("replicates", replicates, int, 1)
    seed = _number("seed", seed, int, 0)
    workers = _number("workers", workers, int, 1)
    estimators = _names("estimators", estimators)
    for est in estimators:
        if est not in ESTIMATORS:
            raise InputError(f"unknown estimator {est!r}")
    if not 0 < len(estimators) == len(set(estimators)):
        message = f"estimators must name one or more estimators, each once, got {estimators}"
        raise InputError(message, "estimators")
    jobs = [(design, seed, rep, estimators, tuning) for rep in range(replicates)]
    results: dict[int, dict[str, float]] = {}
    failures: list[tuple[int, str]] = []
    if workers > 1:
        spawn = multiprocessing.get_context("spawn")
        with _one_blas_thread():
            blas = blas_environment()
            with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
                outcomes = list(pool.map(_worker, jobs))
    else:
        blas = blas_environment()
        outcomes = [_worker(job) for job in jobs]
    for rep, scores, err in outcomes:
        if err is not None:
            if strict:
                raise NumericalError(
                    f"replicate {rep} (seed {seed}) failed: {err}"
                )
            failures.append((rep, err))
        else:
            results[rep] = scores

    truth = None
    if design.kind == "discrete":
        truth = float(true_curve(design, 1.0) - true_curve(design, 0.0))
    grid = scoring_grid(design)
    metadata = {
        "design": design.kind,
        "n": design.n,
        "dim_x": design.dim_x,
        "dim_z": design.dim_z,
        "dim_w": design.dim_w,
        "seed": seed,
        "replicates": replicates,
        "tuning_mode": (tuning or TuningPlan()).mode,
        "scoring_grid": f"{grid.size} points on [{grid[0]:g}, {grid[-1]:g}]",
        "curve": "quadratic" if design.kind == "no_confounding" else design.kind,
        "failed": len(failures),
        "blas": blas,
    }
    reports: dict[str, ReplicateReport] = {}
    kept = sorted(results)
    for est in estimators:
        values = np.array([results[rep][est] for rep in kept])
        if values.size == 0:
            raise NumericalError(f"every replicate failed (seed {seed})")
        mean, sd, mse = _aggregate(values, truth)
        reports[est] = ReplicateReport(
            estimator=est,
            replicates=np.array(kept, dtype=int),
            values=values,
            mean=mean,
            sd=sd,
            mse=mse,
            failures=tuple(failures),
            metadata=dict(metadata),
        )
    return reports
