"""Effect curves from the bridge, the naive baseline, and the runner."""

import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from kernelnc import effects, kernels, ridge
from kernelnc.data import Column, Dataset, from_arrays
from kernelnc.effects import (
    EffectRequest,
    TuningPlan,
    default_grid,
    kernel_specs,
    run_end_to_end,
)
from kernelnc.errors import InputError, NumericalError
from kernelnc.ridge import DEFAULT_GRID
from kernelnc.simlab import SimDesign, generate

import oracle_dense as od

GRID = np.linspace(-1.0, 1.0, 7)


def _dataset(rng, n=24, with_v=False):
    return from_arrays(
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=(n, 2)),
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n) if with_v else None,
    )


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(79)
    return _dataset(rng), rng


@pytest.fixture(scope="module")
def sample_v():
    rng = np.random.default_rng(83)
    return _dataset(rng, with_v=True), rng


def _nc(data, kind, lam1=None, lam2=None, **query):
    # the bridge at lam = 0.05, xi = 0.02, as every oracle below is fitted
    plan = TuningPlan("forced", lam=0.05, xi=0.02, lam1=lam1, lam2=lam2)
    return run_end_to_end(data, EffectRequest(kind, grid=GRID, **query), plan)


def _oracle_fit(data, lam, xi):
    roles = ["d", "x", "z", "w"] + (["v"] if data.has_role("v") else [])
    scales = {r: od.block_scales(data.block(r)) for r in roles}
    return od.fit_dense(
        data.block("d"), data.block("x"), data.block("z"), data.block("w"),
        data.y, scales, lam, xi,
        v=data.block("v") if data.has_role("v") else None,
    )


def test_ate_matches_dense_oracle(sample):
    data, _ = sample
    curve = _nc(data, "ate")
    want = od.ate_curve(_oracle_fit(data, 0.05, 0.02), GRID)
    np.testing.assert_allclose(curve.values, want, rtol=1e-8)
    assert curve.metadata["effect"] == "ate"
    assert curve.metadata["lam"] == 0.05


def test_ds_over_training_population_equals_ate_bitwise(sample):
    data, _ = sample
    ate = _nc(data, "ate")
    ds = _nc(data, "ds", alt_x=data.block("x"), alt_w=data.block("w"))
    assert np.array_equal(ate.values, ds.values)
    assert ds.metadata["effect"] == "ds"


def test_ds_matches_dense_oracle_on_shifted_population(sample):
    data, rng = sample
    alt_x = rng.normal(loc=0.5, size=(10, 2))
    alt_w = rng.normal(loc=-0.3, size=(10, 1))
    curve = _nc(data, "ds", alt_x=alt_x, alt_w=alt_w)
    want = od.ds_curve(_oracle_fit(data, 0.05, 0.02), GRID, alt_x, alt_w)
    np.testing.assert_allclose(curve.values, want, rtol=1e-8)


def test_ds_validates_population(sample):
    data, _ = sample
    with pytest.raises(InputError):
        _nc(data, "ds", alt_x=np.zeros((4, 2)), alt_w=np.zeros((5, 1)))
    with pytest.raises(InputError):
        _nc(data, "ds", alt_x=np.zeros((4, 2)), alt_w=np.zeros(4), alt_v=np.zeros(4))


def test_att_matches_dense_oracle(sample):
    data, _ = sample
    curve = _nc(data, "att", lam1=0.07, d_value=0.4)
    want = od.att_curve(_oracle_fit(data, 0.05, 0.02), GRID, 0.4, 0.07)
    np.testing.assert_allclose(curve.values, want, rtol=1e-8)
    assert curve.metadata["extra_penalty"] == 0.07


def test_att_tunes_lam1_when_missing(sample):
    data, _ = sample
    curve = _nc(data, "att", d_value=0.4)
    assert curve.metadata["extra_penalty"] > 0.0


def test_cate_matches_dense_oracle(sample_v):
    data, _ = sample_v
    curve = _nc(data, "cate", lam2=0.04, v_value=0.2)
    want = od.cate_curve(_oracle_fit(data, 0.05, 0.02), GRID, 0.2, 0.04)
    np.testing.assert_allclose(curve.values, want, rtol=1e-8)


def test_cate_requires_v(sample):
    data, _ = sample
    with pytest.raises(InputError):
        _nc(data, "cate", lam2=0.1, v_value=0.0)


def test_zero_outcome_gives_zero_curves(sample_v):
    data, _ = sample_v
    flat = from_arrays(
        np.zeros(data.n), data.block("d"), data.block("x"), data.block("z"),
        data.block("w"), data.block("v"),
    )
    for curve in (
        _nc(flat, "ate"),
        _nc(flat, "att", lam1=0.1, d_value=0.0),
        _nc(flat, "cate", lam2=0.1, v_value=0.0),
    ):
        np.testing.assert_allclose(curve.values, 0.0, atol=1e-12)


def test_te_baseline_hand_instance():
    # all-indicator kernels on distinct codes: full Gram is the identity,
    # so coef = y/(1+n lam) and the averaged rest factor is 1/n
    codes = np.array([0.0, 1.0, 2.0])
    y = np.array([3.0, -6.0, 9.0])
    labels = ("0", "1", "2")
    columns = (Column("y", "y"),) + tuple(
        Column(role, role, True, labels) for role in ("d", "x", "z", "w")
    )
    data = Dataset(columns, np.column_stack([y, codes, codes, codes, codes]))
    request = EffectRequest("ate", grid=codes)
    curve = run_end_to_end(data, request, TuningPlan("forced", lam=1.0 / 3.0), "te")
    np.testing.assert_allclose(curve.values, y / 6.0, rtol=1e-12)
    assert curve.estimator == "te"
    assert curve.metadata["xi"] is None


def test_te_baseline_matches_dense_oracle(sample):
    data, _ = sample
    plan = TuningPlan("forced", lam=0.09)
    curve = run_end_to_end(data, EffectRequest("ate", grid=GRID), plan, "te")
    scales = {r: od.block_scales(data.block(r)) for r in ("d", "x", "z", "w")}
    want = od.te_curve(
        data.block("d"), data.block("x"), data.block("z"), data.block("w"),
        data.y, scales, 0.09, GRID,
    )
    np.testing.assert_allclose(curve.values, want, rtol=1e-8)


def test_default_grid_continuous_and_categorical():
    d = np.arange(200.0)
    g = default_grid(d)
    assert g.shape == (100,)
    assert g[0] == np.percentile(d, 1.0) and g[-1] == np.percentile(d, 99.0)
    np.testing.assert_array_equal(
        default_grid(np.array([1.0, 0.0, 1.0]), categorical=True), [0.0, 1.0]
    )
    with pytest.raises(InputError):
        default_grid(d, size=1)


def test_request_validation():
    with pytest.raises(InputError):
        EffectRequest("dose")
    with pytest.raises(InputError):
        EffectRequest("ds")
    with pytest.raises(InputError):
        EffectRequest("att")
    with pytest.raises(InputError):
        EffectRequest("cate")
    EffectRequest("att", d_value=1.0)
    for grid in ([], [[0.1, 0.2], [0.3, 0.4]]):
        with pytest.raises(InputError, match="explicit grid must be non-empty"):
            EffectRequest("ate", grid=grid)
    with pytest.raises(InputError, match=r"grid must be finite, got \[0.2, nan\]"):
        EffectRequest("ate", grid=[0.2, np.nan])
    EffectRequest("ate", grid=0.5)  # a scalar is a one-point grid
    # np.linspace takes only an integer count, so anything else would
    # escape later as a bare TypeError
    for size in (2.5, 2.0, "5"):
        with pytest.raises(InputError, match="grid_size must be an integer"):
            EffectRequest("ate", grid_size=size)
    EffectRequest("ate", grid_size=np.int64(5))
    for fields, message in (
        ({"grid_size": 1}, "grid_size must be >= 2, got 1"),
        ({"grid_size": "ten"}, "grid_size must be numeric"),
        ({"kind": "att", "d_value": "a"}, "d_value must be numeric, got 'a'"),
        ({"kind": "att", "d_value": [0.5]}, "d_value must be numeric"),
        ({"kind": "cate", "v_value": "a"}, "v_value must be numeric"),
        ({"grid": ["a", 0.5]}, "grid must be numeric"),
    ):
        with pytest.raises(InputError, match=re.escape(message)) as err:
            EffectRequest(**fields)
        assert message.startswith(err.value.field)
    request = EffectRequest("att", grid=[0, 1], grid_size=1, d_value=np.float32(0.5))
    assert type(request.d_value) is float and request.grid.dtype == float


@pytest.mark.parametrize(
    "kind, field, value",
    [("att", "d_value", np.nan), ("att", "d_value", np.inf),
     ("cate", "v_value", np.array([np.inf])), ("cate", "v_value", [0.1, np.nan]),
     ("ds", "alt_x", [[0.1], [np.nan]]), ("ds", "alt_w", [0.2, -np.inf]),
     ("ds", "alt_v", np.array([np.nan, 0.3]))],
)
def test_request_rejects_non_finite_conditioning_point(kind, field, value):
    # a non-finite point gives a zero kernel column and so a silent
    # all-zero curve, and a non-finite ds population a NaN or meaningless
    # one; the request refuses them up front
    query = {"alt_x": [[0.0], [1.0]], "alt_w": [0.0, 1.0], field: value}
    with pytest.raises(InputError, match=f"{field} must be finite"):
        EffectRequest(kind, **query)


A, CORE = ("d", "x", "z", "v"), ("d", "x", "v")
PASS_BUILDS = {
    # the n x n Grams of one pass, as role tuples, in build order: the
    # embedding's conditioning Gram and (tuned only) its output product,
    # the w factor's Gram, _read_x's product (not for a ds population),
    # the stage-1 Gram A and the stage-2 core; "te" is the baseline's ate,
    # whose d Gram is built one block of rows at a time (one block at n = 24)
    "ate": [("w",), ("x", "v"), A, CORE],
    "ds": [("w",), A, CORE],
    "att": [("d",), ("x", "w", "v"), ("w",), ("x", "v"), A, CORE],
    "cate": [("v",), ("x", "w"), ("w",), ("x",), A, CORE],
    "te": [("x", "z", "w", "v"), ("d",)],
}


@pytest.mark.parametrize("kind", list(PASS_BUILDS))
@pytest.mark.parametrize(
    "plan", [None, TuningPlan("forced", lam=0.05, xi=0.02, lam1=0.07, lam2=0.04)],
    ids=["tuned", "forced"],
)
def test_one_pass_builds_each_role_gram_once(monkeypatch, sample_v, kind, plan):
    # each reader of the training sample builds the product Gram of its
    # roles in one gram call, just before it reads it; no product is
    # built twice in a pass, and none is kept from one reader to the next.
    # A ds population's n x 9 cross Grams are one call each too: k_w, and
    # k_x o k_v as one product
    data = sample_v[0]
    built, cross = [], []

    def counted(rows, cols, spec):
        out = kernels.gram(rows, cols, spec)
        if out.shape in ((data.n, data.n), (data.n, 9)):
            roles = [next(c.role for c, v in zip(data.columns, data.values.T)
                          if np.array_equal(col, v)) for col in rows.T]
            (built if out.shape[1] == data.n else cross).append(
                tuple(dict.fromkeys(roles))
            )
        return out

    monkeypatch.setattr(effects, "gram", counted)
    alt = {"alt_x": data.block("x")[:9] + 0.3, "alt_w": data.block("w")[:9],
           "alt_v": data.block("v")[:9] - 0.2}
    estimator = "te" if kind == "te" else "nc"
    request = EffectRequest("ate" if kind == "te" else kind, grid=GRID, d_value=0.4,
                            v_value=0.2, **alt)
    run_end_to_end(data, request, plan, estimator)
    expected = list(PASS_BUILDS[kind])
    if plan is not None and kind in ("att", "cate"):
        del expected[1]  # a forced embedding penalty needs no output Gram
    assert built == expected
    assert cross == ([("w",), ("x", "v")] if kind == "ds" else [])


def test_tuning_plan_resolves_every_penalty():
    for mode, name in (("loocv", "xi"), ("theoretical", "lam1")):
        with pytest.raises(InputError, match=f"penalty {name} is set"):
            TuningPlan(mode=mode, **{name: 0.1})
    for mode, name in (("loocv", "c"), ("forced", "c1"), ("theoretical", "c2")):
        with pytest.raises(InputError, match=f"smoothness {name} must lie"):
            TuningPlan(mode=mode, **{name: 2.5})
    # a forced penalty is checked where it arrives, before any Gram is built
    for fields, message in (
        ({"mode": "forced", "lam": -0.1}, "lam must be >= 0, got -0.1"),
        ({"mode": "forced", "xi": np.nan}, "xi must be finite, got nan"),
        ({"mode": "forced", "lam1": -1.0}, "lam1 must be >= 0, got -1.0"),
        ({"mode": "forced", "lam2": np.inf}, "lam2 must be finite, got inf"),
        ({"mode": "forced", "lam": "abc"}, "lam must be numeric, got 'abc'"),
        ({"c0": None}, "c0 must be numeric, got None"),
        ({"c": [1.5]}, "c must be numeric"),
        ({"grid": "abc"}, "grid must be numeric, got 'abc'"),
        ({"grid": [0.1, np.nan]}, "grid must be finite"),
    ):
        with pytest.raises(InputError, match=re.escape(message)) as err:
            TuningPlan(**fields)
        assert message.startswith(err.value.field)
    plan = TuningPlan("forced", lam=np.float32(0.5), c0=1.5, grid=[1, 2])
    assert type(plan.lam) is float and plan.grid.dtype == float
    zeros = TuningPlan(mode="forced", lam=0.0, xi=0.0, lam1=0.0, lam2=0.0)
    assert zeros.penalties(50) == dict.fromkeys(("lam", "xi", "lam1", "lam2"), 0.0)
    n = 50
    assert TuningPlan().penalties(n) == dict.fromkeys(("lam", "xi", "lam1", "lam2"))
    forced = TuningPlan(mode="forced", lam=0.1, lam2=0.2).penalties(n)
    assert forced == {"lam": 0.1, "xi": None, "lam1": None, "lam2": 0.2}
    theory = TuningPlan(mode="theoretical", c=1.5, c1=1.5).penalties(n)
    assert (theory["lam"], theory["xi"]) == (n ** (-1 / 3), n ** (-1 / 13.5))
    assert (theory["lam1"], theory["lam2"]) == (n ** (-1 / 2.5), n ** (-1 / 3))


def test_run_end_to_end_te_restrictions(sample):
    data, _ = sample
    with pytest.raises(InputError):
        run_end_to_end(data, EffectRequest("att", d_value=0.0), estimator="te")
    with pytest.raises(InputError):
        run_end_to_end(data, EffectRequest("ate"), estimator="gls")


def test_run_end_to_end_is_deterministic(sample):
    data, _ = sample
    req = EffectRequest("ate", grid=GRID)
    a = run_end_to_end(data, req)
    b = run_end_to_end(data, req)
    assert np.array_equal(a.values, b.values)
    assert a.metadata == b.metadata


def test_run_end_to_end_theoretical_mode(sample_v):
    # a theoretical pass reports the schedule's value of each penalty it
    # used, None for those it did not, and searches nothing
    data = sample_v[0]
    n = data.n
    plan = TuningPlan(mode="theoretical", c0=2.0, c=2.0, c1=1.5, c2=1.8)
    xi = n ** (-1.0 / 15.0)
    cases = [
        ("te", EffectRequest("ate", grid=GRID), None, None),
        ("nc", EffectRequest("ate", grid=GRID), xi, None),
        ("nc", EffectRequest("att", grid=GRID, d_value=0.3), xi, n ** (-1.0 / (1.5 + 1.0))),
        ("nc", EffectRequest("cate", grid=GRID, v_value=0.1), xi, n ** (-1.0 / (1.8 + 1.0))),
    ]
    for estimator, request, xi_used, extra in cases:
        meta = run_end_to_end(data, request, plan, estimator).metadata
        assert meta["lam"] == n ** (-1.0 / 3.0), (estimator, request.kind)
        assert (meta["xi"], meta["extra_penalty"]) == (xi_used, extra), (estimator, request.kind)
        assert meta["tuning"] == {}


@pytest.mark.parametrize(
    "estimator, kind, forced, searched",
    [("te", "ate", {}, ("y", False)),
     ("nc", "ate", {}, ("factor", False)),
     ("nc", "ate", {"lam": 0.05}, ("y", False)),
     ("nc", "att", {}, ("factor", True)),
     ("nc", "cate", {}, ("factor", True))],
    ids=["te-lam", "nc-lam", "nc-xi", "att-lam1", "cate-lam2"],
)
def test_every_penalty_search_fails_as_step_2(
    monkeypatch, sample_v, estimator, kind, forced, searched
):
    # a failed search carries the penalty-tuning tag, and no tag of the
    # step that reads its penalty. Each case runs one search: against y
    # or an output factor, on a dense or a factored system
    data, calls = sample_v[0], []

    def failing(self, factor, grid=None):
        against = "y" if np.array_equal(factor, data.y) else "factor"
        calls.append((against, self.factor is not None))
        raise NumericalError("loss failed")

    monkeypatch.setattr(effects.RidgeSystem, "loo", failing)
    request = EffectRequest(kind, grid=GRID, d_value=0.3, v_value=0.1)
    plan = TuningPlan(mode="forced", **forced)
    with pytest.raises(NumericalError) as err:
        run_end_to_end(data, request, plan, estimator)
    assert str(err.value) == "step 2 (penalty tuning): loss failed"
    assert calls == [searched]


def test_step_tagging_names_the_failing_stage():
    rng = np.random.default_rng(89)
    n = 12
    data = from_arrays(
        rng.normal(size=n), rng.normal(size=n), np.full((n, 1), 7.0),
        rng.normal(size=n), rng.normal(size=n),
    )
    with pytest.raises(Exception, match=r"step 1 \(kernel selection\)"):
        run_end_to_end(data, EffectRequest("ate", grid=GRID))


@pytest.mark.parametrize(
    "estimator, kind, forced, names",
    [("nc", "att", {}, {"lam", "lam1", "xi"}),
     ("nc", "cate", {}, {"lam", "lam2", "xi"}),
     ("te", "ate", {}, {"lam"}),
     ("nc", "att", {"lam1": 0.07}, {"lam", "xi"}),
     ("nc", "att", {"lam": 0.05, "xi": 0.02, "lam1": 0.07}, set()),
     ("te", "ate", {"lam": 0.05}, set())],
    ids=["att", "cate", "te", "att-lam1-forced", "att-all-forced", "te-forced"],
)
def test_metadata_records_the_search_of_each_tuned_penalty(
    sample_v, estimator, kind, forced, names
):
    # the pass records what it tuned, and only that, as plain floats
    data = sample_v[0]
    cands = np.array([1e-3, 1e-1])
    request = EffectRequest(kind, grid=GRID, d_value=0.3, v_value=0.1)
    plan = TuningPlan(mode="forced", grid=cands, **forced)
    meta = run_end_to_end(data, request, plan, estimator).metadata
    assert set(meta["tuning"]) == names
    selected = {"lam": meta["lam"], "xi": meta["xi"],
                "lam1": meta["extra_penalty"], "lam2": meta["extra_penalty"]}
    for name, search in meta["tuning"].items():
        assert search["candidates"] == cands.tolist()
        assert len(search["losses"]) == cands.size
        assert search["selected"] == selected[name]
        values = [*search["candidates"], *search["losses"], search["selected"]]
        assert all(type(v) is float for v in values)
    assert json.loads(json.dumps(meta["tuning"])) == meta["tuning"]


def test_metadata_search_runs_on_the_default_grid(sample):
    meta = run_end_to_end(sample[0], EffectRequest("ate", grid=GRID)).metadata
    assert set(meta["tuning"]) == {"lam", "xi"}
    for name in ("lam", "xi"):
        search = meta["tuning"][name]
        assert search["candidates"] == DEFAULT_GRID.tolist()
        assert search["selected"] == meta[name]
        best = int(np.argmin(search["losses"]))
        assert search["candidates"][best] == search["selected"]


def test_forced_zero_lam1_on_a_rank_deficient_treatment_gram_jitters(monkeypatch):
    # a binary treatment's Gram has rank 2, so with lam1 = 0 the factored
    # system is singular: the solve takes the jitter ladder, records the
    # jitter, and still returns finite weights
    systems = []
    with_jitter = effects.RidgeSystem._with_jitter

    def recorded(self, ridge, attempt, method):
        systems.append(self)
        return with_jitter(self, ridge, attempt, method)

    monkeypatch.setattr(effects.RidgeSystem, "_with_jitter", recorded)
    data = generate(SimDesign("discrete", n=40), 5)
    plan = TuningPlan("forced", lam1=0.0)
    p = effects._Pass(data, kernel_specs(data), GRID, plan.penalties(data.n), None)
    weights, _ = effects._embedding(p, EffectRequest("att", d_value=1.0))
    assert p.used["lam1"] == 0.0 and np.all(np.isfinite(weights))
    assert {id(s) for s in systems} == {id(systems[0])}
    assert systems[0].factor.shape == (40, 2)
    assert systems[0].jitter > 0.0


@pytest.mark.parametrize(
    "plan", [None, TuningPlan("forced", lam=0.05, xi=0.02, lam1=0.07, lam2=0.04)],
    ids=["tuned", "forced"],
)
def test_query_without_kernel_weight_is_refused(plan):
    # a query whose kernel column is zero at every sample point would
    # weight nothing and give an all-zero curve: a treatment level the
    # discrete design lacks, a Gaussian point so far out that exp
    # underflows, and a subgroup value that is not one of v's codes
    discrete = generate(SimDesign("discrete", n=200), 1)
    continuous = generate(SimDesign("quadratic", n=60), 1)
    rng = np.random.default_rng(7)
    n = 60
    coded = from_arrays(
        rng.normal(size=n), rng.normal(size=n), rng.normal(size=(n, 2)),
        rng.normal(size=n), rng.normal(size=n), rng.integers(0, 3, size=n).astype(float),
        v_categorical=True,
    )
    cases = [
        (discrete, EffectRequest("att", grid_size=5, d_value=0.5), r"att query d=\[0\.5\]"),
        (continuous, EffectRequest("att", grid_size=5, d_value=1e6), r"att query d=\[1000000\.0\]"),
        (coded, EffectRequest("cate", grid=GRID, v_value=5.0), r"cate query v=\[5\.0\]"),
    ]
    for data, request, query in cases:
        with pytest.raises(InputError, match=rf"step 4 .*{query} has zero kernel weight"):
            run_end_to_end(data, request, plan)
    # the observed level and codes are answered
    assert np.any(run_end_to_end(discrete, EffectRequest("att", d_value=1.0), plan).values)
    for code in (0.0, 1.0, 2.0):
        request = EffectRequest("cate", grid=GRID, v_value=code)
        assert np.any(run_end_to_end(coded, request, plan).values)


@pytest.mark.parametrize(
    "estimator, plan, bound",
    [("nc", None, 3.7), ("te", None, 3.2),
     ("nc", TuningPlan("forced", lam=0.05, xi=0.02), 3.0),
     ("te", TuningPlan("forced", lam=0.05), 2.8)],
    ids=["nc-3.7", "te-3.2", "nc-forced-3.0", "te-forced-2.8"],
)
def test_ate_fit_holds_few_n_by_n_arrays(estimator, plan, bound):
    """Peak numpy memory of one ATE fit, in n x n arrays.

    The bridge never forms its n x n smoother, builds each product Gram
    in one pass just before its reader and releases stage 1 before it
    builds the stage-2 core; the baseline takes its row means before it
    multiplies in d. A tuned system decomposes its Gram in the Gram's own
    buffer, and dsyevd's workspace of about 2 n^2 doubles is a numpy
    array, so this peak is the whole peak: the baseline's reads 3.07
    n x n, its Gram and that workspace. (Where numpy's LAPACK lacks the
    binding, np.linalg.eigh's copy and workspace sit on top, unseen, and
    its Q until Q is copied into the Gram.) A forced fit solves by
    Cholesky in its kernel's own buffer too, so the solve adds no n x n
    array (where the binding is absent, np.linalg.cholesky's copy of the
    kernel and its factor add two until the factor is copied back,
    unseen but for the factor).
    """
    n = 300
    data = generate(SimDesign("quadratic", n=n), 1)
    request = EffectRequest("ate", grid_size=5)
    tracemalloc.start()
    try:
        run_end_to_end(data, request, plan, estimator=estimator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * n


def _resident_peak(fits: str) -> float:
    """Peak resident memory of `fits`, run on one quadratic n = 2000 draw
    in a fresh process, in n x n arrays above the resident memory before
    them. The peak, VmHWM, counts what tracemalloc does not, LAPACK's own
    buffers and freed heap the allocator keeps included. It is read from
    /proc/self/status, not from ru_maxrss: Linux carries a process's
    ru_maxrss across exec, so a child of a large test runner would read
    the runner's resident memory at the fork."""
    code = textwrap.dedent("""
        def resident(field):
            with open("/proc/self/status") as status:
                line = next(line for line in status if line.startswith(field + ":"))
            return int(line.split()[1]) * 1024

        from kernelnc.effects import EffectRequest, TuningPlan, run_end_to_end
        from kernelnc.simlab import SimDesign, generate
        data = generate(SimDesign("quadratic", n=2000), 1)
        ate = EffectRequest("ate", grid_size=5)
        before = resident("VmRSS")
    """) + textwrap.dedent(fits) + textwrap.dedent("""
        print((resident("VmHWM") - before) / (8 * 2000**2))
    """)
    src = os.path.dirname(os.path.dirname(effects.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


_IN_PLACE = pytest.mark.skipif(
    not sys.platform.startswith("linux") or ridge._lapack() is None,
    reason="reads /proc/self/status; numpy's eigh and cholesky copy where the binding is absent",
)


@_IN_PLACE
@pytest.mark.parametrize("estimator", ["nc", "te"])
def test_tuned_ate_fit_peaks_within_four_n_by_n_arrays_of_resident_memory(estimator):
    """One tuned ATE fit at n = 2000, in n x n arrays above the resident
    memory before it. Each tuned system decomposes in its Gram's own
    buffer beside dsyevd's 2 n^2 workspace: about 3.5 n x n for nc and
    3.4 for te, where numpy's eigh (a copy of its input, its workspace
    and a separate output) read 5.36 and 5.26."""
    assert _resident_peak(f'run_end_to_end(data, ate, estimator="{estimator}")') <= 4.0


@_IN_PLACE
@pytest.mark.skipif(ridge._malloc_trim() is None, reason="the C library has no malloc_trim")
def test_repeated_tuned_fits_decompose_beside_no_freed_heap():
    """Tuned nc, te, nc and te ATE fits at n = 2000 in one process. An
    n = 2000 Gram (30.5 MiB) is below glibc's 32 MiB mmap-threshold
    ceiling, so once one is freed later Grams come from the heap and
    freed ones stay resident, while dsyevd's 61 MiB workspace is always
    mapped fresh beside them. With the heap trimmed before each such
    workspace is mapped, the sequence peaks at about 3.3 n x n above the
    resident memory before it; untrimmed, it read 4.37."""
    fits = """
        for estimator in ("nc", "te", "nc", "te"):
            run_end_to_end(data, ate, estimator=estimator)
    """
    assert _resident_peak(fits) <= 3.6


@_IN_PLACE
@pytest.mark.parametrize("estimator", ["nc", "te"])
def test_forced_ate_fit_peaks_within_two_n_by_n_arrays_of_resident_memory(estimator):
    """One forced ATE fit at n = 2000. Each system is factored by dpotrf
    in its Gram's own buffer, which is then the only n x n array live,
    and te builds no second n x n Gram: about 1.5 n x n for nc and 1.3
    for te, where np.linalg.cholesky's copy of its input and its separate
    factor read 3.33 and 3.26."""
    fit = f'run_end_to_end(data, ate, TuningPlan("forced", lam=0.05, xi=0.02), "{estimator}")'
    assert _resident_peak(fit) <= 2.0


@pytest.mark.parametrize("kind, query", [("att", {"d_value": 0.5}), ("cate", {"v_value": 0.0})])
def test_tuned_embedding_fit_holds_few_n_by_n_arrays(kind, query):
    """Peak numpy memory of one att/cate fit with a tuned embedding penalty.

    The embedding holds no role Gram beside the one product it factors:
    the conditioning Gram is dropped once factored, and the output
    product x o w[o v] is built for the search and dropped once factored.
    Its loss splits the full-rank output factor against the conditioning
    factor one block of rows at a time. The fit so stays within nc ate's
    bound on the whole peak.
    """
    n = 300
    base = generate(SimDesign("quadratic", n=n), 1)
    x = base.block("x")
    data = from_arrays(base.y, base.block("d"), x, base.block("z"), base.block("w"),
                       v=x[:, 0])
    request = EffectRequest(kind, grid_size=5, **query)
    tracemalloc.start()
    try:
        run_end_to_end(data, request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.7 * 8 * n * n


@pytest.mark.parametrize(
    "plan", [None, TuningPlan("forced", lam=0.05, xi=0.02, lam1=0.07, lam2=0.04)],
    ids=["tuned", "forced"],
)
@pytest.mark.parametrize(
    "estimator, kind",
    [("te", "ate"), ("nc", "ate"), ("nc", "ds"), ("nc", "att"), ("nc", "cate")],
)
def test_a_dense_decomposition_runs_beside_no_other_n_by_n_array(
    monkeypatch, estimator, kind, plan
):
    """numpy memory live as each dense system decomposes, in n x n arrays.

    The eigh of a tuned RidgeSystem and the Cholesky of an untuned one
    find their input as the only n x n array: the bridge reads step 5's
    vector c from stage 1 and releases stage 1 before it builds the
    stage-2 core. A forced ds request smooths its n x 20 population
    Gram beside L, in the one stage-1 Cholesky, beside that system's input.
    gram_factor's dense Cholesky of a tuned att/cate output Gram finds
    that Gram beside the conditioning factor alone: the first 64-column
    panel is released before it.
    """
    n = 300
    base = generate(SimDesign("quadratic", n=n), 1)
    x, w = base.block("x"), base.block("w")
    data = from_arrays(base.y, base.block("d"), x, base.block("z"), w, v=x[:, 0])
    live = []
    eigh, cho_solve = ridge.RidgeSystem._eigh, ridge.RidgeSystem._cho_solve
    cholesky_in_place, factored = ridge._cholesky_in_place, []

    def spied_eigh(self):
        if self.factor is None and self._eig is None:
            live.append(tracemalloc.get_traced_memory()[0])
        return eigh(self)

    def spied_cho_solve(self, shift, b):
        live.append(tracemalloc.get_traced_memory()[0])
        return cho_solve(self, shift, b)

    def spied_cholesky_in_place(K, diag, tol):
        live.append(tracemalloc.get_traced_memory()[0])
        factored.append(K.shape)
        return cholesky_in_place(K, diag, tol)

    monkeypatch.setattr(ridge.RidgeSystem, "_eigh", spied_eigh)
    monkeypatch.setattr(ridge.RidgeSystem, "_cho_solve", spied_cho_solve)
    monkeypatch.setattr(ridge, "_cholesky_in_place", spied_cholesky_in_place)
    request = EffectRequest(
        kind, grid_size=5, alt_x=x[:20] + 0.3, alt_w=w[:20], alt_v=x[:20, 0],
        d_value=0.5, v_value=0.0,
    )
    tracemalloc.start()
    try:
        run_end_to_end(data, request, plan, estimator=estimator)
    finally:
        tracemalloc.stop()
    assert len(live) >= (1 if estimator == "te" else 2)
    assert max(live) <= 1.3 * 8 * n * n
    # only a tuned embedding builds its full-rank output Gram
    assert factored == ([(n, n)] if plan is None and kind in ("att", "cate") else [])
