"""Simulation designs: reproducibility, stream isolation, moments, scoring."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from kernelnc.effects import TuningPlan
from kernelnc.errors import InputError, NumericalError
from kernelnc.simlab import (
    MSE_GRID_HI,
    MSE_GRID_LO,
    SimDesign,
    _decay,
    _link,
    _x_factor,
    generate,
    run_experiment,
    score_replicate,
    scoring_grid,
    true_curve,
)

FAST_PLAN = TuningPlan(mode="forced", lam=0.01, xi=0.01)


def test_design_validation():
    # an integer field is never truncated, so 60.9 is not silently 60; a
    # field's own error names it
    for fields, message in (
        ({"kind": "cubic"}, "unknown design kind 'cubic'"), ({"n": 1}, "n must be >= 2, got 1"),
        ({"dim_z": 0}, "dim_z must be >= 1, got 0"), ({"n": "a"}, "n must be numeric"),
        ({"n": 60.9}, "n must be an integer"), ({"n": 40.0}, "n must be an integer"),
        ({"dim_x": np.inf}, "dim_x must be finite"),
    ):
        with pytest.raises(InputError, match=message) as err:
            SimDesign(**fields)
        assert err.value.field == (None if "kind" in fields else next(iter(fields)))
    assert SimDesign(n=np.int64(40)).n == 40


def test_true_curve_spot_values():
    quad = SimDesign(kind="quadratic")
    assert true_curve(quad, 1.0) == pytest.approx(2.2, rel=1e-15)
    assert true_curve(quad, -1.0) == pytest.approx(-0.2, rel=1e-14)
    sig = SimDesign(kind="sigmoid")
    assert true_curve(sig, 0.5) == pytest.approx(0.6, rel=1e-14)
    assert true_curve(sig, 1.0) == pytest.approx(3.3972245773362193, rel=1e-14)
    assert true_curve(SimDesign(kind="peaked"), 0.0) == pytest.approx(-2.0)
    disc = SimDesign(kind="discrete")
    assert true_curve(disc, 1.0) - true_curve(disc, 0.0) == pytest.approx(2.2)


def test_link_and_coefficient_decay():
    assert _link(np.array(0.0)) == pytest.approx(0.5, rel=1e-15)
    assert _link(np.array(40.0)) == pytest.approx(0.9, rel=1e-12)
    assert _link(np.array(-40.0)) == pytest.approx(0.1, rel=1e-12)
    np.testing.assert_allclose(_decay(3), [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)


def test_link_is_bitwise_the_scipy_logistic():
    # every simulated dataset was drawn with 0.1 + 0.8 expit(t); numpy's
    # vectorized exp differs from C's in the last bit on a share of draws,
    # and C's exp overflows to inf where math.exp raises
    from scipy.special import expit

    t = 5.0 * np.random.default_rng(3).normal(size=1_000_000)
    tails = np.array([40.0, 709.78, 745.0, 760.0])
    t = np.concatenate([t, tails, -tails, [0.0, -0.0]])
    np.testing.assert_array_equal(_link(t), 0.1 + 0.8 * expit(t))
    assert _link(t[:6].reshape(2, 3)).shape == (2, 3)


def test_x_factor_reproduces_tridiagonal_covariance():
    L = _x_factor(4)
    sigma = np.eye(4) + 0.5 * (np.eye(4, k=1) + np.eye(4, k=-1))
    np.testing.assert_allclose(L @ L.T, sigma, atol=1e-12)


@pytest.mark.parametrize("kind", ["quadratic", "sigmoid", "peaked",
                                  "no_confounding", "discrete"])
def test_generate_shapes(kind):
    design = SimDesign(kind=kind, n=40, dim_x=3, dim_z=2, dim_w=2)
    data = generate(design, seed=5)
    assert data.n == 40
    assert data.block("x").shape == (40, 3)
    assert data.block("z").shape == (40, 2)
    assert data.block("w").shape == (40, 2)
    if kind == "discrete":
        assert data.categorical_flags("d") == (True,)
        assert set(np.unique(data.block("d"))) <= {0.0, 1.0}
    else:
        assert data.categorical_flags("d") == (False,)


def test_generate_is_byte_reproducible():
    design = SimDesign(n=50)
    a = generate(design, seed=9, replicate=4)
    b = generate(design, seed=9, replicate=4)
    assert np.array_equal(a.values, b.values)
    c = generate(design, seed=9, replicate=5)
    assert not np.array_equal(a.values, c.values)
    d = generate(design, seed=10, replicate=4)
    assert not np.array_equal(a.values, d.values)


def test_block_streams_are_isolated():
    # widening x must not disturb the z and w draws, and vice versa
    base = generate(SimDesign(n=30, dim_x=5), seed=3)
    wide = generate(SimDesign(n=30, dim_x=8), seed=3)
    assert np.array_equal(base.block("z"), wide.block("z"))
    assert np.array_equal(base.block("w"), wide.block("w"))
    more_z = generate(SimDesign(n=30, dim_x=5, dim_z=3), seed=3)
    assert np.array_equal(base.block("x"), more_z.block("x"))
    assert np.array_equal(base.block("w"), more_z.block("w"))


def _first_cols(data):
    return data.block("z")[:, 0], data.block("w")[:, 0]


def test_confounder_leak_moments():
    # z = U(-1,1) + 0.25 u_z, w = U(-1,1) + 0.25 u_w with var(u) = 2 and
    # cov(u_z, u_w) = 1, so cov(z, w) = 0.0625 and var(z) = 1/3 + 0.125
    z, w = _first_cols(generate(SimDesign(n=150_000), seed=11))
    assert abs(np.mean(z)) < 0.01 and abs(np.mean(w)) < 0.01
    assert np.var(z) == pytest.approx(1.0 / 3.0 + 0.125, abs=0.01)
    assert np.cov(z, w)[0, 1] == pytest.approx(0.0625, abs=0.01)


def test_no_confounding_breaks_the_link():
    z, w = _first_cols(generate(SimDesign(kind="no_confounding", n=150_000),
                                seed=11))
    assert np.cov(z, w)[0, 1] == pytest.approx(0.0, abs=0.01)
    assert np.var(z) == pytest.approx(1.0 / 3.0 + 0.125, abs=0.01)


def test_discrete_design_doubles_the_leak():
    data = generate(SimDesign(kind="discrete", n=150_000), seed=11)
    z, w = _first_cols(data)
    assert np.cov(z, w)[0, 1] == pytest.approx(0.25, abs=0.015)
    # treated share stays inside the truncated link band
    assert 0.1 < np.mean(data.block("d")) < 0.9


def test_x_covariance_structure():
    x = generate(SimDesign(n=150_000), seed=13).block("x")
    cov = np.cov(x, rowvar=False)
    assert cov[0, 0] == pytest.approx(1.0, abs=0.02)
    assert cov[0, 1] == pytest.approx(0.5, abs=0.02)
    assert cov[0, 2] == pytest.approx(0.0, abs=0.02)


def test_scoring_grid_shapes():
    g = scoring_grid(SimDesign(kind="quadratic"))
    assert g.shape == (100,)
    assert g[0] == pytest.approx(-0.6071067811865476, rel=1e-15)
    assert g[-1] == pytest.approx(1.6071067811865476, rel=1e-15)
    assert MSE_GRID_LO < 0.1 and MSE_GRID_HI > 0.9
    np.testing.assert_array_equal(scoring_grid(SimDesign(kind="discrete")),
                                  [0.0, 1.0])


def test_score_replicate_returns_both_estimators():
    scores = score_replicate(SimDesign(kind="discrete", n=70), seed=21,
                             replicate=0, tuning=FAST_PLAN)
    assert set(scores) == {"nc", "te"}
    assert all(np.isfinite(v) for v in scores.values())


def test_run_experiment_aggregation():
    design = SimDesign(kind="discrete", n=60)
    reports = run_experiment(design, replicates=3, seed=33, tuning=FAST_PLAN)
    for est in ("nc", "te"):
        rep = reports[est]
        assert rep.values.shape == (3,)
        np.testing.assert_array_equal(rep.replicates, [0, 1, 2])
        assert rep.mean == pytest.approx(float(np.mean(rep.values)))
        assert rep.sd == pytest.approx(float(np.std(rep.values, ddof=1)))
        assert rep.mse == pytest.approx(float(np.mean((rep.values - 2.2) ** 2)))
        assert rep.metadata["design"] == "discrete"
        assert rep.metadata["failed"] == 0


def test_run_experiment_worker_count_does_not_change_results():
    design = SimDesign(kind="discrete", n=60)
    serial = run_experiment(design, replicates=2, seed=33, tuning=FAST_PLAN)
    pooled = run_experiment(design, replicates=2, seed=33, tuning=FAST_PLAN,
                            workers=2)
    for est in ("nc", "te"):
        assert np.array_equal(serial[est].values, pooled[est].values)


def test_pooled_run_records_one_blas_thread(monkeypatch):
    # every pooled worker runs BLAS at one thread, whatever this process
    # runs at; once the pool is gone, by return or by raise, no worker is
    # left and the variables are restored, an unset one included
    design = SimDesign(kind="discrete", n=60)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    pooled = run_experiment(design, replicates=2, seed=33, tuning=FAST_PLAN, workers=2)
    assert pooled["te"].metadata["blas"]["threads"] == 1

    class Unpicklable(TuningPlan):  # a local class cannot reach a worker
        pass

    with pytest.raises((AttributeError, pickle.PicklingError), match="local object"):
        run_experiment(design, replicates=2, seed=33, workers=2,
                       tuning=Unpicklable(mode="forced", lam=0.01, xi=0.01))
    assert multiprocessing.active_children() == []
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ


def test_resolve_workers():
    # the default is one worker in this process; a count below 1 is
    # refused, never read as 1
    design = SimDesign(kind="discrete", n=60)
    default = run_experiment(design, replicates=1, seed=33, tuning=FAST_PLAN)
    serial = run_experiment(design, replicates=1, seed=33, tuning=FAST_PLAN,
                            workers=1)
    assert np.array_equal(default["te"].values, serial["te"].values)
    assert default["te"].metadata["blas"] == serial["te"].metadata["blas"]
    for workers in (0, -3):
        with pytest.raises(InputError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(design, replicates=1, seed=33, tuning=FAST_PLAN,
                           workers=workers)


def test_run_experiment_failure_handling(monkeypatch):
    import kernelnc.simlab as simlab

    real = simlab.score_replicate

    def flaky(design, seed, replicate, estimators, tuning):
        if replicate == 1:
            raise NumericalError("synthetic failure")
        return real(design, seed, replicate, estimators, tuning)

    monkeypatch.setattr(simlab, "score_replicate", flaky)
    design = SimDesign(kind="discrete", n=60)
    with pytest.raises(NumericalError, match="replicate 1"):
        run_experiment(design, replicates=3, seed=33, tuning=FAST_PLAN)
    reports = run_experiment(design, replicates=3, seed=33, tuning=FAST_PLAN,
                             strict=False)
    rep = reports["nc"]
    np.testing.assert_array_equal(rep.replicates, [0, 2])
    assert rep.metadata["failed"] == 1
    assert rep.failures[0][0] == 1


def test_run_experiment_validation():
    with pytest.raises(InputError):
        run_experiment(SimDesign(), replicates=0, seed=1)
    with pytest.raises(InputError):
        run_experiment(SimDesign(), replicates=1, seed=1, estimators=("ols",))
    with pytest.raises(InputError, match="workers must be >= 1"):
        run_experiment(SimDesign(), replicates=1, seed=1, workers=0)
    for estimators in ((), ("nc", "nc")):
        with pytest.raises(InputError, match="one or more estimators, each once"):
            run_experiment(SimDesign(), replicates=1, seed=1, estimators=estimators)
    for strict in (True, False):
        with pytest.raises(InputError, match="seed must be >= 0"):
            run_experiment(SimDesign(n=40), replicates=1, seed=-1, strict=strict)
    # each argument is checked before any replicate runs; a string is one
    # name, not a list of its characters
    for arguments, message in (
        ((1, 0, "te"), "estimators must be a list of names, got 'te'"),
        ((1.5, 0), "replicates must be an integer, got 1.5"),
        ((1, "0"), "seed must be an integer, got '0'"),
        ((1, 0, ("nc",), None, "2"), "workers must be an integer, got '2'"),
    ):
        with pytest.raises(InputError, match=message):
            run_experiment(SimDesign(n=40), *arguments)
    for seed, replicate, message in (
        (-1, 0, "seed must be >= 0, got -1"), (1, -2, "replicate must be >= 0, got -2"),
        (1.5, 0, "seed must be an integer, got 1.5"), (1, None, "replicate must be numeric"),
    ):
        with pytest.raises(InputError, match=message):
            generate(SimDesign(n=40), seed, replicate)
