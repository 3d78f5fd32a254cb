"""Two-stage bridge fitting: hand instance, dense oracle, penalty schedules."""

import numpy as np
import pytest

from kernelnc.data import from_arrays
from kernelnc.effects import TuningPlan, kernel_specs, product_gram, stage2_kernel
from kernelnc.errors import InputError
from kernelnc.kernels import KernelSpec
from kernelnc.ridge import RidgeSystem, gram_factor

import oracle_dense as od


def _indicator_dataset():
    # three rows, every block pairwise distinct, so each indicator Gram
    # is exactly the identity and both stages collapse to scalars
    codes = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, -2.0, 4.0])
    return from_arrays(y, codes, codes, codes, codes, d_categorical=True)


def _fit(data, specs, lam, xi):
    # the bridge's steps as the pipeline runs them: stage 1's smooth of
    # L, the second-stage kernel M and the stage-2 solve; B is stage 1's
    # smooth of the identity, which the pipeline never forms
    n = data.n
    stage1 = RidgeSystem(product_gram(data, specs, ("d", "x", "z", "v")))
    L = gram_factor(product_gram(data, specs, ("w",)))
    BL = stage1.smooth(n * lam, L)
    B = stage1.smooth(n * lam, np.eye(n))
    M = stage2_kernel(product_gram(data, specs, ("d", "x", "v")), BL)
    alpha = RidgeSystem(M.copy()).solve(n * xi, data.y)
    return B, M, alpha


def _indicator_specs():
    return {role: KernelSpec.indicator(1) for role in ("d", "x", "z", "w")}


def test_identity_gram_hand_instance():
    # n=3, lam=1/3: B = I/2, so B'L = L/2, and M = I/4; xi=1/12 then
    # gives alpha = 2y
    data = _indicator_dataset()
    specs = _indicator_specs()
    A = product_gram(data, specs, ("d", "x", "z", "v"))
    np.testing.assert_array_equal(A, np.eye(3))

    L = gram_factor(product_gram(data, specs, ("w",)))
    BL = RidgeSystem(A).smooth(data.n * (1.0 / 3.0), L)
    M = stage2_kernel(product_gram(data, specs, ("d", "x", "v")), BL)
    np.testing.assert_allclose(BL, L / 2.0, atol=1e-12)
    np.testing.assert_allclose(M, np.eye(3) / 4.0, atol=1e-12)

    y = data.y
    alpha = RidgeSystem(M).solve(data.n * (1.0 / 12.0), y)
    np.testing.assert_allclose(alpha, 2.0 * y, rtol=1e-10)


def _random_dataset(rng, n, with_v=False):
    return from_arrays(
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=(n, 2)),
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n) if with_v else None,
    )


def _oracle_scales(data, roles):
    return {r: od.block_scales(data.block(r)) for r in roles}


def _assert_stages_match(fitted, fit):
    B, M, alpha = fitted
    np.testing.assert_allclose(B, fit["B"], rtol=1e-9)
    np.testing.assert_allclose(M, fit["M"], rtol=1e-9)
    np.testing.assert_allclose(alpha, fit["alpha"], rtol=1e-8)


def test_fit_matches_dense_oracle():
    rng = np.random.default_rng(67)
    data = _random_dataset(rng, 22)
    specs = kernel_specs(data)
    fitted = _fit(data, specs, 0.08, 0.03)
    fit = od.fit_dense(
        data.block("d"), data.block("x"), data.block("z"), data.block("w"),
        data.y, _oracle_scales(data, ("d", "x", "z", "w")), 0.08, 0.03,
    )
    _assert_stages_match(fitted, fit)


def test_fit_with_v_block_matches_dense_oracle():
    rng = np.random.default_rng(71)
    data = _random_dataset(rng, 18, with_v=True)
    specs = kernel_specs(data)
    fitted = _fit(data, specs, 0.1, 0.05)
    fit = od.fit_dense(
        data.block("d"), data.block("x"), data.block("z"), data.block("w"),
        data.y, _oracle_scales(data, ("d", "x", "z", "w", "v")), 0.1, 0.05,
        v=data.block("v"),
    )
    _assert_stages_match(fitted, fit)


def test_theoretical_penalty_spot_values():
    penalties = TuningPlan("theoretical").penalties(10000)
    for name in ("lam", "lam1", "lam2"):
        assert penalties[name] == pytest.approx(0.046415888336127795, rel=1e-12)
    assert penalties["xi"] == pytest.approx(0.5411695265464637, rel=1e-12)


def test_theoretical_schedule_validation():
    for name, value in (("c0", 1.0), ("c1", 2.5)):
        with pytest.raises(InputError):
            TuningPlan("theoretical", **{name: value})
