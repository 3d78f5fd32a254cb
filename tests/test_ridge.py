"""Ridge solves and the closed-form leave-one-out tuners."""

import tracemalloc

import numpy as np
import pytest

from kernelnc.data import from_arrays
from kernelnc.effects import (
    EffectRequest,
    TuningPlan,
    kernel_specs,
    product_gram,
    run_end_to_end,
    stage2_kernel,
)
from kernelnc.errors import InputError, NumericalError
from kernelnc.kernels import KernelSpec, gram
from kernelnc.ridge import (
    DEFAULT_GRID,
    RidgeSystem,
    TuneReport,
    gram_factor,
)
from kernelnc.simlab import SimDesign, generate

from oracle_dense import krr_predict, loo_embedding_losses, loo_scalar_losses


def _random_gram(rng, n, p=2):
    pts = rng.normal(size=(n, p))
    scales = rng.uniform(0.5, 2.0, size=p)
    return gram(pts, pts, KernelSpec.gaussian(scales))


def test_default_grid_is_pinned():
    assert DEFAULT_GRID.shape == (20,)
    assert DEFAULT_GRID[0] == 1e-8
    assert DEFAULT_GRID[-1] == 1e2
    assert np.all(np.diff(np.log(DEFAULT_GRID)) > 0)


def _untuned_and_tuned(K):
    """The same kernel as a Cholesky system and as a cached-eigh system."""
    tuned = RidgeSystem(K)
    tuned.loo(np.ones(tuned.n))
    return RidgeSystem(K), tuned


def test_ridge_system_identity():
    b = np.array([2.0, -4.0, 6.0])
    for system in _untuned_and_tuned(np.eye(3)):
        out = system.solve(1.0, b)
        np.testing.assert_allclose(out, b / 2.0, rtol=1e-14)


def test_ridge_system_matches_dense_solve():
    rng = np.random.default_rng(23)
    K = _random_gram(rng, 15)
    b = rng.normal(size=(15, 4))
    want = np.linalg.solve(K + 0.3 * np.eye(15), b)
    for system in _untuned_and_tuned(K):
        np.testing.assert_allclose(system.solve(0.3, b), want, rtol=1e-11)
        np.testing.assert_allclose(system.solve(0.3, b[:, 0]), want[:, 0],
                                   rtol=1e-11)
        np.testing.assert_allclose(
            system.smooth(0.3, np.eye(15)), np.linalg.solve(K + 0.3 * np.eye(15), K),
            rtol=1e-10, atol=1e-13,
        )


def test_ridge_system_jitter_escalation():
    # an all-zero kernel with no ridge is singular; both solve paths
    # must recover through the jitter ladder and record what they applied
    for system in _untuned_and_tuned(np.zeros((4, 4))):
        out = system.solve(0.0, np.zeros(4))
        assert system.jitter > 0.0
        np.testing.assert_allclose(out, np.zeros(4))


def test_ridge_system_shifts_negative_eigenvalues():
    # a round-off negative eigenvalue below -n*lam must not reach the
    # leave-one-out diagonal: the ladder shifts it, and records the shift
    Q = np.linalg.qr(np.random.default_rng(19).normal(size=(4, 4)))[0]
    K = (Q * np.array([-5e-12, 0.5, 1.0, 2.5])) @ Q.T
    system = RidgeSystem(K)
    report = system.loo(np.arange(4.0), [1e-14, 1e-2])
    assert np.all(np.isfinite(report.losses)) and np.all(report.losses > 0.0)
    assert system.jitter == pytest.approx(1e-11 * np.trace(K) / 4, rel=1e-12)


def test_ridge_system_validation():
    with pytest.raises(InputError):
        RidgeSystem(np.ones((2, 3)))
    with pytest.raises(NumericalError):
        RidgeSystem(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    for system in _untuned_and_tuned(np.eye(2)):
        with pytest.raises(InputError):
            system.solve(-0.5, np.ones(2))
        with pytest.raises(InputError):
            system.smooth(np.inf, np.eye(2))
        with pytest.raises(InputError):
            system.solve(0.1, np.ones(3))


def test_smooth_matches_the_dense_smoother():
    # K (K + rho I)^{-1} X from the cached eigh, by Cholesky before any
    # tuning, and through a factor, against the dense solve
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1.0, 1.0, size=(60, 1))
    K = gram(pts, pts, KernelSpec.gaussian([0.5]))
    X = rng.normal(size=(60, 4))
    want = np.linalg.solve(K + 0.3 * np.eye(60), K) @ X
    factored = RidgeSystem(factor=gram_factor(K.copy()))
    for system in _untuned_and_tuned(K) + (factored,):
        np.testing.assert_allclose(system.smooth(0.3, X), want, rtol=1e-10)
        np.testing.assert_allclose(system.smooth(0.3, X[:, 0]), want[:, 0], rtol=1e-10)


def test_untuned_solves_leave_the_kernel_unchanged():
    # the Cholesky route shifts the kernel's diagonal in place and
    # restores it, also when the factorization fails and a jitter is
    # retried; a read-only kernel is shifted in a copy. n = 150 spans
    # three blocks of the substitution
    rng = np.random.default_rng(61)
    K = _random_gram(rng, 150)
    b = rng.normal(size=(150, 3))
    want = np.linalg.solve(K + 0.3 * np.eye(150), b)
    for base, ridge in ((K, 0.3), (np.zeros((150, 150)), 0.0)):
        for writeable in (True, False):
            kernel = base.copy()
            kernel.setflags(write=writeable)
            before = kernel.copy()
            system = RidgeSystem(kernel)
            x, smoothed = system.solve(ridge, b), system.smooth(ridge, b)
            np.testing.assert_array_equal(kernel, before)
            if ridge:
                np.testing.assert_allclose(x, want, rtol=1e-10)
                np.testing.assert_allclose(smoothed, K @ want, rtol=1e-10)
            else:
                assert system.jitter > 0.0
                np.testing.assert_allclose(smoothed, 0.0, atol=1e-12)


def test_solves_and_losses_read_only_the_lower_triangle():
    # eigh (UPLO='L') and the Cholesky route (the upper triangle of K')
    # read only the kernel's lower triangle: whatever lies above the
    # diagonal changes no bit of a solve, a smooth or a loss on either path
    rng = np.random.default_rng(59)
    K = _random_gram(rng, 30)
    skewed = np.tril(K) + np.triu(rng.normal(size=(30, 30)), 1)
    y = rng.normal(size=30)
    b = rng.normal(size=(30, 3))
    factor = gram_factor(_random_gram(rng, 30, p=3))
    outputs = []
    for kernel in (K, skewed):
        system = RidgeSystem(kernel)
        cholesky = (system.solve(0.3, b), system.smooth(0.3, b))
        scalar = system.loo(y).losses
        embedding = system.loo(factor).losses
        eigh = (system.solve(0.3, b), system.smooth(0.3, b))
        outputs.append(cholesky + (scalar, embedding) + eigh)
    for got, want in zip(outputs[1], outputs[0]):
        np.testing.assert_array_equal(got, want)


def test_zero_penalty_reproduces_training_point():
    # distinct well-separated inputs make the Gram near identity, so the
    # zero-penalty embedding weights at a training input pick out that
    # observation
    d = np.linspace(0.0, 50.0, 11)[:, None]
    spec = KernelSpec.gaussian([1.0])
    want = np.zeros(11)
    want[4] = 1.0
    for system in _untuned_and_tuned(gram(d, d, spec)):
        beta = system.solve(0.0, gram(d, d[4:5], spec))[:, 0]
        np.testing.assert_allclose(beta, want, atol=1e-6)


def test_krr_hand_case():
    # orthonormal features: n*lam = 1 halves each coefficient
    pred = np.array([[1.0], [0.0]]).T @ RidgeSystem(np.eye(2)).solve(
        2 * 0.5, np.array([2.0, 4.0]))
    np.testing.assert_allclose(pred, [1.0], rtol=1e-14)


def test_krr_matches_dense():
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(20, 2))
    spec = KernelSpec.gaussian([1.0, 1.3])
    K = gram(pts, pts, spec)
    Kq = gram(pts, rng.normal(size=(6, 2)), spec)
    y = rng.normal(size=20)
    np.testing.assert_allclose(
        Kq.T @ RidgeSystem(K).solve(20 * 0.05, y), krr_predict(K, Kq, y, 0.05), rtol=1e-10
    )


def test_krr_interpolates_at_tiny_ridge():
    # well-separated points keep the Gram near identity, so a 1e-12
    # penalty reproduces the targets
    pts = np.linspace(0.0, 42.0, 15)[:, None]
    K = gram(pts, pts, KernelSpec.gaussian([1.0]))
    y = np.random.default_rng(31).normal(size=15)
    np.testing.assert_allclose(K.T @ RidgeSystem(K).solve(15 * 1e-12, y), y, atol=1e-4)


def test_coefficients_shrink_monotonically():
    rng = np.random.default_rng(37)
    K = _random_gram(rng, 25)
    y = rng.normal(size=25)
    norms = [
        float(np.linalg.norm(RidgeSystem(K).solve(25 * lam, y)))
        for lam in (1e-4, 1e-2, 1e0, 1e2)
    ]
    assert norms == sorted(norms, reverse=True)


def test_loocv_scalar_identity_gram():
    # with an identity Gram the held-out prediction is always 0, so the
    # loss equals mean(y^2) for every penalty and ties resolve smallest
    y = np.array([1.0, -2.0, 3.0])
    report = RidgeSystem(np.eye(3)).loo(y, [1e-3, 1e-1, 1e1])
    np.testing.assert_allclose(report.losses, np.full(3, np.mean(y**2)),
                               rtol=1e-12)
    assert report.selected == 1e-3


def test_loocv_scalar_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = int(rng.integers(8, 30))
        K = _random_gram(rng, n)
        y = rng.normal(size=n)
        grid = np.sort(rng.uniform(1e-4, 1.0, size=4))
        report = RidgeSystem(K).loo(y, grid)
        np.testing.assert_allclose(report.losses, loo_scalar_losses(K, y, grid),
                                   rtol=1e-9)
        assert report.selected == grid[np.argmin(report.losses)]


def test_loocv_embedding_matches_brute_force():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = int(rng.integers(8, 25))
        K_in = _random_gram(rng, n)
        K_out = _random_gram(rng, n, p=3)
        grid = np.sort(rng.uniform(1e-4, 1.0, size=4))
        report = RidgeSystem(K_in).loo(gram_factor(np.array(K_out)), grid)
        np.testing.assert_allclose(
            report.losses, loo_embedding_losses(K_in, K_out, grid), rtol=1e-9
        )


def test_dense_losses_split_the_grid_into_several_products():
    # a dense system scores its grid through Q [s_1 C ... s_m C], m
    # candidates per product with m r_out <= n: an output factor of
    # r_out = 20 at n = 48 splits the 20 candidates into ten products of
    # two, a full-rank one into twenty of one, and the scalar loss takes
    # them all in one. Each loss matches brute-force refits
    rng = np.random.default_rng(79)
    n = 48
    K_in = _random_gram(rng, n, p=3)
    for L in (rng.normal(size=(n, 20)), gram_factor(_random_gram(rng, n, p=6))):
        assert n // L.shape[1] < DEFAULT_GRID.size
        report = RidgeSystem(K_in).loo(L)
        want = loo_embedding_losses(K_in, L @ L.T, DEFAULT_GRID)
        np.testing.assert_allclose(report.losses, want, rtol=1e-8)
        assert report.selected == DEFAULT_GRID[np.argmin(want)]
    y = rng.normal(size=n)
    report = RidgeSystem(K_in).loo(y)
    want = loo_scalar_losses(K_in, y, DEFAULT_GRID)
    np.testing.assert_allclose(report.losses, want, rtol=1e-8)
    assert report.selected == DEFAULT_GRID[np.argmin(want)]


def test_loocv_exact_over_the_default_grid():
    # the whole shipped grid, down to 1e-8, on a quadratic-design stage-1
    # Gram A with output Gram K_ww and the stage-2 kernel M with outcomes y
    data = generate(SimDesign("quadratic", n=40), 1)
    specs = kernel_specs(data)
    A = product_gram(data, specs, ("d", "x", "z", "v"))
    K_ww = product_gram(data, specs, ("w",))
    emb = RidgeSystem(A).loo(gram_factor(K_ww))
    np.testing.assert_allclose(
        emb.losses, loo_embedding_losses(A, K_ww, DEFAULT_GRID), rtol=1e-8
    )
    BL = RidgeSystem(A).smooth(data.n * emb.selected, gram_factor(K_ww))
    M = stage2_kernel(product_gram(data, specs, ("d", "x", "v")), BL)
    np.testing.assert_allclose(
        RidgeSystem(M).loo(data.y).losses,
        loo_scalar_losses(M, data.y, DEFAULT_GRID),
        rtol=1e-8,
    )


def test_scalar_loss_exact_on_the_baselines_near_interpolating_gram():
    # the baseline's product Gram over (d, x, z, w) is nearly singular, so
    # its loss is smallest at the grid floor; the closed form must still
    # match brute-force refits there
    data = generate(SimDesign("no_confounding", n=60), 271828)
    K = product_gram(data, kernel_specs(data), ("d", "x", "z", "w"))
    report = RidgeSystem(K).loo(data.y)
    np.testing.assert_allclose(
        report.losses, loo_scalar_losses(K, data.y, DEFAULT_GRID), rtol=1e-8
    )
    assert report.selected == 1e-8


def test_factored_embedding_loss_exact_on_a_rank_deficient_output():
    # K_ww over one uniform control outcome has numerical rank r << n;
    # the loss read through its n x r factor matches brute-force refits
    # on the dense Gram over the whole shipped grid
    data = generate(SimDesign("quadratic", n=200), 2)
    specs = kernel_specs(data)
    A = product_gram(data, specs, ("d", "x", "z", "v"))
    K_ww = product_gram(data, specs, ("w",))
    factor = gram_factor(K_ww)
    assert factor.shape[1] < 40
    report = RidgeSystem(A).loo(factor)
    want = loo_embedding_losses(A, K_ww, DEFAULT_GRID)
    np.testing.assert_allclose(report.losses, want, rtol=1e-8)
    assert report.selected == DEFAULT_GRID[np.argmin(want)]


def test_gram_factor_reconstructs_on_each_route(monkeypatch):
    # a Gram of rank below the 64-column panel is factored through no
    # n x n allocation; a full-rank Gram with n > 64 takes the dense
    # Cholesky, and a singular one of high rank (duplicated points) the
    # pivoted loop continued past the first panel. No route writes to
    # the Gram
    choleskys = []
    cholesky = np.linalg.cholesky

    def spy(a):
        choleskys.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    w = np.random.default_rng(53).uniform(-1.0, 1.0, size=(300, 1))
    K = gram(w, w, KernelSpec.gaussian([0.5]))
    want = K.copy()
    tracemalloc.start()
    try:
        L = gram_factor(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K.nbytes / 2
    np.testing.assert_array_equal(K, want)
    assert L.shape[0] == 300 and L.shape[1] < 40
    np.testing.assert_allclose(L @ L.T, want, rtol=0.0, atol=1e-12)
    identity = gram_factor(np.eye(5))
    assert identity.shape == (5, 5)
    np.testing.assert_array_equal(identity @ identity.T, np.eye(5))
    assert choleskys == []

    full = _random_gram(np.random.default_rng(61), 120, p=4)
    keep = np.r_[0:117, 0:3]  # the last three points repeat the first three
    for K, rank in ((full, 120), (full[np.ix_(keep, keep)], 117)):
        choleskys.clear()
        want = K.copy()
        L = gram_factor(K)
        np.testing.assert_array_equal(K, want)
        assert L.shape == (120, rank)
        assert choleskys == [(120, 120)]
        np.testing.assert_allclose(L @ L.T, K, rtol=0.0, atol=1e-12)
    assert gram_factor(np.zeros((4, 4))).shape == (4, 0)


def test_loocv_uses_default_grid():
    rng = np.random.default_rng(47)
    K = _random_gram(rng, 12)
    report = RidgeSystem(K).loo(rng.normal(size=12))
    np.testing.assert_array_equal(report.grid, DEFAULT_GRID)
    other = RidgeSystem(K).loo(gram_factor(np.array(K)))
    np.testing.assert_array_equal(other.grid, DEFAULT_GRID)


def test_loocv_validation():
    with pytest.raises(InputError):
        RidgeSystem(np.eye(3)).loo(np.ones(4))
    with pytest.raises(InputError):
        RidgeSystem(np.eye(3)).loo(np.ones(3), [])
    with pytest.raises(InputError):
        RidgeSystem(np.eye(3)).loo(np.ones(3), [-1.0, 0.1])
    with pytest.raises(InputError):
        RidgeSystem(np.eye(3)).loo(gram_factor(np.eye(4)))


def test_an_output_with_no_columns_has_zero_loss():
    # the factor of a zero output Gram has no columns, and the exact loss
    # of a zero output is 0 at every candidate, on either route
    empty = gram_factor(np.zeros((4, 4)))
    for system in (RidgeSystem(np.eye(4)), RidgeSystem(factor=np.eye(4))):
        report = system.loo(empty, [1.0, 0.1])
        np.testing.assert_array_equal(report.grid, [0.1, 1.0])
        np.testing.assert_array_equal(report.losses, np.zeros(2))
        assert report.selected == 0.1


def test_non_numeric_inputs_raise_input_error():
    # a string where a kernel, a factor, a ridge, a right-hand side or a
    # grid belongs is refused as an InputError, never a bare ValueError
    for kwargs in ({"kernel": "abc"}, {"factor": "abc"}, {"kernel": [["a", 1.0]] * 2}):
        with pytest.raises(InputError):
            RidgeSystem(**kwargs)
    text = ["a", "b"]
    for system in (RidgeSystem(np.eye(2)), RidgeSystem(factor=np.eye(2))):
        calls = (
            lambda: system.solve(1.0, text), lambda: system.smooth(1.0, text),
            lambda: system.solve("a", np.ones(2)), lambda: system.loo(text),
            lambda: system.loo(np.ones((2, 1)), ["a", 0.1]),
        )
        for call in calls:
            with pytest.raises(InputError):
                call()
    with pytest.raises(InputError):
        TuneReport(["a", 0.1], [0.5, 0.4])


def test_tune_report_tie_break_and_validation():
    report = TuneReport(np.array([0.1, 1.0]), np.array([0.5, 0.5]))
    assert report.selected == 0.1
    assert TuneReport([0.1, 1.0], [0.5, 0.4]).selected == 1.0
    with pytest.raises(NumericalError):
        TuneReport(np.array([0.1]), np.array([np.nan]))


def _study_data(n, seed):
    """A quadratic-design dataset with the subgroup block v = x[:, 0]."""
    base = generate(SimDesign("quadratic", n=n), seed)
    x = base.block("x")
    return from_arrays(base.y, base.block("d"), x, base.block("z"), base.block("w"),
                       v=x[:, 0])


def _conditioning_case(case):
    """(conditioning Gram, output Gram) of one att/cate embedding."""
    if case in ("full_rank", "duplicated"):
        K_in = _random_gram(np.random.default_rng(61), 120, p=4)
        K_out = _random_gram(np.random.default_rng(67), 120, p=3)
        if case == "duplicated":
            # the last three observations repeat the first three: r = n - 3
            keep = np.r_[0:117, 0:3]
            K_in, K_out = (K[np.ix_(keep, keep)] for K in (K_in, K_out))
        return K_in, K_out
    data = _study_data(200, 1) if case != "discrete_d" else generate(
        SimDesign("discrete", n=120), 3)
    if case == "outlier_d":
        # one treatment far outside the rest: its leverage nears 1 as lambda
        # falls, so h nears 0 there
        d = data.block("d").copy()
        d[0] = d.max() + 5.0 * d.std()
        data = from_arrays(data.y, d, data.block("x"), data.block("z"), data.block("w"),
                           v=data.block("v"))
    specs = kernel_specs(data)
    if case == "cate_v":
        return product_gram(data, specs, ("v",)), product_gram(data, specs, ("x", "w"))
    return product_gram(data, specs, ("d",)), product_gram(data, specs, ("x", "w", "v"))


@pytest.mark.parametrize("case, rank", [
    ("att_d", "deficient"), ("cate_v", "deficient"), ("discrete_d", 2), ("full_rank", 120),
    ("outlier_d", "deficient"), ("duplicated", 117),
])
def test_factored_embedding_loss_exact_over_the_default_grid(case, rank):
    # step 4 builds its system from the pivoted-Cholesky factor of the
    # conditioning Gram; the Woodbury form of its loss must match
    # brute-force refits on the dense Gram over the whole shipped grid,
    # at every rank up to r = n
    K_in, K_out = _conditioning_case(case)
    system = RidgeSystem(factor=gram_factor(K_in.copy()))
    r = system.factor.shape[1]
    assert r == rank if rank != "deficient" else r < 40
    report = system.loo(gram_factor(K_out.copy()))
    want = loo_embedding_losses(K_in, K_out, DEFAULT_GRID)
    np.testing.assert_allclose(report.losses, want, rtol=1e-8)
    assert report.selected == DEFAULT_GRID[np.argmin(want)]
    assert system.jitter == 0.0


def test_factored_system_solves_as_the_dense_one():
    rng = np.random.default_rng(71)
    pts = rng.uniform(-1.0, 1.0, size=(80, 1))
    K = gram(pts, pts, KernelSpec.gaussian([0.5]))
    b = rng.normal(size=(80, 3))
    system = RidgeSystem(factor=gram_factor(K.copy()))
    assert system.factor.shape[1] < 40
    want = np.linalg.solve(K + 0.3 * np.eye(80), b)
    np.testing.assert_allclose(system.solve(0.3, b), want, rtol=1e-10)
    np.testing.assert_allclose(system.solve(0.3, b[:, 0]), want[:, 0], rtol=1e-10)
    np.testing.assert_allclose(
        system.smooth(0.3, np.eye(80)), np.linalg.solve(K + 0.3 * np.eye(80), K),
        rtol=1e-9, atol=1e-12,
    )
    assert system.jitter == 0.0
    # K is singular off the factor's span, so a zero ridge goes to the
    # jitter ladder, and the jittered weights stay finite
    assert np.all(np.isfinite(system.solve(0.0, b)))
    assert system.jitter == pytest.approx(1e-12 * np.trace(K) / 80, rel=1e-12)


def test_factored_system_validation():
    with pytest.raises(InputError):
        RidgeSystem()
    with pytest.raises(InputError):
        RidgeSystem(np.eye(2), factor=np.eye(2))
    with pytest.raises(InputError):
        RidgeSystem(factor=np.ones(3))
    with pytest.raises(NumericalError):
        RidgeSystem(factor=np.array([[1.0], [np.inf]]))
    system = RidgeSystem(factor=np.ones((3, 1)))
    with pytest.raises(InputError):
        system.solve(0.1, np.ones(2))
    with pytest.raises(InputError):
        system.loo(np.ones((2, 1)))


def test_one_decomposition_per_tuned_system(monkeypatch):
    # with every penalty left to leave-one-out, each dense system is
    # eigendecomposed once (n x n) and that decomposition also does the
    # solve: A and M for the bridge, the product Gram for the baseline.
    # The att/cate embedding, tuned or forced, eigendecomposes only the
    # r x r matrix L'L of its conditioning Gram's factor, and no system
    # solves by Cholesky. A forced penalty factors its system by
    # Cholesky and never takes the n x n eigh
    shapes, chols = [], []

    def recorded(log, fn):
        def wrapper(a, *args, **kwargs):
            log.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", recorded(shapes, np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "cholesky", recorded(chols, np.linalg.cholesky))
    data = _study_data(60, 3)
    att = EffectRequest("att", grid_size=5, d_value=0.2)
    cate = EffectRequest("cate", grid_size=5, v_value=0.1)
    ate = EffectRequest("ate", grid_size=5)
    runs = (
        ("nc", ate, None, 2, 0, 0),
        ("te", ate, None, 1, 0, 0),
        ("nc", att, None, 2, 1, 0),
        ("nc", cate, None, 2, 1, 0),
        ("nc", att, TuningPlan("forced", lam1=0.01), 2, 1, 0),
        ("nc", cate, TuningPlan("forced", lam2=0.01), 2, 1, 0),
        ("nc", ate, TuningPlan("forced", lam=0.01, xi=0.01), 0, 0, 2),
        ("te", ate, TuningPlan("forced", lam=0.01), 0, 0, 1),
    )
    for estimator, request, plan, full, thin, forced in runs:
        shapes.clear()
        chols.clear()
        run_end_to_end(data, request, plan, estimator=estimator)
        case = (estimator, request.kind, plan)
        assert len(shapes) == full + thin, case
        # step 4 runs before the bridge, so its r x r call comes first
        assert shapes[thin:] == [(60, 60)] * full, case
        if thin:
            r = shapes[0][0]
            assert shapes[0] == (r, r) and r < 60, case
        assert chols == [(60, 60)] * forced, case
