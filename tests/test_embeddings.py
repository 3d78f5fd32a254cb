"""Ridge weights of conditional mean embeddings."""

import numpy as np
import pytest

from kernelnc.embeddings import cme_weights
from kernelnc.errors import InputError
from kernelnc.kernels import KernelSpec, gram


SPEC_D = KernelSpec.gaussian([0.9])


def test_cme_weights_match_dense_solve():
    d = np.random.default_rng(53).normal(size=(14, 1))
    K = gram(d, d, SPEC_D)
    Kq = gram(d, np.array([[0.2], [-0.4]]), SPEC_D)
    got = cme_weights(K, 0.05, Kq)
    want = np.linalg.solve(K + 14 * 0.05 * np.eye(14), Kq)
    np.testing.assert_allclose(got, want, rtol=1e-10)
    assert got.shape == (14, 2)


def test_cme_weights_validation():
    with pytest.raises(InputError):
        cme_weights(np.ones((2, 3)), 0.1, np.ones(2))
    with pytest.raises(InputError):
        cme_weights(np.eye(2), -0.1, np.ones(2))


def test_zero_penalty_reproduces_training_point():
    # distinct well-separated inputs make the Gram near identity, so the
    # lam=0 weights at a training input pick out that observation
    d = np.linspace(0.0, 50.0, 11)[:, None]
    spec = KernelSpec.gaussian([1.0])
    beta = cme_weights(gram(d, d, spec), 0.0, gram(d, d[4:5], spec))[:, 0]
    want = np.zeros(11)
    want[4] = 1.0
    np.testing.assert_allclose(beta, want, atol=1e-6)
