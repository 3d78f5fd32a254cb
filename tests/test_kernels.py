"""Product-kernel construction: hand values, symmetry, PSD, lengthscales."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from kernelnc import kernels
from kernelnc.errors import DegenerateScaleError, InputError
from kernelnc.kernels import (
    ColumnKernel,
    KernelSpec,
    gram,
    median_heuristic,
    spec_from_data,
)

from oracle_dense import gram_loops, median_gap


def test_gaussian_hand_values():
    # unit gap at unit lengthscale decays by exactly exp(-1/2)
    one = gram([[0.0]], [[1.0]], KernelSpec.gaussian([1.0]))
    assert one[0, 0] == pytest.approx(0.6065306597126334, rel=1e-15)
    # two columns multiply: exp(-0.5) * exp(-0.5) = exp(-1)
    two = gram([[0.0, 0.0]], [[1.0, 2.0]], KernelSpec.gaussian([1.0, 2.0]))
    assert two[0, 0] == pytest.approx(0.36787944117144233, rel=1e-15)
    same = gram([[3.0, -2.0]], [[3.0, -2.0]], KernelSpec.gaussian([0.7, 4.0]))
    assert same[0, 0] == 1.0


def test_gaussian_rejects_bad_scales():
    with pytest.raises(InputError):
        ColumnKernel("gaussian", 0.0)
    with pytest.raises(InputError):
        ColumnKernel("gaussian", np.inf)
    with pytest.raises(InputError):
        gram([[0.0, 1.0]], [[1.0]], KernelSpec.gaussian([1.0]))


def test_indicator_kernel():
    spec = KernelSpec.indicator(2)
    assert gram([[1.0, 2.0]], [[1.0, 2.0]], spec)[0, 0] == 1.0
    assert gram([[1.0, 2.0]], [[1.0, 3.0]], spec)[0, 0] == 0.0


def test_median_heuristic_hand_case():
    # gaps of {0, 1, 3} are {1, 2, 3}, median 2
    assert median_heuristic(np.array([0.0, 1.0, 3.0])[:, None]) == 2.0
    # even pair count averages the middle order statistics
    assert median_heuristic(np.array([0.0, 1.0, 2.0, 4.0])[:, None]) == 2.0


def test_median_heuristic_matches_brute_force():
    rng = np.random.default_rng(7)
    arr = rng.normal(size=(23, 3))
    for j in range(3):
        assert median_heuristic(arr, j) == median_gap(arr[:, j])


def _median_columns():
    rng = np.random.default_rng(23)
    ulp = np.spacing(1.0)
    return {
        "n2": np.array([0.3, -1.2]),
        "n3": np.array([2.0, -0.5, 0.25]),
        "n6_odd_pairs": rng.normal(size=6),
        "n7_odd_pairs": rng.normal(size=7),
        "n9_even_pairs": rng.normal(size=9),
        "n2000_normal": rng.normal(size=2000),
        "n1001_uniform": rng.uniform(size=1001),
        "rounded_ties": np.round(rng.normal(size=800), 1),
        "three_levels": rng.integers(0, 3, size=900).astype(float),
        "negative_wide": -np.exp(rng.normal(scale=8.0, size=500)) - 1e6,
        "tenths": rng.integers(0, 7, size=400) * 0.1 + 0.3,
        # gaps one ulp apart: bisection has to split adjacent floats
        "adjacent_floats": np.repeat([0.0, 1.0 + ulp, 1.0 + 2 * ulp, 1e6], [5, 40, 40, 40]),
    }


@pytest.mark.parametrize("case", sorted(_median_columns()))
def test_median_heuristic_is_the_pdist_median(case):
    col = _median_columns()[case]
    expected = float(np.median(pdist(col[:, None], metric="cityblock")))
    assert median_heuristic(col[:, None]) == expected


@pytest.mark.parametrize("levels", [None, 3])
def test_median_heuristic_needs_no_pairwise_array(levels):
    # all 8e6 pairwise gaps of n = 4000 would take 64 MB
    rng = np.random.default_rng(29)
    col = rng.normal(size=4000) if levels is None else rng.integers(0, levels, 4000) * 1.0
    tracemalloc.start()
    try:
        median_heuristic(col[:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_median_heuristic_degenerate():
    with pytest.raises(DegenerateScaleError):
        median_heuristic(np.full((6, 1), 2.5))
    # more than half the pairs tie at zero gap
    with pytest.raises(DegenerateScaleError):
        median_heuristic(np.array([1.0, 1.0, 1.0, 1.0, 2.0])[:, None])


def test_gram_matches_dense_loops():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(17, 2))
    b = rng.normal(size=(9, 2))
    spec = KernelSpec.gaussian([0.8, 1.7])
    np.testing.assert_allclose(
        gram(a, b, spec), gram_loops(a, b, [0.8, 1.7]), rtol=1e-13, atol=0
    )


def _gram_reference(rows, cols, spec):
    """Whole-matrix product kernel: exp of -0.5 times the sum of the
    Gaussian columns' squared scaled differences, in column order, times
    each indicator factor in column order."""
    r, c = np.atleast_2d(rows), np.atleast_2d(cols)
    total = None
    for j, ck in enumerate(spec.columns):
        if ck.family == "gaussian":
            t = (r[:, j][:, None] - c[:, j][None, :]) * (1.0 / ck.lengthscale)
            total = t * t if total is None else total + t * t
    out = np.ones((r.shape[0], c.shape[0])) if total is None else np.exp(-0.5 * total)
    for j, ck in enumerate(spec.columns):
        if ck.family == "indicator":
            out *= (r[:, j][:, None] == c[:, j][None, :]).astype(float)
    return out


MIXED = KernelSpec(
    (
        ColumnKernel("gaussian", 0.7),
        ColumnKernel("indicator"),
        ColumnKernel("gaussian", 30.0),
        ColumnKernel("gaussian", 1e-3),
    )
)


def _mixed_sample(rng, n):
    return np.column_stack(
        [rng.normal(size=n), rng.integers(0, 3, n), 50 * rng.normal(size=n), rng.normal(size=n)]
    )


INDICATOR_FIRST = KernelSpec((ColumnKernel("indicator"), ColumnKernel("gaussian", 0.7)))


@pytest.mark.parametrize("shape", [(37, 300), (300, 37), (1, 300), (300, 1), (1, 1)])
def test_gram_equals_whole_matrix_reference(shape):
    rng = np.random.default_rng(31)
    rows, cols = _mixed_sample(rng, shape[0]), _mixed_sample(rng, shape[1])
    assert np.array_equal(gram(rows, cols, MIXED), _gram_reference(rows, cols, MIXED))
    # an indicator column declared before the first Gaussian one
    r, c = rows[:, [1, 0]], cols[:, [1, 0]]
    expected = _gram_reference(r, c, INDICATOR_FIRST)
    assert np.array_equal(gram(r, c, INDICATOR_FIRST), expected)


def test_gram_rows_span_blocks_of_uneven_height():
    rng = np.random.default_rng(37)
    n = 300
    height = kernels._BLOCK_BYTES // (8 * n)
    assert 1 < height < n and n % height != 0
    s = _mixed_sample(rng, n)
    assert np.array_equal(gram(s, s, MIXED), _gram_reference(s, s, MIXED))


def test_gram_symmetry_is_bitwise():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(40, 3))
    g = gram(a, a, KernelSpec.gaussian([1.0, 0.5, 2.0]))
    assert np.array_equal(g, g.T)
    assert np.array_equal(np.diag(g), np.ones(40))
    # above one block of rows, with an indicator column
    s = _mixed_sample(rng, 700)
    assert 700 > kernels._BLOCK_BYTES // (8 * 700)
    g = gram(s, s, MIXED)
    assert np.array_equal(g, g.T)


def test_gram_is_psd_and_bounded():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(30, 2))
    g = gram(a, a, KernelSpec.gaussian([0.6, 1.1]))
    assert np.all(g >= 0.0) and np.all(g <= 1.0)
    assert np.linalg.eigvalsh(g).min() > -1e-10


def test_gram_product_rule():
    # the product over all columns, one exp per entry, against the
    # product of the one-column Grams: Gaussian, indicator and interleaved
    rng = np.random.default_rng(19)
    interleaved = KernelSpec((ColumnKernel("gaussian", 0.9), ColumnKernel("indicator"),
                              ColumnKernel("gaussian", 1.4), ColumnKernel("indicator")))
    for spec in (KernelSpec.gaussian([0.9, 1.4]), KernelSpec.indicator(3), interleaved):
        a = rng.normal(size=(12, spec.dim))
        for j, ck in enumerate(spec.columns):
            if ck.family == "indicator":
                a[:, j] = rng.integers(0, 2, 12)
        both = gram(a, a, spec)
        factors = np.ones_like(both)
        for j, ck in enumerate(spec.columns):
            factors *= gram(a[:, j], a[:, j], KernelSpec((ck,)))
        np.testing.assert_allclose(both, factors, rtol=1e-15)


def test_gram_mixed_indicator_column():
    a = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0]])
    spec = KernelSpec(
        (ColumnKernel("indicator"), ColumnKernel("gaussian", 1.0))
    )
    g = gram(a, a, spec)
    assert g[0, 2] == 0.0  # codes differ, product vanishes
    assert g[0, 1] == pytest.approx(0.6065306597126334, rel=1e-15)


def test_spec_from_data_overrides_and_flags():
    arr = np.array([[0.0, 5.0], [1.0, 6.0], [0.0, 9.0]])
    spec = spec_from_data(arr, categorical=[True, False], lengthscales=[None, 2.5])
    assert spec.columns[0].family == "indicator"
    assert spec.columns[1].lengthscale == 2.5
    auto = spec_from_data(arr[:, 1:])
    assert auto.columns[0].lengthscale == median_gap(arr[:, 1])
    # the indicator kernel has no scale; an override there would be dropped
    with pytest.raises(InputError, match="column 0 is categorical"):
        spec_from_data(arr, categorical=[True, False], lengthscales=[0.5, None])


def test_spec_validation():
    with pytest.raises(InputError):
        ColumnKernel("gaussian", None)
    with pytest.raises(InputError):
        ColumnKernel("indicator", 1.0)
    with pytest.raises(InputError):
        KernelSpec(())
    with pytest.raises(InputError):
        gram(np.ones((3, 2)), np.ones((3, 1)), KernelSpec.gaussian([1.0]))
