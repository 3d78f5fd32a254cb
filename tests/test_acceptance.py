"""End-to-end acceptance checks with pinned tolerances and time budgets.

Every test prints one PASS/FAIL line before asserting, so a verbose run
reads as a checklist. The Monte Carlo criteria (4 and 5) dominate the
runtime at a few minutes each; criterion 4's n=5000 rows only run when
KERNELNC_ACCEPT_N5000=1.
"""

import json
import os
import time

import numpy as np
import yaml

from kernelnc.cli import main
from kernelnc.data import from_arrays
from kernelnc.effects import EffectRequest, TuningPlan, kernel_specs, run_end_to_end
from kernelnc.kernels import KernelSpec, gram
from kernelnc.ridge import RidgeSystem, gram_factor
from kernelnc.simlab import SimDesign, run_experiment

import oracle_dense as od


def _report(capsys, criterion: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    # bypass capture so a plain -v run still shows the checklist
    with capsys.disabled():
        print(f"[acceptance] criterion {criterion}: {verdict} ({detail})",
              flush=True)
    return ok


def _rand_gram(rng, n, cols=2):
    pts = rng.normal(size=(n, cols))
    scales = rng.uniform(0.5, 2.0, size=cols)
    return gram(pts, pts, KernelSpec.gaussian(scales))


def test_criterion_1_scalar_loocv_matches_brute_force(capsys):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 41))
        K = _rand_gram(rng, n, cols=int(rng.integers(1, 4)))
        y = rng.normal(size=n)
        grid = np.sort(rng.uniform(1e-4, 10.0, size=5))
        fast = RidgeSystem(K.copy()).loo(y, grid).losses
        slow = od.loo_scalar_losses(K, y, grid)
        worst = max(worst, float(np.max(np.abs(fast - slow) / slow)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _report(capsys, "1", ok, f"max rel err {worst:.2e} over 50 instances, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_2_embedding_loocv_matches_brute_force(capsys):
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        K_in = _rand_gram(rng, n)
        K_out = _rand_gram(rng, n, cols=3)
        grid = np.sort(rng.uniform(1e-4, 10.0, size=5))
        fast = RidgeSystem(K_in.copy()).loo(gram_factor(np.array(K_out)), grid).losses
        slow = od.loo_embedding_losses(K_in, K_out, grid)
        worst = max(worst, float(np.max(np.abs(fast - slow) / slow)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(capsys, "2", ok, f"max rel err {worst:.2e} over 50 instances, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def _curve_gap(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-12))


def test_criterion_3_bridge_and_effects_match_dense_oracle(capsys):
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 41))
        data = from_arrays(
            rng.normal(size=n), rng.normal(size=n), rng.normal(size=(n, 2)),
            rng.normal(size=n), rng.normal(size=n), rng.normal(size=n),
        )
        lam, xi = rng.uniform(0.01, 0.5, size=2)
        lam1, lam2 = rng.uniform(0.01, 0.5, size=2)
        plan = TuningPlan("forced", lam=lam, xi=xi, lam1=lam1, lam2=lam2)
        scales = {
            r: od.block_scales(data.block(r)) for r in ("d", "x", "z", "w", "v")
        }
        fit = od.fit_dense(
            data.block("d"), data.block("x"), data.block("z"), data.block("w"),
            data.y, scales, lam, xi, v=data.block("v"),
        )
        d_col = data.block("d")[:, 0]
        grid = np.linspace(d_col.min(), d_col.max(), 5)
        alt_x = rng.normal(size=(8, 2))
        alt_w = rng.normal(size=(8, 1))
        alt_v = rng.normal(size=(8, 1))
        d_value = float(np.median(d_col))
        v_value = float(data.block("v")[0, 0])

        def nc(kind, **query):
            request = EffectRequest(kind, grid=grid, **query)
            return run_end_to_end(data, request, plan).values

        pairs = [
            (nc("ate"), od.ate_curve(fit, grid)),
            (
                nc("ds", alt_x=alt_x, alt_w=alt_w, alt_v=alt_v),
                od.ds_curve(fit, grid, alt_x, alt_w, alt_v),
            ),
            (nc("att", d_value=d_value), od.att_curve(fit, grid, d_value, lam1)),
            (nc("cate", v_value=v_value), od.cate_curve(fit, grid, v_value, lam2)),
        ]
        worst = max(worst, max(_curve_gap(g, w) for g, w in pairs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(capsys, "3", ok, f"max rel err {worst:.2e} over 20 instances, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


# Target means for the binary-treatment study at the three small sample
# sizes, and the measured tolerance each estimator must hit.
TABLE_TARGETS = {100: (2.61, 3.07), 500: (2.59, 2.62), 1000: (2.55, 2.42)}


def test_criterion_4_discrete_design_means(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for n, (te_target, nc_target) in TABLE_TARGETS.items():
        reports = run_experiment(SimDesign(kind="discrete", n=n),
                                 replicates=100, seed=314159)
        te_gap = abs(reports["te"].mean - te_target)
        nc_gap = abs(reports["nc"].mean - nc_target)
        ok = ok and te_gap <= 0.10 and nc_gap <= 0.15
        details.append(
            f"n={n} te {reports['te'].mean:.3f} (target {te_target}, "
            f"gap {te_gap:.3f}) nc {reports['nc'].mean:.3f} "
            f"(target {nc_target}, gap {nc_gap:.3f})"
        )
    if os.environ.get("KERNELNC_ACCEPT_N5000") == "1":
        reports = run_experiment(SimDesign(kind="discrete", n=5000),
                                 replicates=25, seed=314159)
        te_gap = abs(reports["te"].mean - 2.42)
        nc_gap = abs(reports["nc"].mean - 1.99)
        ok = ok and te_gap <= 0.15 and nc_gap <= 0.15
        details.append(
            f"n=5000 te {reports['te'].mean:.3f} nc {reports['nc'].mean:.3f}"
        )
    else:
        details.append("n=5000 skipped (set KERNELNC_ACCEPT_N5000=1)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    _report(capsys, "4", ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok, "; ".join(details)


def test_criterion_5_qualitative_mse_orderings(capsys):
    t0 = time.perf_counter()
    medians = {}
    for kind in ("quadratic", "no_confounding"):
        reports = run_experiment(SimDesign(kind=kind, n=1000),
                                 replicates=50, seed=271828)
        medians[kind] = {
            est: float(np.median(reports[est].values)) for est in ("nc", "te")
        }
    elapsed = time.perf_counter() - t0
    quad = medians["quadratic"]
    none = medians["no_confounding"]
    ok_quad = quad["nc"] < quad["te"]
    ok_none = none["te"] <= none["nc"]
    ok = ok_quad and ok_none and elapsed < 1200.0
    _report(
        capsys,
        "5",
        ok,
        f"quadratic median MSE nc {quad['nc']:.4f} vs te {quad['te']:.4f}; "
        f"no-confounding te {none['te']:.4f} vs nc {none['nc']:.4f}; "
        f"{elapsed:.0f}s",
    )
    assert elapsed < 1200.0
    assert ok_quad, (
        f"confounded quadratic design: negative-control median MSE "
        f"{quad['nc']:.4f} must undercut the baseline's {quad['te']:.4f}"
    )
    assert ok_none, (
        f"no-confounding design: baseline median MSE {none['te']:.4f} must "
        f"not exceed the negative-control estimator's {none['nc']:.4f}"
    )


def test_criterion_6_discrete_v_cate_equals_subset_ate(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    n = 200
    v = rng.integers(0, 3, size=n).astype(float)
    data = from_arrays(
        rng.normal(size=n), rng.normal(size=n), rng.normal(size=(n, 2)),
        rng.normal(size=n), rng.normal(size=n), v, v_categorical=True,
    )
    specs = kernel_specs(data)
    # the subgroup refit keeps the full sample's Gaussian lengthscales
    lengthscales = {
        name: column.lengthscale
        for role, spec in specs.items()
        for name, column in zip(data.names(role), spec.columns)
        if column.lengthscale is not None
    }
    lam, xi = 0.1, 0.05
    grid = np.linspace(-1.0, 1.0, 5)
    worst = 0.0
    for code in (0.0, 1.0, 2.0):
        request = EffectRequest("cate", grid=grid, v_value=code)
        plan = TuningPlan("forced", lam=lam, xi=xi, lam2=1e-9)
        cate = run_end_to_end(data, request, plan)
        mask = data.block("v")[:, 0] == code
        sub = data.subset(mask)
        # the subgroup refit must keep the same absolute ridge, so the
        # per-sample penalties scale by n / n_c
        scale = n / sub.n
        sub_plan = TuningPlan("forced", lam=lam * scale, xi=xi * scale)
        ate = run_end_to_end(
            sub, EffectRequest("ate", grid=grid), sub_plan, lengthscales=lengthscales
        )
        worst = max(worst, float(np.max(np.abs(cate.values - ate.values))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report(capsys, "6", ok, f"max abs gap {worst:.2e} over 3 categories, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_7_invariant_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)

    pts = rng.normal(size=(35, 3))
    K = gram(pts, pts, KernelSpec.gaussian([0.8, 1.2, 0.6]))
    sym = np.array_equal(K, K.T)
    psd = float(np.linalg.eigvalsh(K).min()) > -1e-10
    bounded = bool(np.all((K >= 0.0) & (K <= 1.0)))

    sep = np.linspace(0.0, 42.0, 15)[:, None]
    K_sep = gram(sep, sep, KernelSpec.gaussian([1.0]))
    y = rng.normal(size=15)
    interp = float(np.max(np.abs(K_sep.T @ RidgeSystem(K_sep).solve(15 * 1e-12, y) - y)))

    y2 = rng.normal(size=35)
    norms = [float(np.linalg.norm(RidgeSystem(K).solve(35 * lam, y2)))
             for lam in (1e-3, 1e-1, 1e1)]
    shrinks = norms[0] > norms[1] > norms[2]

    data = from_arrays(
        rng.normal(size=20), rng.normal(size=20), rng.normal(size=(20, 2)),
        rng.normal(size=20), rng.normal(size=20),
    )
    plan = TuningPlan("forced", lam=0.05, xi=0.02)
    grid = np.linspace(-1.0, 1.0, 6)
    ds = EffectRequest("ds", grid=grid, alt_x=data.block("x"), alt_w=data.block("w"))
    ds_is_ate = np.array_equal(
        run_end_to_end(data, EffectRequest("ate", grid=grid), plan).values,
        run_end_to_end(data, ds, plan).values,
    )

    theory = TuningPlan("theoretical").penalties(10000)
    spots = (
        abs(theory["lam1"] - 0.0464159) < 1e-6
        and theory["lam"] == theory["lam1"]
        and abs(theory["xi"] - 0.5411695265464637) < 1e-12
    )

    elapsed = time.perf_counter() - t0
    checks = {
        "gram symmetry": sym, "gram psd": psd, "gram bounded": bounded,
        f"interpolation gap {interp:.1e}": interp < 1e-4,
        "ridge shrinkage": shrinks, "ds equals ate bitwise": ds_is_ate,
        "schedule spot values": spots,
    }
    ok = all(checks.values()) and elapsed < 30.0
    _report(capsys, "7", ok, ", ".join(f"{k}={'ok' if v else 'BAD'}"
                               for k, v in checks.items()) + f"; {elapsed:.1f}s")
    assert all(checks.values()), checks
    assert elapsed < 30.0


def test_criterion_8_manifest_reruns_are_byte_identical(tmp_path, capsys):
    t0 = time.perf_counter()
    sim_cfg = tmp_path / "sim.yaml"
    sim_cfg.write_text(yaml.safe_dump({
        "seed": 17,
        "output_dir": str(tmp_path / "sim1"),
        "simulate": {"design": "discrete", "n": 60, "replicates": 2},
    }))
    assert main(["simulate", "--config", str(sim_cfg)]) == 0
    assert main([
        "simulate", "--from-manifest", str(tmp_path / "sim1" / "manifest.json"),
        "--output-dir", str(tmp_path / "sim2"),
    ]) == 0

    est_cfg = tmp_path / "est.yaml"
    est_cfg.write_text(yaml.safe_dump({
        "seed": 17,
        "output_dir": str(tmp_path / "est1"),
        "data": {"simulate": {"design": "quadratic", "n": 60}},
        "estimate": {"grid_size": 9},
    }))
    assert main(["estimate", "--config", str(est_cfg)]) == 0
    assert main([
        "estimate", "--from-manifest", str(tmp_path / "est1" / "manifest.json"),
        "--output-dir", str(tmp_path / "est2"),
    ]) == 0

    same = {
        "replicates.csv": (tmp_path / "sim1" / "replicates.csv").read_bytes()
        == (tmp_path / "sim2" / "replicates.csv").read_bytes(),
        "aggregate.csv": (tmp_path / "sim1" / "aggregate.csv").read_bytes()
        == (tmp_path / "sim2" / "aggregate.csv").read_bytes(),
        "curve.csv": (tmp_path / "est1" / "curve.csv").read_bytes()
        == (tmp_path / "est2" / "curve.csv").read_bytes(),
    }
    manifest = json.loads((tmp_path / "est1" / "manifest.json").read_text())
    elapsed = time.perf_counter() - t0
    ok = all(same.values()) and manifest["config"]["seed"] == 17
    _report(capsys, "8", ok, ", ".join(f"{k}={'same' if v else 'DIFFERS'}"
                               for k, v in same.items()) + f"; {elapsed:.1f}s")
    assert all(same.values()), same
