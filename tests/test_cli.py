"""Command line behavior: exit codes, outputs, manifests, precedence."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from kernelnc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from kernelnc.data import write_dataset_csv
from kernelnc.effects import EffectRequest, TuningPlan, run_end_to_end
from kernelnc.simlab import SimDesign, generate, run_experiment


def _write_config(path, body):
    path.write_text(yaml.safe_dump(body))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


FORCED = {"mode": "forced", "lam": 0.05, "xi": 0.02}
ROLES = {"y": "yy", "d": "dd", "x": ["x1"], "z": ["zz"], "w": ["ww"]}


def test_config_file_errors(tmp_path, capsys):
    assert main(["estimate", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unclosed\n")
    assert main(["estimate", "--config", str(bad)]) == EXIT_CONFIG
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    assert main(["estimate", "--config", str(listy)]) == EXIT_CONFIG
    unknown = _write_config(tmp_path / "unk.yaml", {"estimate": {"spline": 3}})
    assert main(["estimate", "--config", unknown]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "estimate.spline" in err


def test_config_semantic_errors(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.yaml",
        {"data": {"path": "x.csv", "simulate": {"design": "quadratic"}}},
    )
    assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
    no_source = _write_config(tmp_path / "n.yaml", {})
    assert main(["estimate", "--config", no_source]) == EXIT_CONFIG
    capsys.readouterr()
    # the kinds are checked by the constructors the CLI builds from them
    bad_effect = _write_config(
        tmp_path / "e.yaml",
        {"data": {"simulate": {}}, "estimate": {"effect": "dose"}},
    )
    assert main(["estimate", "--config", bad_effect]) == EXIT_CONFIG
    assert "unknown effect kind 'dose'" in capsys.readouterr().err
    bad_design = _write_config(
        tmp_path / "d.yaml", {"data": {"simulate": {"design": "wavy"}}}
    )
    assert main(["estimate", "--config", bad_design]) == EXIT_CONFIG
    assert "unknown design kind 'wavy'" in capsys.readouterr().err
    bad_forced = _write_config(
        tmp_path / "f.yaml",
        {"data": {"simulate": {}}, "tuning": {"mode": "forced", "lam": -1.0}},
    )
    assert main(["estimate", "--config", bad_forced]) == EXIT_CONFIG
    both = _write_config(tmp_path / "b.yaml", {})
    assert main(
        ["estimate", "--config", both, "--from-manifest", both]
    ) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("estimate", {"tuning": {"mode": "forced", "lam": "abc"}}, "tuning.lam"),
        ("estimate", {"tuning": {"c0": "smooth"}}, "tuning.c0"),
        ("estimate", {"tuning": {"grid": [1e-3, "abc"]}}, "tuning.grid"),
        ("tune", {"tuning": {"grid": [1e-3, "abc"]}}, "tuning.grid"),
        ("simulate", {"simulate": {"n": "many"}}, "simulate.n"),
        ("simulate", {"simulate": {"replicates": "all"}}, "simulate.replicates"),
        ("estimate", {"data": {"simulate": {"replicate": "first"}}},
         "data.simulate.replicate"),
        ("estimate", {"seed": "lucky"}, "seed"),
        ("estimate", {"estimate": {"grid_size": "ten"}}, "estimate.grid_size"),
        ("estimate", {"kernels": {"lengthscales": {"x1": "wide"}}},
         "kernels.lengthscales.x1"),
        ("estimate", {"tuning": {"c0": None}}, "tuning.c0"),
    ],
)
def test_non_numeric_config_value_is_a_config_error(
    tmp_path, capsys, command, body, key
):
    body = {"output_dir": str(tmp_path / "out"), **body}
    body.setdefault("data", {"simulate": {}})
    cfg = _write_config(tmp_path / "c.yaml", body)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert f"configuration error: {key} must be numeric" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("estimate", {"tuning": 5}, "tuning must be a mapping"),
        ("tune", {"tuning": [0.1]}, "tuning must be a mapping"),
        ("estimate", {"estimate": [1, 2]}, "estimate must be a mapping"),
        ("estimate", {"data": {"roles": "y"}}, "data.roles must be a mapping"),
        ("estimate", {"kernels": {"lengthscales": 3}}, "kernels.lengthscales must be a mapping"),
        ("estimate", {"data": {"simulate": 7}}, "data.simulate must be a mapping"),
        ("simulate", {"simulate": {"n": 40, "estimators": "nc"}},
         "simulate.estimators must be a list"),
        ("simulate", {"simulate": {"n": 40, "estimators": []}},
         "simulate.estimators must name one or more estimators, each once"),
        ("simulate", {"simulate": {"n": 40, "estimators": ["nc", "nc"]}},
         "simulate.estimators must name one or more estimators, each once"),
        ("simulate", {"simulate": {"n": 40, "strict": "no"}},
         "simulate.strict must be true or false, got 'no'"),
        ("simulate", {"seed": -1, "simulate": {"n": 40}}, "seed must be >= 0, got -1"),
        ("estimate", {"seed": -1}, "seed must be >= 0, got -1"),
        ("estimate", {"data": {"simulate": {"n": 40, "replicate": -2}}},
         "data.simulate.replicate must be >= 0, got -2"),
        ("estimate", {"data": {"path": "x.csv", "roles": {**ROLES, "z": "zz"}}},
         "data.roles.z must be a list of names, got 'zz'"),
        ("estimate", {"data": {"path": "x.csv", "roles": {**ROLES, "x": []}}},
         "data.roles.x must name at least one column"),
        ("estimate", {"data": {"path": "x.csv", "roles": {**ROLES, "y": None}}},
         "data.roles.y must be a column name, got None"),
        ("estimate", {"data": {"path": "x.csv", "roles": ROLES, "categorical": "dd"}},
         "data.categorical must be a list of names, got 'dd'"),
        ("estimate", {"data": {"path": "x.csv", "roles": ROLES,
                               "categorical": ["treatment"]}},
         "data.categorical names columns that no role assigns: ['treatment']"),
        ("estimate", {"estimate": {"effect": "ds", "alt_population": {
            "path": "p.csv", "x": "x1", "w": ["w"]}}},
         "estimate.alt_population.x must be a list of names, got 'x1'"),
    ],
)
def test_misshapen_config_section_is_a_config_error(
    tmp_path, capsys, command, body, message
):
    # a section of the wrong type names its key instead of failing with
    # a traceback, and a string is not iterated as a list of estimators;
    # no output file is written
    body = {"output_dir": str(tmp_path / "out"), **body}
    body.setdefault("data", {"simulate": {"n": 40}})
    cfg = _write_config(tmp_path / "c.yaml", body)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("simulate", {"simulate": {"n": 60.9}}, "simulate.n"),
        ("simulate", {"simulate": {"n": 40, "replicates": 1.7}},
         "simulate.replicates"),
        ("simulate", {"simulate": {"n": 40, "dim_z": 1.5}}, "simulate.dim_z"),
        ("estimate", {"data": {"simulate": {"n": 40, "dim_x": 2.5}}},
         "simulate.dim_x"),
        ("estimate", {"data": {"simulate": {"n": 40, "replicate": 0.5}}},
         "data.simulate.replicate"),
        ("estimate", {"seed": 1.5}, "seed"),
        ("estimate", {"estimate": {"grid_size": 10.5}}, "estimate.grid_size"),
        ("simulate", {"simulate": {"n": 40}, "workers": 2.7}, "workers"),
        ("simulate", {"simulate": {"n": 40.0}}, "simulate.n"),
        ("estimate", {"estimate": {"grid_size": "5"}}, "estimate.grid_size"),
    ],
)
def test_non_integral_config_value_is_a_config_error(
    tmp_path, capsys, command, body, key
):
    # an integer setting is never truncated: 60.9 is not silently 60, and
    # it takes an integer, not an integral float or a numeric string
    body = {"output_dir": str(tmp_path / "out"), **body}
    body.setdefault("data", {"simulate": {"n": 40}})
    cfg = _write_config(tmp_path / "c.yaml", body)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert f"configuration error: {key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tuning, name",
    [
        ({"lam": 0.5, "xi": 0.5}, "lam"),
        ({"xi": 0.5}, "xi"),
        ({"mode": "theoretical", "lam1": 0.1}, "lam1"),
        ({"mode": "theoretical", "lam2": 0.1}, "lam2"),
    ],
)
def test_penalty_outside_forced_mode_is_a_config_error(tmp_path, capsys, tuning, name):
    # only mode 'forced' uses penalty values; elsewhere they would be ignored
    cfg = _write_config(
        tmp_path / "c.yaml",
        {"output_dir": str(tmp_path / "out"), "data": {"simulate": {"n": 40}},
         "tuning": tuning},
    )
    assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
    assert f"configuration error: penalty {name} is set" in capsys.readouterr().err


def test_forced_penalty_is_checked_by_the_tuning_plan(tmp_path, capsys):
    # the CLI accepts the forced penalties TuningPlan accepts: 0 fits and
    # is written as such, a negative value is TuningPlan's config error
    def estimate(name, lam):
        cfg = _write_config(tmp_path / f"{name}.yaml", {
            "output_dir": str(tmp_path / name), "data": {"simulate": {"n": 60}},
            "estimate": {"grid": [0.2, 0.5, 0.8]},
            "tuning": {"mode": "forced", "lam": lam, "xi": 0.02},
        })
        return main(["estimate", "--config", cfg])

    assert estimate("zero", 0.0) == EXIT_OK
    rows = _read_csv(tmp_path / "zero" / "curve.csv")
    assert rows[0][5] == "lambda" and {float(row[5]) for row in rows[1:]} == {0.0}
    assert json.loads((tmp_path / "zero" / "manifest.json").read_text())[
        "results"]["lambda"] == 0.0
    capsys.readouterr()
    assert estimate("negative", -1.0) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error: tuning.lam must be >= 0, got -1.0" in err


@pytest.mark.parametrize(
    "tuning, name",
    [({"mode": "theoretical", "c0": 5}, "c0"), ({"c0": 5, "c1": 0.1}, "c0"),
     ({"mode": "forced", "c2": 1.0}, "c2")],
)
def test_smoothness_outside_its_range_is_a_config_error(tmp_path, capsys, tuning, name):
    # every mode checks c0, c, c1 and c2 against (1, 2], not only the
    # theoretical schedule that reads them
    cfg = _write_config(
        tmp_path / "c.yaml",
        {"output_dir": str(tmp_path / "out"), "data": {"simulate": {"n": 40}},
         "tuning": tuning},
    )
    assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: smoothness {name} must lie in (1, 2]" in err


@pytest.mark.parametrize(
    "tuning, message",
    [({"mode": "bogus"}, "unknown tuning mode 'bogus'"),
     ({"mode": "forced", "lam": "abc"}, "tuning.lam"),
     ({"c0": 7}, "smoothness c0 must lie in (1, 2]"),
     ({"grid": 0.1}, "tuning grid must be a non-empty 1-D array"),
     ({"grid": []}, "tuning grid must be a non-empty 1-D array"),
     ({"grid": [0.1, -1]}, "tuning grid candidates must be finite and positive"),
     ({"grid": [[0.1, 1.0]]}, "tuning grid must be a non-empty 1-D array"),
     ({"grid": [0.1, 0.1, 1.0]}, "tuning grid candidates must be distinct")],
)
def test_tune_rejects_the_tuning_section_that_estimate_rejects(
    tmp_path, capsys, tuning, message
):
    # tune applies only the grid from the plan, but both commands check
    # the whole section as configuration before they load any data
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {"output_dir": str(out), "data": {"simulate": {"n": 40}}, "tuning": tuning},
    )
    for command in ("estimate", "tune"):
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("grid", [[], [[0.1, 0.2], [0.3, 0.4]]])
def test_bad_estimate_grid_is_a_config_error(tmp_path, capsys, grid):
    # checked with the request, before any data is loaded; a nested grid
    # is not flattened into a longer curve
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {"output_dir": str(out), "data": {"simulate": {"n": 40}},
         "estimate": {"grid": grid}},
    )
    for command in ("estimate", "tune"):
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: explicit grid must be non-empty, finite and at most 1-D" in err
        assert not (out / "manifest.json").exists()


def test_lengthscale_on_a_categorical_column_is_a_runtime_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "output_dir": str(tmp_path / "out"),
            "data": {"simulate": {"design": "discrete", "n": 40}},
            "kernels": {"lengthscales": {"d": 0.5}},
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "step 1 (kernel selection)" in err and "is categorical" in err


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("simulate", {"simulate": {"n": float("inf")}}, "simulate.n"),
        ("simulate", {"simulate": {"n": 10**400}}, "simulate.n"),
        ("estimate", {"tuning": {"mode": "forced", "lam": float("inf")}},
         "tuning.lam"),
        ("estimate", {"tuning": {"grid": [1e-3, float("nan")]}}, "tuning.grid"),
        ("estimate", {"estimate": {"effect": "att", "d_value": float("nan")}},
         "estimate.d_value"),
        ("estimate", {"estimate": {"effect": "cate", "v_value": [float("inf")]}},
         "estimate.v_value"),
        ("estimate", {"seed": float("inf")}, "seed"),
        ("estimate", {"kernels": {"lengthscales": {"x1": float("nan")}}},
         "kernels.lengthscales.x1"),
    ],
)
def test_non_finite_config_value_is_a_config_error(
    tmp_path, capsys, command, body, key
):
    body = {"output_dir": str(tmp_path / "out"), **body}
    body.setdefault("data", {"simulate": {}})
    cfg = _write_config(tmp_path / "c.yaml", body)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert f"configuration error: {key} must be finite" in capsys.readouterr().err


def test_bad_worker_count_is_a_config_error(tmp_path, capsys):
    # a count below 1 is refused like simulate.replicates, never read as 1
    for workers, message in [
        ("abc", "workers must be numeric, got 'abc'"),
        (2.7, "workers must be an integer, got 2.7"),
        (0, "workers must be >= 1, got 0"),
        (-3, "workers must be >= 1, got -3"),
    ]:
        cfg = _write_config(tmp_path / "c.yaml", {"workers": workers})
        argv = ["simulate", "--config", cfg, "--replicates", "1",
                "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err


def test_runtime_error_exit_code(tmp_path, capsys):
    # a constant covariate defeats the lengthscale heuristic at run time
    path = tmp_path / "flat.csv"
    path.write_text(
        "y,d,x,z,w\n" + "".join(f"{i / 7.0},{i / 3.0},7.0,{i},{i * 2}\n"
                                for i in range(12))
    )
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "output_dir": str(tmp_path / "out"),
            "data": {
                "path": str(path),
                "roles": {"y": "y", "d": "d", "x": ["x"], "z": ["z"], "w": ["w"]},
            },
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime error: step 1 (kernel selection): 'x' block: column 'x':" in err


def test_estimate_outputs_match_inprocess_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "seed": 11,
            "output_dir": str(out),
            "data": {"simulate": {"design": "quadratic", "n": 60}},
            "estimate": {"grid": [0.2, 0.5, 0.8]},
            "tuning": dict(FORCED),
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    assert "wrote" in capsys.readouterr().out

    rows = _read_csv(out / "curve.csv")
    assert rows[0] == ["d", "estimate", "estimator", "n", "m", "lambda", "xi",
                       "extra_penalty", "lengthscale_digest"]
    assert len(rows) == 4

    data = generate(SimDesign(kind="quadratic", n=60), seed=11)
    curve = run_end_to_end(
        data,
        EffectRequest("ate", grid=np.array([0.2, 0.5, 0.8])),
        TuningPlan(mode="forced", lam=0.05, xi=0.02),
    )
    for row, d, v in zip(rows[1:], curve.grid, curve.values):
        assert float(row[0]) == d and float(row[1]) == v

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["outputs"] == ["curve.csv"]
    assert manifest["config"]["seed"] == 11
    assert manifest["results"]["grid_points"] == 3
    assert manifest["results"]["lambda"] == 0.05


def test_lengthscale_overrides_from_config(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "seed": 4,
            "output_dir": str(out),
            "data": {"simulate": {"design": "quadratic", "n": 40}},
            "estimate": {"grid": [0.5]},
            "tuning": dict(FORCED),
            "kernels": {"lengthscales": {"x1": 0.7, "w": 1.5}},
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    curve = run_end_to_end(
        generate(SimDesign(kind="quadratic", n=40), seed=4),
        EffectRequest("ate", grid=np.array([0.5])),
        TuningPlan(mode="forced", lam=0.05, xi=0.02),
        lengthscales={"x1": 0.7, "w": 1.5},
    )
    row = _read_csv(out / "curve.csv")[1]
    assert float(row[1]) == curve.values[0]
    assert row[8] == curve.metadata["lengthscale_digest"]
    capsys.readouterr()


def test_estimate_from_csv_with_roles(tmp_path, capsys):
    data = generate(SimDesign(kind="quadratic", n=50, dim_x=2), seed=3)
    csv_path = tmp_path / "data.csv"
    write_dataset_csv(data, csv_path)
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "output_dir": str(tmp_path / "out"),
            "data": {
                "path": str(csv_path),
                "roles": {"y": "y", "d": "d", "x": ["x1", "x2"], "z": ["z"],
                          "w": ["w"]},
            },
            "estimate": {"grid_size": 5},
            "tuning": dict(FORCED),
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    assert len(_read_csv(tmp_path / "out" / "curve.csv")) == 6
    capsys.readouterr()


def test_estimate_ds_with_population_csv(tmp_path, capsys):
    pop = tmp_path / "pop.csv"
    pop.write_text("x1,x2,w\n0.1,0.0,0.2\n-0.4,0.3,0.1\n0.2,-0.2,0.0\n")
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "output_dir": str(tmp_path / "out"),
            "data": {"simulate": {"design": "quadratic", "n": 50, "dim_x": 2}},
            "estimate": {
                "effect": "ds",
                "grid": [0.3, 0.7],
                "alt_population": {"path": str(pop), "x": ["x1", "x2"],
                                   "w": ["w"]},
            },
            "tuning": dict(FORCED),
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["results"]["effect"] == "ds"
    capsys.readouterr()


def test_population_csv_with_non_finite_cells_is_a_config_error(tmp_path, capsys):
    pop = tmp_path / "pop.csv"
    pop.write_text("x1,x2,w\n0.1,nan,0.2\n-0.4,0.3,inf\n0.2,-0.2,0.0\n")
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "output_dir": str(tmp_path / "out"),
            "data": {"simulate": {"design": "quadratic", "n": 50, "dim_x": 2}},
            "estimate": {
                "effect": "ds",
                "grid": [0.3, 0.7],
                "alt_population": {"path": str(pop), "x": ["x1", "x2"],
                                   "w": ["w"]},
            },
            "tuning": dict(FORCED),
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "non-finite value 'nan' at row 2, column 'x2'" in err
    assert "non-finite value 'inf' at row 3, column 'w'" in err
    assert not (tmp_path / "out" / "curve.csv").exists()


def test_simulate_outputs_match_inprocess_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "seed": 5,
            "output_dir": str(out),
            "tuning": dict(FORCED),
            "simulate": {"design": "discrete", "n": 60, "replicates": 2},
        },
    )
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    assert "replicates" in capsys.readouterr().out

    reports = run_experiment(
        SimDesign(kind="discrete", n=60), 2, 5,
        tuning=TuningPlan(mode="forced", lam=0.05, xi=0.02),
    )
    rows = _read_csv(out / "replicates.csv")
    assert rows[0] == ["estimator", "replicate", "value"]
    by_est = {}
    for est, rep, value in rows[1:]:
        by_est.setdefault(est, {})[rep] = value
    for est in ("nc", "te"):
        want = reports[est]
        assert float(by_est[est]["0"]) == want.values[0]
        assert float(by_est[est]["1"]) == want.values[1]
        assert float(by_est[est]["mean"]) == want.mean
        assert float(by_est[est]["sd"]) == want.sd
        assert float(by_est[est]["mse"]) == want.mse

    agg = _read_csv(out / "aggregate.csv")
    assert agg[0] == ["estimator", "n", "replicates", "mean", "sd", "mse"]
    assert [r[0] for r in agg[1:]] == ["nc", "te"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["nc"]["mean"] == reports["nc"].mean
    assert manifest["results"]["metadata"]["design"] == "discrete"
    # run metadata reaches the manifest only, never the CSVs
    assert "blas" in manifest["results"]["metadata"]
    for name in ("replicates.csv", "aggregate.csv"):
        assert "blas" not in (out / name).read_text()


def test_flag_precedence_over_config(tmp_path, capsys):
    out = tmp_path / "flagged"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "seed": 1,
            "output_dir": str(tmp_path / "ignored"),
            "tuning": dict(FORCED),
            "simulate": {"design": "discrete", "n": 60, "replicates": 3},
        },
    )
    code = main([
        "simulate", "--config", cfg, "--seed", "7", "--output-dir", str(out),
        "--replicates", "2",
    ])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["simulate"]["replicates"] == 2
    assert manifest["config"]["output_dir"] == str(out)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["estimate", "tune"])
def test_workers_flag_is_simulate_only(command, capsys):
    # only simulate runs a worker pool; elsewhere the flag is unknown
    with pytest.raises(SystemExit) as exit_:
        main([command, "--workers", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_manifest_rerun_is_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "one"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "seed": 2,
            "output_dir": str(out1),
            "data": {"simulate": {"design": "quadratic", "n": 50}},
            "estimate": {"grid": [0.25, 0.75]},
            "tuning": dict(FORCED),
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    out2 = tmp_path / "two"
    assert main([
        "estimate", "--from-manifest", str(out1 / "manifest.json"),
        "--output-dir", str(out2),
    ]) == EXIT_OK
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    capsys.readouterr()


def test_tune_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "output_dir": str(out),
            "data": {"simulate": {"design": "quadratic", "n": 40}},
            "tuning": {"grid": [0.01, 0.1]},
        },
    )
    assert main(["tune", "--config", cfg]) == EXIT_OK
    rows = _read_csv(out / "tune.csv")
    assert rows[0] == ["hyperparameter", "candidate", "loss", "selected"]
    # an ate estimate tunes the bridge's two penalties and no embedding
    names = sorted({r[0] for r in rows[1:]})
    assert names == ["lam", "xi"]
    for name in names:
        picked = [r for r in rows[1:] if r[0] == name and r[3] == "1"]
        assert len(picked) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["results"]) == {"lam", "xi"}
    assert not (out / "curve.csv").exists()
    capsys.readouterr()


def test_tune_reports_the_selections_of_estimate(tmp_path, capsys):
    # tune reads the searches of the estimate's own pass, so an att config
    # reports lam, lam1 and xi with exactly the values estimate selects
    body = {
        "seed": 3,
        "data": {"simulate": {"design": "quadratic", "n": 40}},
        "estimate": {"effect": "att", "d_value": 0.5, "grid": [0.2, 0.8]},
        "tuning": {"grid": [0.001, 0.01, 0.1]},
    }
    for command in ("estimate", "tune"):
        out = {"output_dir": str(tmp_path / command)}
        cfg = _write_config(tmp_path / f"{command}.yaml", {**out, **body})
        assert main([command, "--config", cfg]) == EXIT_OK
    estimated = json.loads((tmp_path / "estimate" / "manifest.json").read_text())
    tuned = json.loads((tmp_path / "tune" / "manifest.json").read_text())
    assert tuned["results"] == {
        "lam": estimated["results"]["lambda"],
        "lam1": estimated["results"]["extra_penalty"],
        "xi": estimated["results"]["xi"],
    }
    rows = _read_csv(tmp_path / "tune" / "tune.csv")[1:]
    picked = {r[0]: float(r[1]) for r in rows if r[3] == "1"}
    assert picked == tuned["results"]
    assert "tuning" not in _read_csv(tmp_path / "estimate" / "curve.csv")[0]
    capsys.readouterr()


def test_estimate_manifest_results_are_the_constants_of_each_curve_row(tmp_path, capsys):
    # curve.csv repeats every run constant on each row, and the manifest's
    # results carry the same value under the same column name
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "seed": 3,
            "output_dir": str(out),
            "data": {"simulate": {"design": "quadratic", "n": 40}},
            "estimate": {"effect": "att", "d_value": 0.5, "grid": [0.2, 0.5, 0.8]},
            "tuning": {"grid": [0.001, 0.01, 0.1]},
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    header, *rows = _read_csv(out / "curve.csv")
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert header[:2] == ["d", "estimate"]
    assert set(results) == {*header[2:], "effect", "tuning_mode", "grid_points"}
    assert len(rows) == results["grid_points"] == 3
    assert isinstance(results["extra_penalty"], float)  # the tuned lam1
    for j, column in enumerate(header[2:], start=2):
        value = results[column]
        assert {type(value)(row[j]) for row in rows} == {value}, column
    capsys.readouterr()


def test_manifest_tuning_section_holds_the_tuning_plan_fields(tmp_path, capsys):
    # the tuning section's keys and defaults are TuningPlan's own, so a
    # default run records every field at its default
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "output_dir": str(out),
            "data": {"simulate": {"design": "quadratic", "n": 40}},
            "estimate": {"grid": [0.25, 0.75]},
        },
    )
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    tuning = json.loads((out / "manifest.json").read_text())["config"]["tuning"]
    plan = TuningPlan()
    assert tuning == {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
    capsys.readouterr()


def test_each_manifest_records_its_own_blas_thread_count(tmp_path):
    # results are byte-identical only at one BLAS thread count, so two
    # processes run with 1 and 2 OpenBLAS threads each record their own
    import kernelnc

    src = os.path.dirname(os.path.dirname(kernelnc.__file__))
    cpus = len(os.sched_getaffinity(0))
    for threads in (1, 2):
        out = tmp_path / str(threads)
        cfg = _write_config(
            tmp_path / f"{threads}.yaml",
            {
                "seed": 5,
                "output_dir": str(out),
                "tuning": dict(FORCED),
                "simulate": {"design": "discrete", "n": 60, "replicates": 1},
            },
        )
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=str(threads),
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        subprocess.run(
            [sys.executable, "-m", "kernelnc.cli", "simulate", "--config", cfg],
            env=env, capture_output=True, check=True, timeout=120,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        want = min(threads, cpus)
        assert manifest["blas"]["threads"] == want
        assert manifest["results"]["metadata"]["blas"]["threads"] == want
        assert manifest["blas"]["numpy"] and set(manifest["blas"]) == {"numpy", "threads"}


def test_pooled_workers_write_the_bytes_of_a_one_thread_serial_run(tmp_path):
    # at n=500 OpenBLAS splits products across its threads, so a worker
    # that inherited two threads would sum in another order; each pooled
    # worker runs at one, whatever the parent runs at, and the manifest
    # records that count, so a replay at one thread has nothing to warn of
    import kernelnc

    src = os.path.dirname(os.path.dirname(kernelnc.__file__))
    cfg = _write_config(
        tmp_path / "c.yaml",
        {"seed": 1, "simulate": {"design": "quadratic", "n": 500, "replicates": 4}},
    )

    def run(threads, *args):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=str(threads),
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        return subprocess.run(
            [sys.executable, "-m", "kernelnc.cli", "simulate", *args],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )

    for workers, threads in ((1, 1), (2, 2)):
        run(threads, "--config", cfg, "--workers", str(workers),
            "--output-dir", str(tmp_path / str(workers)))
    serial, pooled = (tmp_path / "1", tmp_path / "2")
    assert (pooled / "replicates.csv").read_bytes() == (serial / "replicates.csv").read_bytes()
    manifest = json.loads((pooled / "manifest.json").read_text())
    assert manifest["results"]["metadata"]["blas"]["threads"] == 1
    assert manifest["blas"] == manifest["results"]["metadata"]["blas"]
    replay = run(1, "--from-manifest", str(pooled / "manifest.json"),
                 "--output-dir", str(tmp_path / "replay"))
    assert replay.stderr == ""
    assert (tmp_path / "replay" / "replicates.csv").read_bytes() == (
        serial / "replicates.csv"
    ).read_bytes()


def test_replay_reports_a_blas_thread_count_the_manifest_did_not_record(tmp_path):
    # a manifest written at 1 OpenBLAS thread and replayed at 2 names both
    # environments on stderr; a replay at the recorded count prints nothing
    import kernelnc

    src = os.path.dirname(os.path.dirname(kernelnc.__file__))
    cpus = len(os.sched_getaffinity(0))
    first = tmp_path / "first"
    cfg = _write_config(
        tmp_path / "c.yaml",
        {
            "seed": 2,
            "output_dir": str(first),
            "data": {"simulate": {"design": "quadratic", "n": 50}},
            "estimate": {"grid": [0.25, 0.75]},
            "tuning": dict(FORCED),
        },
    )
    manifest = first / "manifest.json"

    def run(threads, *args):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=str(threads),
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        return subprocess.run(
            [sys.executable, "-m", "kernelnc.cli", "estimate", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    assert run(1, "--config", cfg).returncode == EXIT_OK
    for threads in (1, 2):
        out = tmp_path / str(threads)
        done = run(threads, "--from-manifest", str(manifest), "--output-dir", str(out))
        assert done.returncode == EXIT_OK
        assert (out / "curve.csv").read_bytes() == (first / "curve.csv").read_bytes()
        if min(threads, cpus) == 1:
            assert done.stderr == ""
        else:
            [warning] = done.stderr.splitlines()
            assert warning.startswith("warning:")
            assert '"threads": 1' in warning and f'"threads": {min(threads, cpus)}' in warning
