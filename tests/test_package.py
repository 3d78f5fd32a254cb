"""The public export list of the package, what importing it loads, the
constructors' argument checks, how records holding arrays compare, and
the README's Python quick start and Layout block."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import kernelnc
from kernelnc import cli
from kernelnc.data import Dataset, Schema
from kernelnc.effects import EffectCurve, EffectRequest, TuningPlan
from kernelnc.errors import KernelncError
from kernelnc.ridge import RidgeSystem, TuneReport
from kernelnc.simlab import ReplicateReport, SimDesign, generate


def test_every_exported_name_resolves_once():
    names = kernelnc.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(kernelnc, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from kernelnc import *", namespace)
    assert set(kernelnc.__all__) <= set(namespace)


# The keyword arguments of a valid instance of each checked constructor.
VALID = {
    TuningPlan: {"mode": "forced"},
    EffectRequest: {"kind": "att", "d_value": 0.5},
    SimDesign: {},
    Schema: {"y": "y", "d": "d", "x": ("x",), "z": ("z",), "w": ("w",)},
    TuneReport: {"grid": [0.1, 1.0], "losses": [0.5, 0.4]},
    RidgeSystem: {"kernel": np.eye(2)},
}


@pytest.mark.parametrize("value", [None, "abc", float("nan"), 1.5, [], [[1, 2]]])
@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_constructors_raise_only_package_errors(cls, value):
    # any value in any field is either stored or refused as a KernelncError,
    # never a bare TypeError or ValueError from deeper down
    for field in filter(lambda f: f.init, dataclasses.fields(cls)):
        try:
            cls(**{**VALID[cls], field.name: value})
        except KernelncError:
            pass


# Builds two equal-valued instances of each record that holds arrays.
RECORDS = {
    TuningPlan: lambda: TuningPlan(grid=[1, 2]),
    EffectCurve: lambda: EffectCurve([0.0, 1.0], [1.0, 2.0], "nc"),
    TuneReport: lambda: TuneReport(np.array([1.0, 2.0]), np.array([0.5, 0.25])),
    ReplicateReport: lambda: ReplicateReport("nc", np.arange(2), np.ones(2), 1.0, 0.0, 0.0),
    RidgeSystem: lambda: RidgeSystem(np.eye(2)),
    Dataset: lambda: generate(SimDesign(n=20), 1),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_holding_arrays_compare_and_hash_by_identity(cls):
    # == and hash never reach an array's ambiguous truth value or its
    # unhashable type: each record is equal only to itself
    a, twin = RECORDS[cls](), RECORDS[cls]()
    assert a == a and a != twin
    assert hash(a) == hash(a) and len({a, twin}) == 2


def _env():
    src = os.path.dirname(os.path.dirname(kernelnc.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_import_loads_no_scipy_module():
    # the runtime needs numpy alone: scipy costs about 0.3 s of every
    # fresh process and loads a second BLAS with its own thread pool
    code = (
        "import sys, kernelnc; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_readme_python_quick_start_runs():
    # the README's first example runs as printed, so an API change that
    # breaks it fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Quick start (Python)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr


def test_cli_runs_with_scipy_unimportable(tmp_path):
    # a forced estimate (the Cholesky route, three substitution blocks),
    # a tuned att estimate (its full-rank output Gram at n = 150 takes
    # gram_factor's dense Cholesky) and a two-replicate simulation
    estimate = {"data": {"simulate": {"n": 150}}, "estimate": {"grid_size": 5}}
    runs = {
        "estimate": {**estimate, "tuning": {"mode": "forced", "lam": 0.05, "xi": 0.02}},
        "estimate_att": {**estimate, "estimate": {"effect": "att", "d_value": 0.5,
                                                  "grid_size": 5}},
        "simulate": {"simulate": {"n": 60, "replicates": 2}, "workers": 1},
    }
    argvs = []
    for name, body in runs.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump({**body, "output_dir": str(tmp_path / name)}))
        argvs.append([name.split("_")[0], "--config", str(cfg)])
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy raises ImportError\n"
        "from kernelnc.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0, 0, 0], out.stderr


def test_readme_layout_names_every_module():
    # the Layout block lists each module of the package once, and no
    # module that is gone
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Layout", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\S+)", block, flags=re.MULTILINE)
    package = Path(kernelnc.__file__).parent
    modules = sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules


def test_readme_config_examples_merge_into_the_defaults():
    # every YAML config the README shows holds only keys the CLI knows,
    # so a renamed TuningPlan field or config key fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```yaml\n(.*?)```", readme.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        cli._deep_merge(cli._DEFAULTS, yaml.safe_load(block))
