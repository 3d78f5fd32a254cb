"""The public export list of the package, and what importing it loads."""

import os
import subprocess
import sys

import kernelnc


def test_every_exported_name_resolves_once():
    names = kernelnc.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(kernelnc, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from kernelnc import *", namespace)
    assert set(kernelnc.__all__) <= set(namespace)


def test_import_leaves_out_scipy_spatial_and_sparse():
    # importing both costs about a tenth of a second of every fresh process
    src = os.path.dirname(os.path.dirname(kernelnc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, kernelnc; "
        "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
