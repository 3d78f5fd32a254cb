"""The three benchmark workloads: inputs, request kinds and output checks.

Each workload builds its inputs from the seed in ``setup`` (the program
only ever sees the generated data), then serves requests of a few fixed
kinds, one at a time. ``run`` returns what the request produced and
``check`` returns a list of problems with it (empty when correct).
``fingerprint`` returns bytes that must be identical whenever the same
kind is repeated on the same seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np
import yaml

# Functions are looked up on their modules at call time, so the tracing
# wrappers installed on those modules see the benchmark's own calls.
from kernelnc import cli, data, effects, ridge, simlab
from kernelnc.effects import EffectRequest
from kernelnc.simlab import DESIGN_KINDS, SimDesign


def on_grid(value: float) -> bool:
    """True when a selected penalty is one of the tuning grid's candidates."""
    return float(value) in set(ridge.DEFAULT_GRID.tolist())


def curve_mse(design: SimDesign, grid: np.ndarray, values: np.ndarray) -> float:
    return float(np.mean((values - simlab.true_curve(design, grid)) ** 2))


class FitN2000:
    """Large-n fits: one quadratic dataset, nc and te ATE curves on it.

    Each n x n Gram is 32 MB, far larger than L2, and the cubic
    decompositions and the 20-point leave-one-out searches dominate.
    """

    name = "fit_n2000"
    kinds = ("nc_ate", "te_ate")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.design = SimDesign("quadratic", n=2000)

    def setup(self) -> None:
        self.data = simlab.generate(self.design, self.seed)
        self.grid = simlab.scoring_grid(self.design)

    def run(self, kind: str):
        estimator = kind.split("_")[0]
        return effects.run_end_to_end(self.data, EffectRequest("ate", grid=self.grid),
                                      estimator=estimator)

    def check(self, kind, curve) -> list[str]:
        return []  # curves are checked where run_end_to_end returns them

    def fingerprint(self, kind, curve) -> bytes:
        return b""

    def summary(self, medians: dict[str, float], outputs: dict) -> dict:
        return {
            "nc_ate_s": (medians["nc_ate"], "s"),
            "te_ate_s": (medians["te_ate"], "s"),
            "nc_mse": (curve_mse(self.design, self.grid, outputs["nc_ate"].values), "mse"),
            "te_mse": (curve_mse(self.design, self.grid, outputs["te_ate"].values), "mse"),
        }


class SimulateN500:
    """Small-n sweep: run_experiment with 4 replicates of each design.

    Many small datasets that share no work; each Gram (2 MB) stays in
    cache, so per-call overhead and repeated kernel selection weigh
    more. workers=1: without threadpoolctl a worker pool oversubscribes
    BLAS threads on this benchmark's 2-core reference machine.
    """

    name = "simulate_n500"
    kinds = DESIGN_KINDS
    replicates = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.designs = {kind: SimDesign(kind, n=500) for kind in self.kinds}

    def run(self, kind: str):
        return simlab.run_experiment(self.designs[kind], self.replicates, self.seed, workers=1)

    def check(self, kind, reports) -> list[str]:
        problems = []
        for est, rep in reports.items():
            if rep.failures:
                problems.append(f"{kind}/{est}: failed replicates {rep.failures}")
            if rep.values.size != self.replicates:
                problems.append(f"{kind}/{est}: {rep.values.size} replicates scored")
            if not (np.all(np.isfinite(rep.values)) and math.isfinite(rep.mse)):
                problems.append(f"{kind}/{est}: non-finite replicate scores")
        return problems

    def fingerprint(self, kind, reports) -> bytes:
        return b"".join(reports[est].values.tobytes() for est in sorted(reports))

    def summary(self, medians: dict[str, float], outputs: dict) -> dict:
        pass_s = sum(medians.values())
        out = {"replicates_per_s": (self.replicates * len(self.kinds) / pass_s, "1/s")}
        out.update({f"{kind}_s": (medians[kind], "s") for kind in self.kinds})
        for est in ("nc", "te"):
            mse = np.mean([outputs[kind][est].mse for kind in self.kinds])
            out[f"{est}_mse"] = (float(mse), "mse")
        return out


class StudyCliN1000:
    """CLI study: one n=1000 CSV with a subgroup block, many questions.

    Every request re-reads and re-fits the same dataset through
    ``cli.main``, so it exercises ingest, conditional embeddings,
    leave-one-out over full-rank output Grams and ``tuning_reports``,
    which the other workloads bypass.
    """

    name = "study_cli_n1000"
    kinds = ("att", "cate", "ds", "tune", "replay")
    d_value = 0.5
    v_value = 0.0
    x_shift = 0.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work = workdir
        self.design = SimDesign("quadratic", n=1000)

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        base = simlab.generate(self.design, self.seed)
        x = base.block("x")
        # The subgroup covariate is the first covariate column itself.
        study = data.from_arrays(base.y, base.block("d"), x, base.block("z"),
                                 base.block("w"), v=x[:, 0])
        study_csv = self.work / "study.csv"
        data.write_dataset_csv(study, study_csv)
        xnames = list(study.names("x"))
        alt_csv = self.work / "shifted.csv"
        alt = np.column_stack([x + self.x_shift, base.block("w"), x[:, 0] + self.x_shift])
        data.write_table_csv(alt_csv, xnames + ["w", "v"], alt.tolist())
        roles = {"y": "y", "d": "d", "x": xnames, "z": ["z"], "w": ["w"], "v": ["v"]}
        estimates = {
            "att": {"effect": "att", "d_value": self.d_value},
            "cate": {"effect": "cate", "v_value": [self.v_value]},
            "ds": {"effect": "ds", "alt_population": {
                "path": str(alt_csv), "x": xnames, "w": ["w"], "v": ["v"]}},
        }
        self.configs = {}
        for kind, estimate in estimates.items():
            path = self.work / f"{kind}.yaml"
            path.write_text(yaml.safe_dump({
                "seed": self.seed,
                "data": {"path": str(study_csv), "roles": roles},
                "estimate": estimate,
            }))
            self.configs[kind] = path

    def _argv(self, kind: str) -> list[str]:
        out = ["--output-dir", str(self.work / kind)]
        if kind == "tune":
            return ["tune", "--config", str(self.configs["att"])] + out
        if kind == "replay":
            manifest = self.work / "att" / cli.MANIFEST_NAME
            return ["estimate", "--from-manifest", str(manifest)] + out
        return ["estimate", "--config", str(self.configs[kind])] + out

    def run(self, kind: str):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self._argv(kind))
        return code, stderr.getvalue()

    def _output(self, kind: str) -> Path:
        return self.work / kind / ("tune.csv" if kind == "tune" else "curve.csv")

    def check(self, kind, result) -> list[str]:
        code, stderr = result
        if code != 0:
            return [f"{kind}: exit code {code}: {stderr.strip()}"]
        with open(self._output(kind), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if kind == "tune":
            return self._check_tune(rows)
        problems = []
        if not rows or not all(math.isfinite(float(r["estimate"])) for r in rows):
            problems.append(f"{kind}: curve.csv has no rows or a non-finite estimate")
        for col in ("lambda", "xi", "extra_penalty"):
            values = {r[col] for r in rows if r[col] not in ("", "None")}
            if not all(on_grid(float(v)) for v in values):
                problems.append(f"{kind}: {col} {sorted(values)} not on the tuning grid")
        if kind == "replay":
            if self._output("replay").read_bytes() != self._output("att").read_bytes():
                problems.append("replay: curve.csv differs from the att run it replays")
        return problems

    def _check_tune(self, rows) -> list[str]:
        problems = []
        grid = sorted(ridge.DEFAULT_GRID.tolist())
        for name in sorted({r["hyperparameter"] for r in rows}):
            mine = [r for r in rows if r["hyperparameter"] == name]
            cands = sorted(float(r["candidate"]) for r in mine)
            picked = [float(r["candidate"]) for r in mine if r["selected"] == "1"]
            losses = [float(r["loss"]) for r in mine]
            if cands != grid:
                problems.append(f"tune: {name} candidates differ from the tuning grid")
            if len(picked) != 1 or not on_grid(picked[0]):
                problems.append(f"tune: {name} selected {picked}")
            if not all(math.isfinite(v) for v in losses):
                problems.append(f"tune: {name} has non-finite losses")
        if not rows:
            problems.append("tune: tune.csv is empty")
        return problems

    def fingerprint(self, kind, result) -> bytes:
        return self._output(kind).read_bytes() if result[0] == 0 else b""

    def summary(self, medians: dict[str, float], outputs: dict) -> dict:
        return {f"{kind}_s": (medians[kind], "s") for kind in self.kinds}


WORKLOADS = {w.name: w for w in (FitN2000, SimulateN500, StudyCliN1000)}
