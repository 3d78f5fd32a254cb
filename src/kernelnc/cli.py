"""Command line front end: estimate, simulate, and tune subcommands.

Configuration lives in one YAML document; a handful of flags override
file values (precedence: built-in defaults, then the config file or a
manifest's embedded config, then flags). Every run writes a manifest
holding the fully resolved configuration, so any run can be repeated
exactly with --from-manifest, at the BLAS build and thread count the
manifest also records.

Exit codes: 0 success, 1 runtime or numerical failure, 2 configuration
or ingestion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import yaml

from .data import (
    Dataset,
    Schema,
    format_float,
    ingest,
    population_from_csv,
    write_table_csv,
)
from .effects import ESTIMATORS, EffectCurve, EffectRequest, TuningPlan, run_end_to_end
from .errors import ConfigError, IngestError, InputError, KernelncError, _number
from .simlab import SimDesign, blas_environment, generate, run_experiment

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

MANIFEST_NAME = "manifest.json"

_DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "workers": None,
    "data": {
        "path": None,
        "roles": {"y": None, "d": None, "x": [], "z": [], "w": [], "v": []},
        "categorical": [],
        "simulate": None,
    },
    "estimate": {
        "estimator": "nc",
        "effect": "ate",
        "grid": None,
        "grid_size": 100,
        "d_value": None,
        "v_value": None,
        "alt_population": None,
    },
    "tuning": {f.name: f.default for f in dataclasses.fields(TuningPlan)},
    "kernels": {"lengthscales": {}},
    "simulate": {
        "design": "quadratic",
        "n": 1000,
        "dim_x": 5,
        "dim_z": 1,
        "dim_w": 1,
        "replicates": 100,
        "estimators": ["nc", "te"],
        "strict": True,
    },
}

_SIM_KEYS = ("design", "n", "dim_x", "dim_z", "dim_w")

# The run constants curve.csv repeats on every row, as (column, metadata
# key); the estimate manifest's results carry them under the same columns.
_CURVE_CONSTANTS = (
    ("estimator", "estimator"), ("n", "n"), ("m", "m"), ("lambda", "lam"), ("xi", "xi"),
    ("extra_penalty", "extra_penalty"), ("lengthscale_digest", "lengthscale_digest"),
)
# Each estimator's summary over its replicates, in output order.
_SUMMARY = ("mean", "sd", "mse")


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key {where!r}")
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), f"{where} must be a mapping, got {value!r}")
            # An empty default mapping (kernels.lengthscales) takes any keys.
            out[key] = _deep_merge(base[key], value, where) if base[key] else value
        else:
            out[key] = value
    return out


def _load_yaml(path: Path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"malformed YAML in {path}: {err}") from err
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a mapping at top level")
    return doc


def _load_manifest(path: Path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read manifest {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed manifest {path}: {err}") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise ConfigError(f"manifest {path} has no embedded config")
    return doc


def resolve_config(args: argparse.Namespace) -> tuple[dict, dict | None]:
    """Merge defaults, file or manifest values, and flag overrides.

    Returns the config and the manifest it replays, None without one.
    """
    if args.config and args.from_manifest:
        raise ConfigError("pass either --config or --from-manifest, not both")
    cfg = json.loads(json.dumps(_DEFAULTS))
    if args.config:
        cfg = _deep_merge(cfg, _load_yaml(Path(args.config)))
    manifest = _load_manifest(Path(args.from_manifest)) if args.from_manifest else None
    if manifest is not None:
        cfg = _deep_merge(cfg, manifest["config"])
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.output_dir is not None:
        cfg["output_dir"] = args.output_dir
    if getattr(args, "workers", None) is not None:
        cfg["workers"] = args.workers
    if getattr(args, "replicates", None) is not None:
        cfg["simulate"]["replicates"] = args.replicates
    if getattr(args, "data_path", None) is not None:
        cfg["data"]["path"] = args.data_path
    return cfg, manifest


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _as_config_error(section, fn, *args, **kwargs):
    """fn(*args, **kwargs), raising its InputError as a ConfigError.

    An error on a named field is prefixed with the field's config
    section: `section` itself, or section[field] when it is a mapping.
    """
    try:
        return fn(*args, **kwargs)
    except InputError as err:
        prefix = ""
        if err.field is not None:
            prefix = section if isinstance(section, str) else section.get(err.field, "")
        raise ConfigError(prefix + str(err)) from err


def _build_tuning(cfg: dict) -> TuningPlan:
    """The TuningPlan whose fields are the tuning section's keys."""
    return _as_config_error("tuning.", TuningPlan, **cfg["tuning"])


def _build_design(sim: dict) -> SimDesign:
    dims = {key: sim[key] for key in ("n", "dim_x", "dim_z", "dim_w")}
    return _as_config_error("simulate.", SimDesign, kind=sim["design"], **dims)


def _build_schema(data_cfg: dict) -> Schema:
    roles = data_cfg["roles"]
    sections = {"categorical": "data.", **dict.fromkeys(roles, "data.roles.")}
    return _as_config_error(sections, Schema, **roles, categorical=data_cfg["categorical"])


def load_dataset(cfg: dict) -> Dataset:
    """Materialize the dataset named by the config.

    Either a CSV path with a role schema, or an inline simulation
    design drawn from the run seed.
    """
    data_cfg = cfg["data"]
    if data_cfg["path"] is not None and data_cfg["simulate"] is not None:
        raise ConfigError("data.path and data.simulate are mutually exclusive")
    if data_cfg["path"] is not None:
        return ingest(data_cfg["path"], _build_schema(data_cfg))
    if data_cfg["simulate"] is not None:
        sim = data_cfg["simulate"]
        _require(isinstance(sim, dict), f"data.simulate must be a mapping, got {sim!r}")
        sim = dict(sim)
        replicate = sim.pop("replicate", 0)
        unknown = set(sim).difference(_SIM_KEYS)
        _require(not unknown, f"unknown data.simulate keys {sorted(unknown)}")
        design = _build_design({**cfg["simulate"], **sim})
        sections = {"replicate": "data.simulate."}
        return _as_config_error(sections, generate, design, cfg["seed"], replicate)
    raise ConfigError("set data.path (CSV) or data.simulate (synthetic draw)")


def _build_request(cfg: dict) -> EffectRequest:
    est = cfg["estimate"]
    kind = est["effect"]
    _require(est["estimator"] in ESTIMATORS, f"unknown estimator {est['estimator']!r}")
    if est["estimator"] == "te":
        _require(kind == "ate", "estimator 'te' only supports effect 'ate'")
    alt = {}
    if kind == "ds":
        population = est["alt_population"]
        _require(
            isinstance(population, dict) and population.get("path"),
            "effect 'ds' needs estimate.alt_population with a path and columns",
        )
        blocks = _as_config_error(
            "estimate.alt_population.", population_from_csv, population["path"], population
        )
        alt = {f"alt_{role}": block for role, block in blocks.items()}
    fields = {key: est[key] for key in ("grid", "grid_size", "d_value", "v_value")}
    return _as_config_error("estimate.", EffectRequest, kind=kind, **fields, **alt)


def _lengthscales(cfg: dict) -> dict[str, float]:
    out = {}
    for name, value in cfg["kernels"]["lengthscales"].items():
        value = _as_config_error("kernels.lengthscales.", _number, str(name), value)
        _require(value > 0, f"lengthscale for {name!r} must be > 0")
        out[str(name)] = value
    return out


def _prepare_outdir(cfg: dict) -> Path:
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_manifest(outdir, command, cfg, outputs, timings, results, blas) -> dict:
    """Write the run's manifest and return it. `blas` is the record the
    outputs were computed under (see :func:`blas_environment`)."""
    manifest = {
        "command": command,
        "config": cfg,
        "outputs": outputs,
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "results": results,
        # outputs are byte-identical only at the same BLAS build and threads
        "blas": blas,
    }
    with open(outdir / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _run_pass(
    cfg: dict, tuning: TuningPlan, label: str
) -> tuple[Path, EffectCurve, dict[str, float]]:
    """One pass of the config's estimate request under `tuning`.

    Returns the output directory, the curve, and the timings of the
    data load ("load_data") and of the pass (under `label`).
    """
    request = _build_request(cfg)
    lengthscales = _lengthscales(cfg)
    outdir = _prepare_outdir(cfg)

    t0 = time.perf_counter()
    data = load_dataset(cfg)
    timings = {"load_data": time.perf_counter() - t0}

    t0 = time.perf_counter()
    curve = run_end_to_end(
        data, request, tuning, cfg["estimate"]["estimator"], lengthscales
    )
    timings[label] = time.perf_counter() - t0
    return outdir, curve, timings


def cmd_estimate(cfg: dict) -> dict:
    """Write curve.csv and its manifest, and return the manifest."""
    outdir, curve, timings = _run_pass(cfg, _build_tuning(cfg), "estimate")
    meta = curve.metadata
    constants = {column: meta[key] for column, key in _CURVE_CONSTANTS}
    rows = [
        (float(d), float(v), *constants.values())
        for d, v in zip(curve.grid, curve.values)
    ]
    curve_path = outdir / "curve.csv"
    write_table_csv(curve_path, ["d", "estimate", *constants], rows)
    results = {
        **constants,
        "effect": meta["effect"],
        "tuning_mode": meta["tuning_mode"],
        "grid_points": int(curve.grid.size),
    }
    manifest = _write_manifest(
        outdir, "estimate", cfg, [curve_path.name], timings, results, blas_environment()
    )
    print(f"wrote {curve_path} ({curve.grid.size} grid points)")
    return manifest


def cmd_simulate(cfg: dict) -> dict:
    """Write replicates.csv, aggregate.csv and their manifest, and return
    the manifest."""
    tuning = _build_tuning(cfg)
    sim = cfg["simulate"]
    design = _build_design(sim)
    _require(
        isinstance(sim["strict"], bool),
        f"simulate.strict must be true or false, got {sim['strict']!r}",
    )
    workers = 1 if cfg["workers"] is None else cfg["workers"]
    outdir = _prepare_outdir(cfg)

    t0 = time.perf_counter()
    reports = _as_config_error(
        {"replicates": "simulate.", "estimators": "simulate."}, run_experiment, design,
        sim["replicates"], cfg["seed"], sim["estimators"], tuning, workers, sim["strict"],
    )
    timings = {"experiment": time.perf_counter() - t0}

    summaries = {
        est: {stat: getattr(rep, stat) for stat in _SUMMARY} for est, rep in reports.items()
    }
    rep_rows = []
    agg_rows = []
    for est, summary in summaries.items():
        rep = reports[est]
        rep_rows.extend(
            (est, int(r), float(v)) for r, v in zip(rep.replicates, rep.values)
        )
        rep_rows.extend((est, *item) for item in summary.items())
        agg_rows.append((est, design.n, int(rep.values.size), *summary.values()))
    rep_path = outdir / "replicates.csv"
    write_table_csv(rep_path, ["estimator", "replicate", "value"], rep_rows)
    agg_path = outdir / "aggregate.csv"
    write_table_csv(agg_path, ["estimator", "n", "replicates", *_SUMMARY], agg_rows)

    results = {
        est: {**summary, "failed_replicates": [list(f) for f in reports[est].failures]}
        for est, summary in summaries.items()
    }
    results["metadata"] = next(iter(reports.values())).metadata
    manifest = _write_manifest(
        outdir, "simulate", cfg, [rep_path.name, agg_path.name], timings, results,
        results["metadata"]["blas"],
    )
    for est, summary in summaries.items():
        stats = " ".join(f"{stat}={format_float(value)}" for stat, value in summary.items())
        print(f"{est}: {stats} ({reports[est].values.size} replicates)")
    print(f"wrote {rep_path} and {agg_path}")
    return manifest


def cmd_tune(cfg: dict) -> dict:
    """Export the penalty searches that `estimate` runs on the same config.

    One pass of the config's estimate with every penalty left to
    leave-one-out on the tuning grid; tune.csv and the manifest are
    built from that pass's metadata["tuning"], and no curve is written.
    Returns the manifest.
    """
    tuning = TuningPlan(grid=_build_tuning(cfg).grid)
    outdir, curve, timings = _run_pass(cfg, tuning, "tune")
    searches = curve.metadata["tuning"]
    rows = []
    for name, search in searches.items():
        for cand, loss in zip(search["candidates"], search["losses"]):
            rows.append((name, cand, loss, int(cand == search["selected"])))
    tune_path = outdir / "tune.csv"
    write_table_csv(tune_path, ["hyperparameter", "candidate", "loss", "selected"], rows)
    results = {name: search["selected"] for name, search in searches.items()}
    manifest = _write_manifest(
        outdir, "tune", cfg, [tune_path.name], timings, results, blas_environment()
    )
    for name, selected in results.items():
        print(f"{name}: selected {format_float(selected)}")
    print(f"wrote {tune_path}")
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelnc",
        description=(
            "Dose-response and heterogeneous-effect estimation with "
            "negative controls, plus a simulation lab."
        ),
        epilog=(
            "Precedence: built-in defaults, then --config or "
            "--from-manifest values, then flags."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML configuration file")
    common.add_argument(
        "--from-manifest", help="rerun the configuration embedded in a manifest"
    )
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--output-dir", help="directory for outputs and manifest")

    p_est = sub.add_parser("estimate", parents=[common], help="fit and export a curve")
    p_est.add_argument("--data-path", help="CSV dataset path (overrides config)")

    p_sim = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo study")
    p_sim.add_argument("--replicates", type=int, help="replicate count override")
    p_sim.add_argument("--workers", type=int, help="parallel worker count")

    p_tune = sub.add_parser("tune", parents=[common], help="export penalty-search grids")
    p_tune.add_argument("--data-path", help="CSV dataset path (overrides config)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"estimate": cmd_estimate, "simulate": cmd_simulate, "tune": cmd_tune}
    try:
        cfg, replayed = resolve_config(args)
        written = commands[args.command](cfg)
    except (ConfigError, IngestError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except KernelncError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    if replayed is not None and replayed.get("blas") != written["blas"]:
        # a replay is byte-identical only at the recorded BLAS build and threads
        print(
            f"warning: manifest {args.from_manifest} records BLAS "
            f"{json.dumps(replayed.get('blas'), sort_keys=True)}, this run has "
            f"{json.dumps(written['blas'], sort_keys=True)}; "
            "outputs may differ in the last digits",
            file=sys.stderr,
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
