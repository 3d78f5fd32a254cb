"""kernelnc benchmark: one client, closed loop, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_n2000 --seed 1 --seconds 30 --trace 0

One request is in flight at a time and the next is sent only when the
previous one has returned, so no layer ever waits on another: busy time
is the whole story. ``--trace 0`` measures the end-to-end metrics with no
tracing installed; ``--trace 1`` spends half the time with only the
computed-count wrappers and half with span wrappers on every layer, and
reports per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object; the lines before it print every
metric by name and unit. The exit code is 0 only when every request
succeeded and every output check passed.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_SAMPLES = 5
SETUP_RID = 0


@dataclass
class Request:
    rid: int
    kind: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    digest: str = ""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time; every request kind runs at least once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full record (and spans) to this JSON file")
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up the workload, then exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
        blas["config"] = deps.get("blas", {}).get("openblas configuration")
    except (TypeError, AttributeError):
        blas = {"blas": "unknown"}
    threads = {v: os.environ.get(v, "unset") for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    has_tpc = importlib.util.find_spec("threadpoolctl") is not None
    if has_tpc:
        from threadpoolctl import threadpool_info
        threads["threadpoolctl"] = [(i.get("internal_api"), i.get("num_threads"))
                                    for i in threadpool_info()]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": threads,
        "threadpoolctl": has_tpc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def time_setup(args) -> list[float]:
    """Wall seconds of fresh processes that import kernelnc and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


class Capture:
    """Keeps every curve run_end_to_end returns, wherever it is called from."""

    def __init__(self):
        self.curves = []
        self._undo = []

    def install(self):
        import kernelnc.effects as effects

        orig = effects.run_end_to_end

        @functools.wraps(orig)
        def run_end_to_end(*args, **kwargs):
            curve = orig(*args, **kwargs)
            self.curves.append(curve)
            return curve

        self._undo = tracing.replace_everywhere(orig, run_end_to_end)

    def uninstall(self):
        tracing.undo_all(self._undo)


def check_curve(curve, on_grid) -> list[str]:
    import numpy as np

    problems = []
    if not np.all(np.isfinite(curve.values)):
        problems.append(f"{curve.estimator} curve has non-finite values")
    for key in ("lam", "xi", "extra_penalty"):
        value = curve.metadata.get(key)
        if value is not None and not on_grid(value):
            problems.append(f"{curve.estimator} {key}={value!r} is not on the tuning grid")
    return problems


def serve(workload, kind, rid, capture, on_grid, tracer=None) -> tuple[Request, object]:
    """Send one request, time it, then check what came back."""
    capture.curves.clear()
    if tracer is not None:
        tracer.request = rid
    output, problems = None, []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(kind)
        else:
            with tracer.span(f"request.{kind}"):
                output = workload.run(kind)
    except Exception as err:  # any failure of the program counts against the request
        problems.append(f"{kind}: {type(err).__name__}: {err}")
        traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.request = None
    digest = hashlib.sha256()
    if not problems:
        problems += workload.check(kind, output)
        for curve in capture.curves:
            problems += check_curve(curve, on_grid)
            digest.update(curve.values.tobytes())
            digest.update(repr(sorted(curve.metadata.items(), key=str)).encode())
        digest.update(workload.fingerprint(kind, output))
    return Request(rid, kind, seconds, problems, digest.hexdigest()), output


def measure(workload, seconds, capture, on_grid, first_rid, tracer=None):
    """Closed loop over the request kinds until `seconds` have passed.

    Every kind runs at least once; after that a request is sent only if
    its kind's median so far says it will finish inside the time budget.
    """
    requests, outputs = [], {}
    start = time.perf_counter()
    rid = first_rid
    while True:
        for kind in workload.kinds:
            done = [r.seconds for r in requests if r.kind == kind]
            if done and time.perf_counter() - start + statistics.median(done) > seconds:
                return requests, outputs
            req, out = serve(workload, kind, rid, capture, on_grid, tracer)
            requests.append(req)
            outputs.setdefault(kind, out)
            rid += 1


def kind_medians(requests, kinds) -> dict[str, float]:
    return {k: statistics.median(r.seconds for r in requests if r.kind == k) for k in kinds}


def check_repeats(requests) -> None:
    """Repeating a request kind on one seed must give bit-identical outputs."""
    first = {}
    for r in requests:
        if r.problems:
            continue
        ref = first.setdefault(r.kind, r.digest)
        if r.digest != ref:
            r.problems.append(f"{r.kind}: output differs from the first {r.kind} request")


def check_counts(requests, per_req) -> None:
    """Repeating a request kind must repeat its computed counts exactly."""
    first = {}
    for r in requests:
        counts = {name: per_req.get(r.rid, {}).get(name, 0) for name in tracing.COMPUTED}
        ref = first.setdefault(r.kind, counts)
        if counts != ref:
            r.problems.append(f"{r.kind}: computed counts {counts} differ from the "
                              f"first {r.kind} request's {ref}")


def layer_metrics(tracer, traced, kinds) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one pass over the request kinds.

    For each kind, a metric is the median over that kind's traced
    requests; the kinds and the traced set-up are then summed.
    """
    per_req = tracer.per_request()
    total = dict(per_req.get(SETUP_RID, {}))
    for kind in kinds:
        rows = [per_req.get(r.rid, {}) for r in traced if r.kind == kind]
        for name in set().union(*rows):
            total[name] = total.get(name, 0) + statistics.median(row.get(name, 0) for row in rows)
    return total


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kernelnc" / "__init__.py").is_file():
        print(f"kernelnc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if Path(workloads.cli.__file__).resolve().parents[1] != SRC:
        print("kernelnc was not imported from this checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        if args.setup_only:
            workload.setup()
            return 0
        return measure_and_report(args, workload, workloads.on_grid)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only succeeds once no other run is using it


def measure_and_report(args, workload, on_grid) -> int:
    from kernelnc.effects import EffectRequest, run_end_to_end
    from kernelnc.simlab import SimDesign, generate

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    setup_samples = time_setup(args)
    workload.setup()
    # Start BLAS threads and fault in the allocator before timing.
    warm = generate(SimDesign("quadratic", n=200), args.seed)
    for est in ("nc", "te"):
        run_end_to_end(warm, EffectRequest("ate", grid_size=10), estimator=est)

    capture = Capture()
    capture.install()
    # Traced runs take the computed counts of the untraced half too, so that
    # every request kind has at least two sets of counts to compare.
    counter = tracing.Tracer(only=tracing.COUNTERS) if args.trace else None
    tracer = None
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        if counter is not None:
            counter.install()
        untraced, outputs = measure(workload, budget, capture, on_grid, SETUP_RID + 1, counter)
        traced = []
        if args.trace:
            counter.uninstall()
            tracer = tracing.Tracer()
            tracer.install()
            tracer.request = SETUP_RID
            with tracer.span("setup"):
                workload.setup()
            tracer.request = None
            traced, _ = measure(workload, budget, capture, on_grid,
                                SETUP_RID + 1 + len(untraced), tracer)
    finally:
        for t in (tracer, counter):
            if t is not None:
                t.uninstall()
        capture.uninstall()

    requests = untraced + traced
    check_repeats(requests)
    if args.trace:
        check_counts(requests, {**counter.per_request(), **tracer.per_request()})
    kinds = workload.kinds
    medians = kind_medians(untraced, kinds)
    pass_s = sum(medians.values())
    failed = sum(1 for r in requests if r.problems)
    e2e = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_s": (pass_s, "s"),
        "kind_gmean_s": (statistics.geometric_mean(medians.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = dict(e2e)
    if not failed:
        detail.update(workload.summary(medians, outputs))
    detail["failed_frac"] = (failed / len(requests), "1")

    print(f"workload {workload.name}, seed {args.seed}: {len(requests)} requests "
          f"({', '.join(f'{k} x{sum(r.kind == k for r in untraced)}' for k in kinds)} untraced"
          f"{f', {len(traced)} traced' if traced else ''}), setup samples "
          f"{[round(s, 4) for s in setup_samples]}")
    for name, (value, unit) in detail.items():
        print(f"  {name:<24} {fmt(value):>14} {unit}")

    layers = {}
    if args.trace:
        layers = layer_metrics(tracer, traced, kinds)
        layers["trace.overhead_s"] = sum(kind_medians(traced, kinds).values()) - pass_s
        print("per layer, one set-up plus one pass (work counts are computed, exact):")
        names = [t[2] for t in tracing.TARGETS] + ["ridge.eigh", "ridge.cholesky"]
        for name in names:
            extra = tracing.COUNTERS.get(name, (None,))[0]
            cells = [f"{layers.get(f'{name}.calls', 0):>7} calls",
                     f"{fmt(layers.get(f'{name}.s', 0.0)):>10} s",
                     f"{fmt(layers.get(f'{name}.self_s', 0.0)):>10} self_s"]
            if extra:
                cells.append(f"{layers.get(f'{name}.{extra}', 0)} {extra} (computed)")
            print(f"  {name:<30} " + "  ".join(cells))
        for name in ("ridge.jitter_events", "trace.spans", "trace.overhead_s"):
            print(f"  {name:<30} {fmt(layers.get(name, 0))}")
        if tracer.missing:
            print(f"  not traced (absent in this version): {', '.join(tracer.missing)}")

    for r in requests:
        for problem in r.problems:
            print(f"CHECK FAILED: {problem}")
    print(f"checks: {'all passed' if not failed else f'{failed} failed requests'}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = layers.get(m["name"], 0) if args.trace else e2e[m["name"]][0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.out:
        record = {"env": env, "workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "setup_samples": setup_samples,
                  "requests": [vars(r) for r in requests],
                  "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
                  "layers": layers, "metrics": metrics}
        if tracer is not None:
            record["spans"] = tracer.dump()
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(requests),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
