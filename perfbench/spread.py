"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads fit_n2000 --seeds 1 2 3 4 5

Each run's report (every metric by name and unit, and the checks) is
printed as it finishes; with one seed and the default workloads this is
the one command that prints everything for all three workloads. Then,
for every end-to-end metric, it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in
BENCHMARK.json. A spread below a third of the bound is marked
"steady". With ``--trace`` it runs traced instead, reports which per-layer
counts differ between runs, and exits 1 when a computed work count
(exact by construction) differs. Runs go one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import COMPUTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[1:-1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    differing = []
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, report = run_once(workload, seed, args.seconds, int(args.trace))
            runs.append(result)
            print("\n".join(report), flush=True)
        print(f"== {workload} ({len(runs)} runs)")
        for m in spec[section]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if args.trace:
                if m["unit"] == "count" and len(set(values)) > 1:
                    print(f"  {m['name']}: differs between runs {values}")
                    if m["name"] in COMPUTED:
                        differing.append(f"{workload} {m['name']}")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med
            verdict = "steady" if share < m["bound"] / 3 else (
                "within bound" if share <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:<14} median {med:.6g} {m['unit']}, spread {share:.4f} "
                  f"(bound {m['bound']}): {verdict}")
    if differing:
        print(f"computed counts differ between runs: {', '.join(differing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
