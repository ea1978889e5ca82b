#!/usr/bin/env python3
"""Run every workload over several seeds and summarise.

    python3 perfbench/suite.py                       # all workloads, seeds 1-3, both modes
    python3 perfbench/suite.py --heldout             # the held-out seed only
    python3 perfbench/suite.py --workloads embedded --seeds 1 2 3 4 5 --trace 0
    python3 perfbench/suite.py --out results.json    # also write every run

Each run is its own `run.py` process, one at a time, measuring for
`run_seconds` from BENCHMARK.json. For every metric the
summary gives the median over seeds, the quartiles and the spread (the
quartile distance as a share of the median), next to the metric's bound in
BENCHMARK.json. When a seed ran both untraced and traced, its exact work
counts and output digest must agree between the two; the command exits 1
if they do not, or if any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

# A seed that no change is tuned on; claims are re-checked on it.
HELDOUT_SEED = 7919


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, encoding="utf-8", timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "record": record, "result": result}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    mid = median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def summarise(runs: list[dict], declared: dict) -> dict:
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    out: dict = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            cell = out.setdefault(run["workload"], {}).setdefault(name, {"unit": m["unit"], "values": []})
            cell["values"].append(m["value"])
    for metrics in out.values():
        for name, cell in metrics.items():
            cell["median"], cell["q1"], cell["q3"], cell["spread"] = spread(cell["values"])
            cell["bound"] = bounds.get(name)
    return out


def self_check(runs: list[dict]) -> list[str]:
    problems = []
    by_key: dict = {}
    for run in runs:
        by_key.setdefault((run["workload"], run["seed"]), []).append(run["record"])
    for (workload, seed), records in sorted(by_key.items()):
        for field in ("counts", "digest"):
            if len({json.dumps(r[field], sort_keys=True) for r in records}) > 1:
                problems.append(f"{workload} seed {seed}: {field} differ between runs")
    return problems


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--heldout", action="store_true", help=f"use seed {HELDOUT_SEED} only")
    ap.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0, 1])
    ap.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = ap.parse_args(argv)
    seeds = [HELDOUT_SEED] if args.heldout else args.seeds

    runs = []
    for workload in args.workloads:
        for seed in seeds:
            for trace in args.trace:
                run = run_once(workload, seed, declared["run_seconds"], trace)
                runs.append(run)
                print(f"ran {workload} seed {seed} trace {trace}: "
                      f"{run['result']['attempted']} ops, {run['result']['failed']} failed",
                      file=sys.stderr, flush=True)

    summary = summarise(runs, declared)
    for workload, metrics in summary.items():
        print(f"\n{workload}  (seeds {' '.join(map(str, seeds))})")
        print(f"  {'metric':40} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, c in metrics.items():
            bound = "" if c["bound"] is None else f"{c['bound']:.2f}"
            print(f"  {name:40} {c['unit']:>6} {c['median']:12.6g} {c['q1']:12.6g} "
                  f"{c['q3']:12.6g} {c['spread']:7.3f} {bound:>6}")
    problems = self_check(runs)
    problems += [f"{r['workload']} seed {r['seed']} trace {r['trace']}: not correct"
                 for r in runs if not r["result"]["correct"]]
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1,
                                       ensure_ascii=False) + "\n", encoding="utf-8")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
