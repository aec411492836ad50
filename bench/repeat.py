"""Run workloads several times and report the spread of every metric.

    python3 bench/repeat.py [--workload NAME ...] [--seeds 1-10] [--seconds S] [--trace]

Untraced (the default): one run per seed and workload; for each
end-to-end metric it prints every value, the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
bound in BENCHMARK.json, and the failed share of every run.  The bounds in
BENCHMARK.json come from these spreads.

--trace: two traced runs per seed; it prints the per-layer counts that
differ between the two (there should be none) and checks the bypass
prediction of README.md (no exact-layer calls on the certify workloads,
no connect calls on exact-checks).

Results also go to bench/_runs/repeat-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["log"] = proc.stderr
    if not result["correct"]:
        print(f"{workload} seed {seed}:\n{proc.stderr}", file=sys.stderr)
    return result


def spread_table(workload, results, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{workload}: {len(results)} runs")
    shares = {f"{r['failed']}/{r['attempted']}" for r in results}
    print(f"  failed/attempted: {sorted(shares)}  correct: {all(r['correct'] for r in results)}")
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
        flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"  {name:12s} median {med:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g}  "
              f"spread {spread:6.3f}  bound {bound:4.2f}  {flag}")
        print("      " + " ".join(f"{v:.5g}" for v in values))
    return summary


def compare_traces(workload, pairs):
    differ = []
    for seed, (a, b) in pairs.items():
        for name, item in a["metrics"].items():
            if item["unit"] == "count" and item["value"] != b["metrics"][name]["value"]:
                differ.append(f"seed {seed} {name}: {item['value']} vs {b['metrics'][name]['value']}")
    print(f"\n{workload}: {len(pairs)} seeds traced twice, {len(differ)} differing counts")
    for line in differ:
        print("  " + line)
    first = next(iter(pairs.values()))[0]["metrics"]
    if workload.startswith("certify"):
        bypass = {k: v["value"] for k, v in first.items()
                  if k.startswith(("rational.", "lattice_core.")) and v["value"] != 0}
    else:
        bypass = {k: first[k]["value"] for k in ("solver_explorer.connect.calls",)
                  if first[k]["value"] != 0}
    print(f"  bypass prediction {'holds' if not bypass else 'broken: ' + str(bypass)}")
    return {"differing_counts": differ, "bypass_nonzero": bypass,
            "metrics": {seed: runs[0]["metrics"] for seed, runs in pairs.items()}}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = seeds_from(args.seeds)
    out = {}
    for workload in workloads:
        if args.trace:
            pairs = {s: [one_run(workload, s, args.seconds, True) for _ in range(2)] for s in seeds}
            out[workload] = compare_traces(workload, pairs)
        else:
            results = [one_run(workload, s, args.seconds, False) for s in seeds]
            out[workload] = spread_table(workload, results, bench)
            out[workload]["runs"] = results
    path = HERE / "_runs" / f"repeat-{int(time.time())}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds, "results": out}, indent=1))
    print(f"\nwritten {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
