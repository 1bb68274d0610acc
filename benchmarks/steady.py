"""Steadiness check: repeat each workload over several seeds and compare each
end-to-end metric's quartile spread with its bound in BENCHMARK.json.

    python3 benchmarks/steady.py --seeds 1-10                 # every workload
    python3 benchmarks/steady.py --seeds 1-5 --workloads session
    python3 benchmarks/steady.py --seeds 1-10 --record        # also write steadiness.json

The spread of a metric is (Q3 - Q1) / median over its runs, with quartiles
from ``statistics.quantiles(values, n=4)``. A metric is steady when its
spread is below a third of its bound; ``setup_s`` has no spread gate but
is listed. Runs go one at a time, each as its own ``run.py`` process.
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
RECORD = HERE / "steadiness.json"


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(values: dict, spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        gated = m["name"] != "setup_s"
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                          "steady": (not gated) or spread < m["bound"] / 3}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--record", action="store_true", help=f"write the outcome to {RECORD.name}")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    outcome = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    all_steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        t0 = time.perf_counter()
        for seed in seeds:
            res = run_once(workload, seed, args.seconds)
            attempted += res["attempted"]
            failed += res["failed"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        table = spread_table(values, spec)
        steady = failed == 0 and all(row["steady"] for row in table.values())
        all_steady &= steady
        outcome["workloads"][workload] = {"steady": steady, "fail_ratio": failed / attempted,
                                          "metrics": table, "values": values}
        print(f"{workload}: {len(seeds)} runs in {time.perf_counter() - t0:.0f} s, "
              f"fail_ratio {failed / attempted:.3g} ({failed} of {attempted} ops)")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, row in table.items():
            flag = "ok" if row["steady"] else "NOT STEADY"
            print(f"  {name:>12} median {row['median']:.6g} {units[name]:<3} spread {row['spread']:.4f} "
                  f"(bound {row['bound']}, gate {row['bound'] / 3:.4f}) {flag}")
    if args.record:
        RECORD.write_text(json.dumps(outcome, indent=1) + "\n", encoding="utf-8")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
