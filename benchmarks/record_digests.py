"""Regenerate digests.json: per-op answer digests that later runs must match.

    python3 benchmarks/record_digests.py --seeds 0-20

verdict-grid and tau-report answer the same ops for every seed, so they
get one entry ("*"); session and pfaffian-eval get one entry per seed.
Recording refuses a pass in which any answer fails its check.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from steady import parse_seeds

SEED_FREE = ("verdict-grid", "tau-report")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-20", help="inclusive range for the seeded workloads")
    args = ap.parse_args(argv)
    table = {}
    for workload in run.workloads.WORKLOADS:
        seeds = ["*"] if workload in SEED_FREE else parse_seeds(args.seeds)
        table[workload] = {
            str(seed): "".join(run.answer_digests(workload, 0 if seed == "*" else seed))
            for seed in seeds
        }
        print(f"{workload}: {len(seeds)} seed entries", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
