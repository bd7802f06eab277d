"""Check that two traced runs of one workload and seed give identical counts.

    python3 perfbench/check_counts.py --workload execute-score --seed 1

Run from the repository root.  Runs `run.py --trace 1` twice and compares
every per-layer metric that is a count or a ratio of counts; times are
left out.  Exits 1 and names the metrics that differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "30", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] == "count" or k.endswith("useful_ratio")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    first, second = counts(args.workload, args.seed), \
        counts(args.workload, args.seed)
    differ = sorted(k for k in first if first[k] != second.get(k))
    print(f"{len(first)} counts compared, {len(differ)} differ"
          + (": " + ", ".join(differ) if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
