"""The souschef benchmark: one workload, one seed, one subprocess.

    python3 perfbench/run.py --workload recipes --seed 1 --seconds 30 --trace 0

Workloads: recipes, conjunct-scaling, execute-score (see NOTES.md).
Run from the repository root; the program is imported from ./src.  The
workload runs in its own process under a wall-clock limit; a run killed by
the limit counts as failed.  The child's report is passed through, so the
last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("recipes", "conjunct-scaling", "execute-score")
#: wall-clock limit of one workload process; the benchmark must end in 180 s
LIMIT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in 1..60")
    if not (Path.cwd() / "src" / "souschef" / "__init__.py").is_file():
        print("perfbench: run from the repository root; ./src/souschef "
              "is missing", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=LIMIT_S)
    except subprocess.TimeoutExpired as exc:   # the child is killed and reaped
        sys.stdout.write(exc.stdout.decode() if isinstance(exc.stdout, bytes)
                         else exc.stdout or "")
        print(f"perfbench: {args.workload} killed after {LIMIT_S} s")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 3
    sys.stdout.write(child.stdout)
    if child.returncode != 0:
        print(f"perfbench: {args.workload} exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
