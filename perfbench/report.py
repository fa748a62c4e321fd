"""Run every workload once and print all end-to-end metrics in one table.

    python3 perfbench/report.py --seed 7 --seconds 25 [--trace 1]

Each workload runs in its own process, one after another, through run.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(f"{w}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        print(f"== {w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
