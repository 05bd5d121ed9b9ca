"""Run every workload once and print its metrics, one block per workload.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each block is the readable part of ``bench/run.py``'s output: every
metric by name with its unit and, untraced, its sample count, plus the
workload's own throughput metric and its failure ratio.  Exits 1 if any
run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import NAMES


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}\n{done.stderr}")
            ok = False
            continue
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
