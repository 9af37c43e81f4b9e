"""Run-to-run spread of the end-to-end metrics over several workload seeds.

    python3 evbench/spread.py --workload fit-arc-128

Runs ``evbench/run.py`` for seeds 1-10, one process after another, each
for BENCHMARK.json's ``run_seconds``, and prints for each end-to-end
metric the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) and the quartile distance as a share of the median next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, 11):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(out.stderr[-2000:], file=sys.stderr)
            return 1
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        digest = next((ln.split()[-1] for ln in lines if ln.startswith("field+flow sha256")), "?")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} digest={digest[:16]} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / med:8.4f} {m['bound']:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
