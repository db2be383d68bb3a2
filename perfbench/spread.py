"""Spread of the benchmark's end-to-end metrics over several runs.

From the repository root:

    python3 perfbench/spread.py udp-plain 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py udp-plain 11 11 11 11 11 11 11 11 11 11

runs the untraced benchmark once per seed given and prints, for each
end-to-end metric, the median of its values and the distance between
their first and third quartile (statistics.quantiles, n=4) as a share
of the median, beside the metric's bound from BENCHMARK.json. Distinct
seeds give the spread over inputs, which is how a regression check
samples; one seed repeated gives the spread between runs of the same
input.
"""

import json
import statistics
import subprocess
import sys
import time


def main():
    if len(sys.argv) < 4:
        sys.exit("usage: spread.py WORKLOAD SEED SEED...")
    workload, seeds = sys.argv[1], sys.argv[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        start = time.monotonic()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        wall = time.monotonic() - start
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(row), flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{metric['name']:>14}: median {median:.6g}  spread {spread:.4f}"
              f"  bound {metric['bound']} (a third: {metric['bound'] / 3:.4f})")


if __name__ == "__main__":
    main()
