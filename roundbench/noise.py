#!/usr/bin/env python3
"""Wall-clock vs CPU noise of the timed run, for NOISE.md.

    python3 roundbench/noise.py --workload <name> [--runs 8] [--seconds 15]
                                [--threads 2] [--seed 1]

Runs the roundbench binary's timed mode --runs times at one seed and
prints, over the runs, the range and quartile spread (IQR / median) of
  * round p50 in wall seconds and in process CPU seconds, and
  * set-up as one sample (the run's first) and as the median of the run's
    set-ups, each in wall and CPU seconds.
Build the binary first (any run.py invocation does).
"""

import argparse
import json
import os
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = os.path.join(build_dir, "bin", "roundbench")
    series = {k: [] for k in ("round p50 wall_s", "round p50 cpu_s",
                              "setup single wall_s", "setup single cpu_s",
                              "setup median wall_s", "setup median cpu_s")}
    for _ in range(args.runs):
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--threads", str(args.threads)],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        r = json.loads(out.strip().splitlines()[-1])["result"]
        series["round p50 wall_s"].append(statistics.median(r["round_wall_s"]))
        series["round p50 cpu_s"].append(statistics.median(r["round_cpu_s"]))
        series["setup single wall_s"].append(r["setup_wall_s"][0])
        series["setup single cpu_s"].append(r["setup_cpu_s"][0])
        series["setup median wall_s"].append(
            statistics.median(r["setup_wall_s"]))
        series["setup median cpu_s"].append(
            statistics.median(r["setup_cpu_s"]))
    print("%s, %d runs, %d threads, %.0f s each, load %s" %
          (args.workload, args.runs, args.threads, args.seconds,
           open("/proc/loadavg").read().split()[0]))
    for name, values in series.items():
        print("  %-20s %.4g-%.4g  spread %.3f" %
              (name, min(values), max(values), spread(values)))


if __name__ == "__main__":
    main()
