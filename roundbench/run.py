#!/usr/bin/env python3
"""Round-cost benchmark of the Helios simulator.

    python3 roundbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator's libraries and the
roundbench binary in Release (into $CARGO_TARGET_DIR, default .bench_build),
runs one workload, checks its outputs, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. An earlier line holds the
run's environment, checks and sample counts.

Exit codes: 0 all checks passed; 1 a correctness check failed (the result is
still printed); 2 the program could not be built or run (nothing printed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

POOL_THREADS = 2


def die(message):
    print("roundbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found next to the benchmark")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    release = False
    if os.path.isfile(cache):
        with open(cache) as f:
            release = "CMAKE_BUILD_TYPE:STRING=Release\n" in f.read()
    if not release:
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", build_dir, "--target", "roundbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "bin", "roundbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(POOL_THREADS), "--workdir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("roundbench exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])
    result = raw["result"]

    if args.trace == 0:
        values = metrics.end_to_end(result)
        table = metrics.END_TO_END
        detail = metrics.timed_detail(result)
    else:
        values = metrics.per_layer(result)
        table = metrics.PER_LAYER
        detail = {"traced_rounds": result["traced_rounds"],
                  "warmup_rounds_excluded": result["warmup_rounds_excluded"],
                  "untraced_round_cpu_s": result["untraced_round_cpu_s"]}
    block = metrics.metrics_block(values, table)
    complete = all(isinstance(m["value"], (int, float)) for m in block.values())
    correct = bool(raw["correct"]) and complete

    print(json.dumps({"workload": raw["workload"], "seed": raw["seed"],
                      "env": raw["env"], "checks": raw["checks"],
                      "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": block}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
