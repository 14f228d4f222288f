#!/usr/bin/env python3
"""Reports (does not gate) how well the benchmark's figures on the dev
seed agree with those on the held-out seed.

Run from the repository root:

    python3 perfbench/heldout.py

It runs the command in BENCHMARK.json once per workload and seed, for
the file's run_seconds, and prints each end-to-end metric on both seeds
with their ratio. It always exits 0 unless a run itself fails.
"""
import json
import subprocess
import sys

DEV_SEED = 1
HELD_OUT_SEED = 7


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        dev = run(bench["command"], workload, DEV_SEED, bench["run_seconds"])
        held = run(bench["command"], workload, HELD_OUT_SEED, bench["run_seconds"])
        print(f"{workload}: seed {DEV_SEED} (dev) vs seed {HELD_OUT_SEED} (held out)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a, b = dev[name]["value"], held[name]["value"]
            ratio = b / a if a else float("nan")
            print(f"  {name:24} {a:14.6g} {b:14.6g}  ratio {ratio:.4f}  "
                  f"(bound {metric['bound']})")


if __name__ == "__main__":
    main()
