#!/usr/bin/env python3
"""The benchmark's own checks, in one command:

    python3 perfbench/check.py

Run from the root of a treeq checkout. It builds the benchmark (run.py's
build), then checks that

  1. the same seed gives the same request digest on every workload, and
     another seed a different one;
  2. every text of the serve_zipf pool answers its reference answer on
     every document;
  3. a short run (1 second) of every workload, end to end and traced,
     prints a result line with exactly the keys correct, attempted, failed
     and metrics, with correct true, no failed operation, and every metric
     BENCHMARK.json names for that mode with its unit.

It prints every metric of every run with its unit and exits non-zero on
the first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

SEEDS = ("7", "8")


def fail(why):
    sys.stderr.write("check failed: %s\n" % why)
    sys.exit(1)


def binary(*args):
    done = subprocess.run([run.BINARY] + list(args), capture_output=True,
                          text=True)
    if done.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(args), done.returncode,
                                   done.stderr.strip()))
    return done.stdout.strip().splitlines()


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        first = binary("--workload", w, "--seed", SEEDS[0], "--digest")[-1]
        again = binary("--workload", w, "--seed", SEEDS[0], "--digest")[-1]
        other = binary("--workload", w, "--seed", SEEDS[1], "--digest")[-1]
        if first != again:
            fail("%s: seed %s gave digests %s and %s" % (w, SEEDS[0], first,
                                                         again))
        if first == other:
            fail("%s: seeds %s and %s gave one digest" % (w, *SEEDS))
        print("%-13s digest %s (seed %s, twice), %s (seed %s)"
              % (w, first, SEEDS[0], other, SEEDS[1]))

    print(binary("--verify-pool", "--seed", SEEDS[0])[-1])

    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for w in workloads:
            lines = binary("--workload", w, "--seed", SEEDS[0], "--seconds",
                           "1", "--trace", trace)
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s trace %s: result keys %s" % (w, trace,
                                                      sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                fail("%s trace %s: correct=%s attempted=%s failed=%s"
                     % (w, trace, result["correct"], result["attempted"],
                        result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                fail("%s trace %s: metrics differ from BENCHMARK.json: "
                     "missing %s, extra or mis-united %s"
                     % (w, trace, sorted(set(expected) - set(got)),
                        sorted(k for k in got if expected.get(k) != got[k])))
            print("%s --trace %s: %d attempted, 0 failed" % (w, trace,
                                                            result["attempted"]))
            for name, m in sorted(result["metrics"].items()):
                print("    %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print("all checks passed")


if __name__ == "__main__":
    main()
