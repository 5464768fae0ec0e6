#!/usr/bin/env python3
"""Check a fresh BENCH_*.json record against its committed baseline.

Usage:  python3 tools/bench_compare.py RECORD BASELINE

The record's `bench` name selects, from DETERMINISTIC below, the row keys
and meta keys whose values are functions of the bench's inputs alone
(sizes, counts, answers). Those must equal the baseline's exactly, row for
row; timings are never compared. Exit code 0 = match, 1 = mismatch (each
difference printed), 2 = usage error or a bench with no entry here.
"""

import json
import sys

# bench name -> (row keys, meta keys) compared for exact equality.
DETERMINISTIC = {
    "bench_nodeset_kernels": (
        ("op_id", "n", "result_size"),
        ("input_nodes", "op0", "op1", "op2", "op3", "op4"),
    ),
    "bench_twigstack": (
        ("case_id", "matches", "holistic_intermediates",
         "binary_intermediates"),
        (),
    ),
    "bench_xpath_combined": (
        ("k", "naive_rule_applications", "set_at_a_time_axis_ops",
         "naive_ok", "result_size"),
        (),
    ),
    "bench_cache_reuse": (
        ("hit_rate", "requests", "distinct_keys", "executions",
         "result_cache_hits"),
        ("requests_per_mix", "query_texts"),
    ),
    "bench_plan_routing": (
        ("query_index", "engine_index", "eligible_engines"),
        ("num_documents", "products_per_document", "workload_queries",
         "evals_per_mode"),
    ),
    "bench_stream_memory": (
        ("sweep", "depth", "width", "nodes", "peak_frames", "events",
         "matches"),
        ("frame_bytes",),
    ),
}


def compare(record, baseline):
    """Returns the list of differences between two parsed records."""
    name = record.get("bench")
    if baseline.get("bench") != name:
        return ["bench name %r differs from the baseline's %r"
                % (name, baseline.get("bench"))]
    row_keys, meta_keys = DETERMINISTIC[name]
    problems = []
    got = [{k: r.get(k) for k in row_keys} for r in record["rows"]]
    want = [{k: r.get(k) for k in row_keys} for r in baseline["rows"]]
    if len(got) != len(want):
        problems.append("%d rows, baseline has %d" % (len(got), len(want)))
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append("row %d: %s != baseline %s" % (i, g, w))
    for k in meta_keys:
        g = record["meta"].get(k)
        w = baseline["meta"].get(k)
        if g != w:
            problems.append("meta %s: %r != baseline %r" % (k, g, w))
    return problems


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        record = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)
    name = record.get("bench")
    if name not in DETERMINISTIC:
        print("no deterministic keys known for bench %r" % name,
              file=sys.stderr)
        return 2
    problems = compare(record, baseline)
    for p in problems:
        print("%s: %s" % (name, p))
    if problems:
        return 1
    print("%s: %d rows match %s" % (name, len(record["rows"]), argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
