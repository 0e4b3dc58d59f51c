#!/usr/bin/env python3
"""The benchmark's own test, at tiny size.

Run from the repository root:

    python3 perfbench/test_bench.py

For every workload, untraced and traced, it runs the benchmark twice with
--size tiny and checks that
- each run exits 0 and reports correct=true, attempted >= 1, failed = 0;
- every metric BENCHMARK.json lists for that mode is printed exactly once
  in the text lines, with its unit, and the JSON result holds exactly
  those metrics with those units;
- the deterministic metrics (simulated latencies, timely shares, counts,
  words, messages and events per transaction) are identical in both runs.
Exits 1 at the first failed check.
"""

import json
import subprocess
import sys

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)

# Units and ratios that depend only on the simulated runs, never on the
# wall-clock.
DETERMINISTIC_UNITS = ("ms", "count", "1/txn", "words/txn")
DETERMINISTIC_RATIOS = ("timely_share", "words_growth_2x", "hedge_win_ratio")


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def deterministic(metric):
    return metric["unit"] in DETERMINISTIC_UNITS or metric["name"].endswith(
        DETERMINISTIC_RATIOS
    )


def run(workload, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d\n%s%s" % (" ".join(cmd), proc.returncode, proc.stdout, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(tag, expected, text, result):
    if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
        fail("%s: correct=%s attempted=%s failed=%s"
             % (tag, result["correct"], result["attempted"], result["failed"]))
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        fail("%s: JSON metrics missing %s, extra %s" % (
            tag,
            sorted(set(names) - set(result["metrics"])),
            sorted(set(result["metrics"]) - set(names)),
        ))
    for m in expected:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail("%s: %s has unit %s in JSON" % (tag, m["name"], result["metrics"][m["name"]]["unit"]))
        rows = [line.split() for line in text if line.split()[:1] == [m["name"]]]
        if len(rows) != 1:
            fail("%s: %s printed %d times" % (tag, m["name"], len(rows)))
        if rows[0][2:3] != [m["unit"]]:
            fail("%s: %s printed without its unit %s" % (tag, m["name"], m["unit"]))


def main():
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s --trace %d" % (workload["name"], trace)
            runs = [run(workload["name"], trace) for _ in range(2)]
            for text, result in runs:
                check_printed(tag, SPEC[key], text, result)
            for m in filter(deterministic, SPEC[key]):
                a, b = (result["metrics"][m["name"]]["value"] for _, result in runs)
                if a != b:
                    fail("%s: %s differs between runs: %r vs %r" % (tag, m["name"], a, b))
            print("ok %s" % tag)
    print("all benchmark checks passed")


if __name__ == "__main__":
    main()
