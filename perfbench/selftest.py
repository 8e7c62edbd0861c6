#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks that BENCHMARK.json and
perfbench/metrics.json agree and that every name is well formed, then
runs all four workloads at smoke length, untraced and traced, and checks
that each run passes its output checks and emits exactly the metrics
BENCHMARK.json declares, with the declared units. Seed 1 also checks
that the grids reproduce harness::runEval byte for byte. Finally it
checks that the benchmark refuses to run without the repository
sources. Exits 1 on the first problem.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "selftest")


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_declarations(bench, table):
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    names = workloads + list(e2e) + list(layer)
    for name in names:
        check(NAME.match(name), f"malformed name {name!r}")
    check(len(names) == len(set(names)), "a name is used twice")
    for m in list(e2e.values()) + list(layer.values()):
        check(UNIT.match(m["unit"]), f"malformed unit {m['unit']!r}")
    check("setup_s" in e2e, "setup_s is not declared")
    check(set(table["end_to_end"]) == set(e2e),
          "metrics.json end_to_end differs from BENCHMARK.json")
    check(set(table["per_layer"]) == set(layer),
          "metrics.json per_layer differs from BENCHMARK.json")
    for name, row in table["per_layer"].items():
        for move in row["moves"]:
            metric, _, workload = move.partition("@")
            check(metric in e2e and workload in workloads,
                  f"{name}: unknown move target {move!r}")
        for workload in row["still"]:
            check(workload in workloads, f"{name}: unknown workload {workload!r}")
    return workloads, e2e, layer


def run(args, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(workload, trace, seed, declared):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    result = run(args)
    label = f"{workload} trace={trace} seed={seed}"
    check(result.returncode == 0,
          f"{label} exited {result.returncode}:\n{result.stderr[-3000:]}")
    line = result.stdout.strip().splitlines()[-1]
    doc = json.loads(line)
    check(set(doc) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(doc)}")
    check(doc["correct"] is True and doc["failed"] == 0,
          f"{label}: output checks failed")
    check(isinstance(doc["attempted"], int) and doc["attempted"] >= 1,
          f"{label}: attempted {doc['attempted']}")
    emitted = doc["metrics"]
    check(set(emitted) == set(declared),
          f"{label}: missing {sorted(set(declared) - set(emitted))}, "
          f"extra {sorted(set(emitted) - set(declared))}")
    for name, metric in emitted.items():
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} = {value!r}")
        check(metric["unit"] == declared[name]["unit"],
              f"{label}: {name} unit {metric['unit']!r}")
    print(f"selftest: ok {label} ({len(emitted)} metrics, "
          f"{doc['attempted']} checks)")


def check_refuses_without_sources():
    # A directory holding only BENCHMARK.json and perfbench/ must make
    # the benchmark exit non-zero without printing a result.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy("BENCHMARK.json", SCRATCH)
    shutil.copytree("perfbench", os.path.join(SCRATCH, "perfbench"))
    result = run(["--workload", "toolchain", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=SCRATCH)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    check(result.returncode != 0, "ran without the repository sources")
    check(not result.stdout.strip(), "printed a result without the sources")
    print("selftest: ok refuses to run without the repository sources")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/metrics.json") as f:
        table = json.load(f)
    workloads, e2e, layer = check_declarations(bench, table)
    print("selftest: ok declarations")
    for workload in workloads:
        check_run(workload, 0, 1, e2e)
        check_run(workload, 1, 1, layer)
    check_run("compiled-grid", 0, 7, e2e)
    check_refuses_without_sources()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
