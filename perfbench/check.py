#!/usr/bin/env python3
"""Self-check of the benchmark at reduced sizes.

Usage, from the root of a checkout::

    python3 perfbench/check.py

For every workload, in ``--smoke`` mode, it checks that:

* the untraced run prints every end-to-end metric of ``BENCHMARK.json``
  and the traced run every per-layer metric, each with its unit, and
  both report every operation correct;
* two traced runs of one seed give identical count metrics;
* ``--inject-wrong`` is caught: ``correct`` turns false, ``failed`` and
  ``success_rate`` move.

It also checks that ``run.py`` refuses to run, without printing a
result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, timeout=180)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"]
        counts = []
        for trace in (0, 1, 1):
            code, result = run(base + ["--trace", str(trace)])
            where = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metric names or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed operations")
            if trace:
                counts.append({k: m["value"] for k, m in result["metrics"].items()
                               if m["unit"] == "count"})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: count metrics differ between two runs of one seed")
        code, result = run(base + ["--trace", "0", "--inject-wrong"])
        caught = (result is not None and not result["correct"] and result["failed"] > 0
                  and result["metrics"]["success_rate"]["value"] < 1)
        if not caught:
            problems.append(f"{workload}: an injected wrong answer was not caught")
        print(f"{workload}: checked", flush=True)

    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        code, result = run(["--workload", "census", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append("run.py did not refuse a checkout without graphassoc sources")

    for problem in problems:
        print("FAIL", problem)
    print("all checks passed" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
