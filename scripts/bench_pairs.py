#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized into a BENCH_*.json.

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i
--seconds SECONDS --trace 0`` in both checkouts, with SECONDS the
``run_seconds`` of the change's BENCHMARK.json, the parent first when i
is even and the change first when i is odd; each run's last stdout line
is the benchmark's JSON report.  The output file gets, under
``workloads[W]``, every pair's end-to-end metrics with the ``correct``
flags of its parent and change runs, and per metric each side's median
and quartiles, the change of the median in percent of the parent's and
the pairs the change won (``summarize``).  Other keys of an existing
output file are kept, so one file can hold several workloads.  When a
run reports ``correct: false`` the file is still written, and the script
exits 1 naming each such run's pair and side.  When a run exits nonzero
or prints nothing, the pairs completed before it are written, and the
script exits 1 naming that run's pair, seed, side and exit code.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
       --pairs N --seed S [--out BENCH_x.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def summarize(pairs, higher_better=()):
    """Per metric of the pairs' runs: median [Q1, Q3] of each side, change in %, wins.

    Quartiles are ``statistics.quantiles(method='inclusive')``.  The change
    wins a pair when its value is better than the parent's, lower unless
    the metric is in ``higher_better``; ties count for neither side.
    """
    out = {}
    for name in pairs[0]["parent"]:
        values = {side: [pair[side][name] for pair in pairs] for side in ("parent", "change")}
        stats = {}
        for side, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
            stats[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
        sign = -1 if name in higher_better else 1
        base = stats["parent"]["median"]
        out[name] = {
            **stats,
            "change_pct": 100 * (stats["change"]["median"] - base) / base if base else 0.0,
            "wins": sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
        }
    return out


class RunError(Exception):
    """A benchmark run that exited nonzero or printed no report."""

    def __init__(self, returncode, stderr):
        super().__init__(f"exit code {returncode}\n{stderr[-2000:]}")


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run in ``checkout``: its ``correct`` flag and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(proc.returncode, proc.stderr)
    report = json.loads(lines[-1])
    return report["correct"], {name: m["value"] for name, m in report["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="BENCH_pairs.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    higher = {m["name"] for m in benchmark["end_to_end"] if m["better"] == "higher"}
    seconds = benchmark["run_seconds"]

    pairs, failed = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair, correct = {"seed": seed, "first": order[0]}, {}
        try:
            for side in order:
                checkout = getattr(args, side)
                correct[side], pair[side] = run_once(checkout, args.workload, seed, seconds)
                print(f"# pair {i} seed {seed} {side}: correct={correct[side]}", file=sys.stderr)
        except RunError as exc:
            failed = f"pair {i} (seed {seed}) {side} failed, {exc}"
            break
        pair["correct"] = [correct["parent"], correct["change"]]
        pairs.append(pair)
    if pairs:
        write_pairs(args, pairs, seconds, higher)
    wrong = [f"pair {i} (seed {pair['seed']}) {side}" for i, pair in enumerate(pairs)
             for side, ok in zip(("parent", "change"), pair["correct"]) if not ok]
    if wrong:
        print(f"runs that reported correct: false: {', '.join(wrong)}", file=sys.stderr)
    if failed:
        print(f"{len(pairs)} pairs written; {failed}", file=sys.stderr)
    return 1 if wrong or failed else 0


def write_pairs(args, pairs, seconds, higher):
    """Summarize ``pairs`` under ``workloads[W]`` of ``args.out``, keeping its other keys."""
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["command"] = f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0"
    doc["method"] = ("alternating parent/change pairs per workload, the same seed within a "
                     "pair, even pairs run the parent first; correct lists the parent's flag, "
                     "then the change's; medians [Q1, Q3] over the runs of each side; "
                     "quartiles by statistics.quantiles(method='inclusive')")
    summary = summarize(pairs, higher)
    doc.setdefault("workloads", {})[args.workload] = {"pairs": pairs, "metrics": summary}
    doc.setdefault("seeds", {})[args.workload] = f"{args.seed}-{args.seed + len(pairs) - 1}"
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
