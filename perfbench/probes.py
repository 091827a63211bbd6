#!/usr/bin/env python3
"""North-star probes: single large calls measured once, with a cap each.

Usage, from the root of a checkout::

    python3 perfbench/probes.py

Each probe runs once, in a fresh interpreter, and times one public
call; a probe that passes the ``CAP_S`` cap is recorded as a timeout,
not as a failure of the run.  These are the roadmap's targets,
outside the gated workloads and with no bound:

* ``c6_homology``: ``homology`` of the 6-cycle (baseline 11.6 s, target < 1 s)
* ``p9_fvector``: ``f_vector`` of the 9-vertex path (8.9 s, target < 1 s)
* ``star5_homology``: ``homology`` of the star with five legs (~25 s in SNF)
* ``k6_hyperplane_lp``: ``is_face_nonempty`` on K6 sliced by one
  hyperplane (no answer within 120 s at the baseline)

The table goes to stdout and a record to ``perfbench/results/probes.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CAP_S = 120.0  # wall cap per probe

PROBES = {
    "c6_homology": (("cycle", 6), "homology"),
    "p9_fvector": (("path", 9), "fvector"),
    "star5_homology": (("star", 5), "homology"),
    "k6_hyperplane_lp": (("complete", 6), "lp"),
}


def run_probe(name):
    """Child side: time one call and check its answer; prints one JSON line."""
    sys.path[:0] = [HERE, SRC]
    import random

    from graphassoc import homology, nested, polytope
    from graphassoc.diagram import parse_diagram

    import workloads

    key, what = PROBES[name]
    D = parse_diagram(workloads.relabeled_text(*key, random.Random(0))[0])
    if what == "lp":
        R = polytope.make_realization(D)
        tube = next(m for m in nested.connected_subdiagrams(D) if bin(m).count("1") == 2)
        start = time.perf_counter()
        result = polytope.is_face_nonempty(R, [tube])
        elapsed = time.perf_counter() - start
        error = None if result else "a single tube must give a nonempty face"
    elif what == "fvector":
        start = time.perf_counter()
        f = nested.f_vector(D)
        elapsed = time.perf_counter() - start
        error = workloads.check_fvector(key, f)
    else:
        start = time.perf_counter()
        doc = homology.homology_json(D)
        elapsed = time.perf_counter() - start
        want = [{"betti": 1}] + [{"betti": 0}] * (D.n - 1)
        error = None if doc["H"] == want else f"homology {doc['H']} is not acyclic"
    print(json.dumps({"seconds": elapsed, "error": error}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="graphassoc north-star probes")
    parser.add_argument("--child", choices=sorted(PROBES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_probe(args.child)
        return 0
    sys.path.insert(0, HERE)
    from run import build, child_env, commit_of

    build()
    results = {}
    for name in PROBES:
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                                  env=child_env(), cwd=ROOT, capture_output=True, timeout=CAP_S)
        except subprocess.TimeoutExpired:
            results[name] = {"status": "timeout", "cap_s": CAP_S}
        else:
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                results[name] = {"status": "error", "stderr": proc.stderr.decode()[-300:]}
            else:
                doc = json.loads(lines[-1])
                results[name] = {"status": "wrong" if doc["error"] else "ok",
                                 "seconds": doc["seconds"], "error": doc["error"],
                                 "process_s": time.monotonic() - spawned}
        r = results[name]
        shown = f"{r['seconds']:.3f} s" if "seconds" in r else f"> {CAP_S:.0f} s"
        print(f"{name:20s} {r['status']:8s} {shown}", flush=True)
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "commit": commit_of(ROOT), "cap_s": CAP_S, "probes": results}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "probes.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0 if all(r["status"] in ("ok", "timeout") for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
