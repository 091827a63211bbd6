#!/usr/bin/env python3
"""graphassoc benchmark: one command that measures, checks and reports.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {census,complex,cli} --seed N \
        --seconds S --trace {0,1} [--smoke] [--inject-wrong]

Workloads (one client, closed loop: one operation at a time):

* ``census``: a library session in one process with caches shared by
  its calls: f-vectors, face lists, 2-face census, presentations, the
  1-skeleton and pairs of maximal nested sets on paths 3-7, cycles 3-7,
  stars with 3-4 legs and complete graphs 3-6, plus LP feasibility on
  sampled faces and incompatible families of C5, K5 and P6.
* ``complex``: chain complexes in one process: homology of P5, C5, K5
  and P6, Dynkin cohomology with four random coefficient systems each
  on P4 (also on a second relabeling), star-3, C4 and K4, constant
  coefficients on C6 and star-4, and ``verify_chain_map`` on P5.
* ``cli``: one fresh ``python -m graphassoc.cli`` process per invocation,
  46 invocations over all nine subcommands on generated input files.

Every round runs the workload's operations once, in a fresh
interpreter, because graphassoc's module-level caches are unbounded:
only then does every round measure the same program.  All rounds of a
run use the inputs made from ``--seed``.  Rounds repeat until
``--seconds`` have passed (at least four); each operation's time is
its median over the rounds (see ``op_times``), and set-up time is the
median of its samples, taken before every round.  Every time is scaled
by the machine's speed, read from a fixed loop timed next to it (see
``speed.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run: it alternates untraced and traced rounds, so
the difference is the tracing overhead, and the counters of all traced
rounds must repeat exactly.  ``--smoke``
shrinks every workload; ``--inject-wrong`` corrupts the first result to
show that the oracles catch it.  The last line of stdout is one JSON
object; a readable report and a run record in ``perfbench/results/``
come with it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

MIN_ROUNDS = 4
MIN_TRACED_PAIRS = 2
RUN_DEADLINE_S = 160.0  # no new round starts after this; workers are killed past it
CLI_CAP_S = 60.0
SETUP_SAMPLES = 2  # set-up-only processes before each round, besides the round's own

sys.path[:0] = [HERE, SRC]
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "success_rate": "ratio",
    "cli.p50_s": "s", "cli.p75_s": "s",
    **{f"cli.{kind}_s": "s" for kind in workloads.KINDS},
}
COUNTS = (
    "diagram.vertices", "nested.tubes", "nested.faces", "nested.edges",
    "nested.tube_cache_lookups", "nested.cache_entries",
    "polytope.feasibility_calls", "polytope.export_bytes", "polytope.inequalities",
    "homology.cells", "homology.matrix_entries", "homology.nnz", "homology.rank",
    "dynkin.cochain_dim", "dynkin.differential_nnz", "dynkin.solve_cache_lookups",
    "coherence.words", "coherence.letters", "coherence.sequence_steps",
    "cli.output_bytes",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in tracing.SPAN_NAMES},
    "polytope.feasibility_max_s": "s", "homology.snf_max_s": "s",
    **{name: "count" for name in COUNTS},
    "nested.tube_cache_hit_ratio": "ratio", "dynkin.solve_cache_hit_ratio": "ratio",
    "trace.overhead_s": "s", "trace.coverage": "ratio", "trace.unattributed_s": "s",
}


class Round(dict):
    """One round's record: op times and speed factors, failures, (traced) spans and counts."""

    def scaled(self):
        return [(kind, t * f) for (kind, t), f in zip(self["times"], self["factors"])]

    @property
    def factor(self):
        """The round's typical speed factor, for its span times."""
        return median(self["factors"]) or 1.0

    @property
    def wall(self):
        return sum(t for _, t in self.scaled())


def failed_round(message):
    return Round(setup=None, times=[], factors=[], failures=[message])


def child_env():
    # A fixed hash seed keeps set iteration order, and so every counter,
    # the same for one seed across runs.
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def remaining(start):
    return RUN_DEADLINE_S - (time.monotonic() - start)


# ---------------------------------------------------------------------------
# library workloads: one worker process per round

def library_round(args, round_id, trace, start, spans_path, setup_only=False):
    out_path = os.path.join(args.workdir, f"round-{round_id}-{trace}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
            str(round_id), str(int(trace)), str(int(args.smoke)), str(int(args.inject_wrong)),
            str(int(setup_only)), out_path, spans_path]
    scale = speed.factor(speed.sample())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              timeout=max(remaining(start), 5.0))
    except subprocess.TimeoutExpired:
        return failed_round("round exceeded the run deadline")
    if proc.returncode != 0 or not os.path.exists(out_path):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return failed_round(f"worker exited {proc.returncode}: {tail}")
    with open(out_path, encoding="utf-8") as fh:
        doc = Round(json.load(fh))
    doc["setup"] = (doc.pop("ready") - spawned) * scale
    return doc


# ---------------------------------------------------------------------------
# cli workload: the parent runs every invocation as its own process

def cli_prepare(args, start):
    """The invocations, with input files and expected outputs made by a worker process.

    This process never imports graphassoc, so the peak RSS of each CLI
    process it starts is that process's own (see ``run_cli``).
    """
    out_path = os.path.join(args.workdir, "invocations.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
            "0", "0", str(int(args.smoke)), "0", "0", out_path, ""]
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          timeout=max(remaining(start), 5.0))
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise SystemExit(f"run.py: preparing the cli inputs failed: {tail}")
    with open(out_path, encoding="utf-8") as fh:
        return [workloads.Invocation(**dict(inv, expected=inv["expected"].encode("utf-8")))
                for inv in json.load(fh)]


class CliTimeout(Exception):
    pass


def _cli_alarm(signum, frame):
    raise CliTimeout


def run_cli(argv, out_path, err_path):
    """Run one CLI process; (time it ended, exit status, stdout, stderr, peak RSS in kB).

    None if it passes the cap.  Its output goes to files, so the process
    never waits for this one to read a pipe; ``os.wait4`` gives that one
    process's peak RSS.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
    previous = signal.signal(signal.SIGALRM, _cli_alarm)
    signal.setitimer(signal.ITIMER_REAL, CLI_CAP_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except CliTimeout:
        proc.kill()
        proc.wait()
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        return ended, proc.returncode, out.read(), err.read(), usage.ru_maxrss


def cli_help_time():
    scale = speed.factor(speed.sample())
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "graphassoc.cli", "--help"],
                              env=child_env(), cwd=ROOT, capture_output=True, timeout=CLI_CAP_S)
    except subprocess.TimeoutExpired:
        return None
    elapsed = (time.monotonic() - spawned) * scale
    return elapsed if proc.returncode == 0 and proc.stdout else None


def cli_round(args, invocations, trace, round_id, spans_path):
    doc = Round(setup=None, times=[], failures=[], counts=Counter(), self=Counter(),
                longest=Counter(), cache=Counter(), cache_entries=0, covered=0.0, maxrss_kb=0)
    out_path = os.path.join(args.workdir, "stdout")
    err_path = os.path.join(args.workdir, "stderr")
    speeds = []
    for index, inv in enumerate(invocations):
        speeds.append((index, speed.sample(repeats=1)))
        record_path = os.path.join(args.workdir, f"record-{round_id}-{index}.json")
        if inv.off_path and os.path.exists(inv.off_path):
            os.remove(inv.off_path)
        spawned = time.monotonic()
        if trace:
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), repr(spawned),
                    record_path] + inv.argv
        else:
            argv = [sys.executable, "-m", "graphassoc.cli"] + inv.argv
        ran = run_cli(argv, out_path, err_path)
        if ran is None:
            doc["times"].append([inv.kind, CLI_CAP_S])
            doc["failures"].append(f"{inv.label}: no answer within {CLI_CAP_S:.0f} s")
            continue
        ended, status, stdout, stderr, maxrss_kb = ran
        doc["times"].append([inv.kind, ended - spawned])
        doc["maxrss_kb"] = max(doc["maxrss_kb"], maxrss_kb)
        output_bytes = len(stdout)
        if args.inject_wrong and index == 0:
            stdout += b" "
        error = None
        if status != 0:
            error = f"exit status {status}: {stderr.decode(errors='replace')[:200]}"
        elif stdout != inv.expected:
            error = "stdout differs from json.dumps of the library payload"
        elif inv.off_path:
            with open(inv.off_path, encoding="utf-8") as fh:
                if fh.read() != inv.expected_off:
                    error = "OFF file differs from off_text"
        if error:
            doc["failures"].append(f"{inv.label}: {error}")
        if trace and status == 0:
            with open(record_path, encoding="utf-8") as fh:
                rec = json.load(fh)
            doc["counts"].update(rec["counts"])
            doc["counts"]["cli.output_bytes"] += output_bytes
            doc["self"].update(rec["self"])
            doc["self"]["cli.interpreter"] += rec["interpreter"]
            for name, value in rec["longest"].items():
                doc["longest"][name] = max(doc["longest"][name], value)
            doc["cache"].update(rec["cache"])
            doc["cache_entries"] += rec["cache_entries"]
            doc["covered"] += sum(rec["self"].values()) + rec["interpreter"]
            # time.monotonic and time.perf_counter share one clock on Linux
            interpreter = ["cli.interpreter", spawned, spawned + rec["interpreter"], None, index]
            tracing.write_spans(spans_path, round_id, rec["spans"] + [interpreter], op=index)
    speeds.append((len(invocations), speed.sample(repeats=1)))
    doc["factors"] = speed.op_factors(speeds, len(doc["times"]))
    return doc


# ---------------------------------------------------------------------------
# metrics

def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def outcome(rounds):
    """Operations attempted and failed; a round that died counts as one failed operation."""
    attempted = sum(len(r["times"]) or 1 for r in rounds)
    failed = sum(len(r["failures"]) if r["times"] else 1 for r in rounds)
    return attempted, failed


def op_times(rounds):
    """Each operation's median scaled time over the rounds, with its kind.

    Every round runs the same operations on the same inputs in a fresh
    process, so they differ only by what the machine does meanwhile.
    Each time is scaled by the machine's speed around it (see
    ``speed.py``) and the median over rounds drops what noise is left.
    On the same ten runs per workload this median of scaled times
    spread least from seed to seed, against the least scaled time and
    the least or median plain time.
    """
    good = [r.scaled() for r in rounds if r["times"] and not r["failures"]]
    if not good or any(len(t) != len(good[0]) for t in good):
        good = [max((r.scaled() for r in rounds), key=len)]
    return [(ops[0][0], median([t for _, t in ops])) for ops in zip(*good)]


def end_to_end(rounds, setups, peak_kb):
    attempted, failed = outcome(rounds)
    ops = op_times(rounds)
    times = [t for _, t in ops] or [0.0]
    p50, p75 = quartiles(times)[1:]
    out = {
        "setup_s": median(setups),
        "wall_s": sum(times),
        "peak_rss_mb": peak_kb / 1024.0,
        "success_rate": (attempted - failed) / attempted,
        "cli.p50_s": p50,
        "cli.p75_s": p75,
    }
    for kind in workloads.KINDS:
        out[f"cli.{kind}_s"] = sum(t for k, t in ops if k == kind)
    return out


def per_layer(traced, untraced):
    """Per-layer metrics of the traced rounds, and whether their counters repeat.

    A traced round that died has no spans or counters: it is left out
    of the metrics, and the counters do not count as repeating.
    """
    complete = [r for r in traced if "self" in r]
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}_s"] = median([r["self"].get(name, 0.0) * r.factor for r in complete])
    for metric, name in (("polytope.feasibility_max_s", "polytope.feasibility"),
                         ("homology.snf_max_s", "homology.snf")):
        out[metric] = median([r["longest"].get(name, 0.0) * r.factor for r in complete])
    counted = []
    for r in complete:
        counts = Counter(r["counts"])
        for stem, metric in (("tube_cache", "nested.tube_cache"), ("solve_cache", "dynkin.solve_cache")):
            hits, misses = r["cache"].get(stem + ".hits", 0), r["cache"].get(stem + ".misses", 0)
            counts[metric + "_lookups"] = hits + misses
            counts[metric + "_hits"] = hits
        counts["nested.cache_entries"] = r["cache_entries"]
        counted.append(counts)
    repeat = len(complete) == len(traced) and all(c == counted[0] for c in counted)
    first = counted[0] if counted else Counter()
    for name in COUNTS:
        out[name] = first.get(name, 0)
    for metric in ("nested.tube_cache", "dynkin.solve_cache"):
        lookups = first.get(metric + "_lookups", 0)
        out[metric + "_hit_ratio"] = first.get(metric + "_hits", 0) / lookups if lookups else 0.0
    wall = sum(t for _, t in op_times(traced))
    out["trace.overhead_s"] = wall - sum(t for _, t in op_times(untraced))
    raw = [(r, sum(t for _, t in r["times"])) for r in complete]
    out["trace.coverage"] = median([r["covered"] / wall for r, wall in raw if wall])
    out["trace.unattributed_s"] = median([(wall - r["covered"]) * r.factor for r, wall in raw])
    return out, repeat, len(counted)


def commit_of(root):
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "complex", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for self-checks")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt the first result of every round")
    return parser.parse_args(argv)


def build():
    """Compile graphassoc's sources, so no measured process pays for it."""
    if not os.path.isfile(os.path.join(SRC, "graphassoc", "__init__.py")):
        raise SystemExit(f"run.py: no graphassoc sources under {SRC}")
    if not compileall.compile_dir(os.path.join(SRC, "graphassoc"), quiet=1):
        raise SystemExit("run.py: graphassoc does not compile")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    build()
    start = time.monotonic()
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS, exist_ok=True)
    args.workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(args.workdir, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if trace:
        open(spans_path, "w").close()
    is_cli = args.workload == "cli"
    untraced, traced, setups = [], [], []
    invocations = None
    try:
        round_id = 0
        while remaining(start) > 0:
            done = len(traced) if trace else len(untraced)
            if done >= (MIN_TRACED_PAIRS if trace else MIN_ROUNDS) and \
                    time.monotonic() - start >= args.seconds:
                break
            # spread the set-up samples over the run, away from each other
            for _ in range(SETUP_SAMPLES):
                setups.append(cli_help_time() if is_cli else library_round(
                    args, 0, False, start, spans_path, setup_only=True)["setup"])
            for traced_round in ((False, True) if trace else (False,)):
                if is_cli:
                    invocations = invocations or cli_prepare(args, start)
                    r = cli_round(args, invocations, traced_round, round_id, spans_path)
                else:
                    r = library_round(args, round_id, traced_round, start, spans_path)
                    setups.append(r["setup"])
                (traced if traced_round else untraced).append(r)
            round_id += 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    setups = [t for t in setups if t is not None]

    rounds = untraced + traced
    peak_kb = median([r["maxrss_kb"] for r in untraced if "maxrss_kb" in r])
    attempted, failed = outcome(rounds)
    e2e = end_to_end(untraced, setups, peak_kb)
    repeat = True
    if trace:
        values, repeat, n_traced = per_layer(traced, untraced)
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    correct = failed == 0 and repeat

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit_of(ROOT), "rounds": len(untraced),
        "traced_rounds": len(traced), "samples": {
            "ops_per_round": [len(r["times"]) for r in untraced],
            "setup": len(setups)},
        "per_round": {"wall_s": [r.wall for r in untraced], "setup_s": setups,
                      "traced_wall_s": [r.wall for r in traced],
                      "op_s": [[t for _, t in r["times"]] for r in untraced],
                      "factors": [r["factors"] for r in untraced]},
        "failures": [f for r in rounds for f in r["failures"]][:50],
        "counters_repeat": repeat, "metrics": values, "end_to_end": e2e,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# graphassoc benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={record['python']} nproc={record['nproc']} "
          f"commit={record['commit']}")
    print(f"# {len(untraced)} untraced rounds, {len(traced)} traced rounds, "
          f"{len(setups)} set-up samples, ops per round {record['samples']['ops_per_round']}")
    if trace:
        print(f"# counters repeat across {n_traced} traced rounds: {'yes' if repeat else 'NO'}")
    else:
        print(f"# cli.p50_s and cli.p75_s are quartiles of {len(op_times(untraced))} "
              "per-operation times, each the median over the rounds")
    for failure in record["failures"][:10]:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
