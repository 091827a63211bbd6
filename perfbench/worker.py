"""One round of a library workload in a fresh interpreter.

Run by ``run.py``, never by hand: ``worker.py <workload> <seed> <round>
<trace> <smoke> <inject> <setup only> <result path> <spans path>``.  The
round imports graphassoc from ``src/``, builds its inputs, notes the
time it became ready (set-up ends there), runs every operation under a
wall cap and checks each result after its timed region.  It writes one
JSON result file; with tracing on it also appends its spans to the
spans file.  With ``<setup only>`` set it stops once it is ready.  For
the ``cli`` workload it only writes the input files and the expected
outputs of the CLI calls (see ``prepare_cli``).
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from collections import Counter  # noqa: E402

import graphassoc  # noqa: E402
from graphassoc import _ratlinalg, coherence, diagram, dynkin, homology, nested, polytope  # noqa: E402,F401

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OP_CAP_S = 30.0
SPEED_EVERY_S = 0.5  # how often the machine's speed is read between operations


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded its {OP_CAP_S:.0f} s cap")


def corrupt(result):
    """A wrong answer of the same shape, for the harness's own check."""
    if isinstance(result, list) and result and isinstance(result[0], int):
        return [result[0] + 1] + result[1:]
    return None


def prepare_cli(seed, smoke, out_path):
    """Write the cli workload's input files next to ``out_path`` and its invocations into it.

    This runs in a process of its own so that the process that starts
    the CLI calls never imports graphassoc: on Linux a child's peak RSS
    counts from its parent's RSS at the moment it was started.
    """
    rng = workloads.rng_for("cli", seed)
    invocations = workloads.cli_invocations(graphassoc, rng, smoke, os.path.dirname(out_path))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump([dict(vars(inv), expected=inv.expected.decode("utf-8"))
                   for inv in invocations], fh)
    return 0


def main(argv):
    workload, seed, round_id, trace, smoke, inject, setup_only, out_path, spans_path = argv
    seed, round_id = int(seed), int(round_id)
    trace, smoke, inject = trace == "1", smoke == "1", inject == "1"
    if workload == "cli":
        return prepare_cli(seed, smoke, out_path)
    make_inputs, make_ops = workloads.LIBRARY[workload]
    rng = workloads.rng_for(workload, seed)

    tracer = tracing.Tracer()
    if trace:
        tracer.install(graphassoc)
        tracer.active, tracer.op = True, "setup"
    inputs = make_inputs(graphassoc, rng, smoke)
    tracer.active, tracer.op = False, None
    ready = time.monotonic()
    if setup_only == "1":
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "times": [], "failures": []}, fh)
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    speeds = [(0, speed.sample())]  # (operations done, reference loop seconds)
    last_sample = time.perf_counter()
    times, failures = [], []
    cache = Counter()
    entries = 0
    ops = make_ops(graphassoc, inputs, rng, smoke)
    index = 0
    while True:
        try:
            op = next(ops)
        except StopIteration:
            break
        except Exception as exc:  # a failed preparation ends the round
            failures.append(f"preparing operation {index}: {exc!r}")
            break
        before = tracing.cache_stats(graphassoc)
        if trace:
            tracer.active, tracer.op = True, index
            span = tracer.begin("op." + op.kind)
        error = None
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            error = repr(exc)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if trace:
                tracer.end(span)
                tracer.active, tracer.op = False, None
        after = tracing.cache_stats(graphassoc)
        for stem, (hits, misses) in after.items():
            cache[stem + ".hits"] += hits - before[stem][0]
            cache[stem + ".misses"] += misses - before[stem][1]
        entries = tracing.cache_entries(graphassoc)
        if error is None:
            if inject and index == 0:
                result = corrupt(result)
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {exc!r}"
        times.append([op.kind, elapsed])
        if error is not None:
            failures.append(f"{op.kind} {op.label}: {error}")
        index += 1
        if time.perf_counter() - last_sample > SPEED_EVERY_S:
            speeds.append((index, speed.sample()))
            last_sample = time.perf_counter()
    speeds.append((index, speed.sample()))

    doc = {
        "ready": ready,
        "times": times,
        "failures": failures,
        "factors": speed.op_factors(speeds, index),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache": dict(cache),
        "cache_entries": entries,
    }
    if trace:
        spans = tracer.spans
        doc["counts"] = dict(tracer.counts)
        selfs, longest = tracing.self_times(spans)
        doc["self"] = dict(selfs)
        doc["longest"] = dict(longest)
        covered, _ = tracing.self_times(spans, ops_only=True)
        doc["covered"] = sum(covered.values())
        tracing.write_spans(spans_path, round_id, spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
