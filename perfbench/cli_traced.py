"""The graphassoc CLI with spans around its layers.

``cli_traced.py <spawn time> <record path> <cli arguments...>`` behaves
like ``python -m graphassoc.cli <cli arguments...>``: same stdout, same
stderr, same exit status.  It also writes a JSON record with its spans,
counters and cache statistics.  ``<spawn time>`` is the parent's
``time.monotonic()`` just before it started this process, so the
interpreter's start-up shows as its own span.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import tracer as tracing  # noqa: E402


def main(argv):
    spawned, record_path, args = float(argv[0]), argv[1], argv[2:]
    tracer = tracing.Tracer()
    tracer.active, tracer.op = True, 0
    span = tracer.begin("cli.import")
    import graphassoc
    from graphassoc import _ratlinalg, cli  # noqa: F401
    tracer.end(span)
    tracer.install(graphassoc)
    before = tracing.cache_stats(graphassoc)

    span = tracer.begin("cli.dispatch")
    result = cli.run(args)
    tracer.end(span)
    text = None
    if result.payload is not None:
        span = tracer.begin("cli.encode")
        text = json.dumps(result.payload, separators=(",", ":"))
        tracer.end(span)
    tracer.active = False

    if result.message:
        print(result.message, file=sys.stderr)
    if text is not None:
        print(text)
    sys.stdout.flush()
    after = tracing.cache_stats(graphassoc)
    selfs, longest = tracing.self_times(tracer.spans)
    record = {
        "interpreter": START - spawned,
        "counts": dict(tracer.counts),
        "self": dict(selfs),
        "longest": dict(longest),
        "cache": {f"{stem}.{part}": after[stem][i] - before[stem][i]
                  for stem in after for i, part in enumerate(("hits", "misses"))},
        "cache_entries": tracing.cache_entries(graphassoc),
        "spans": tracer.spans,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return result.status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
