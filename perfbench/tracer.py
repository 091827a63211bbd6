"""Spans and counters recorded around graphassoc's layer functions.

Tracing wraps the module-level functions listed in ``LAYERS`` from the
outside: every graphassoc module namespace that holds one of them gets
a wrapper in its place, so calls between modules are seen too.  The
library itself is never edited.  Spans are kept in memory as
``(name, start, end, parent, op)`` and written out when a round ends:
``parent`` is the index of the enclosing span in the same process's
list and ``op`` the operation the span belongs to (``"setup"`` while
inputs are built).

Counters are recorded at the same boundaries, from the wrapped calls'
results, and only while ``Tracer.active`` is set: the benchmark's own
oracle calls are neither timed nor counted.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from functools import wraps

# (module, function) -> span name; the metric is ``<span name>_s``.
LAYERS = {
    ("diagram", "parse_diagram"): "diagram.parse",
    ("nested", "connected_subdiagrams"): "nested.tubes",
    ("nested", "_nested_families"): "nested.enumerate",
    ("nested", "f_vector"): "nested.fvector",
    ("nested", "classify_two_face"): "nested.twoface",
    ("nested", "edge_graph"): "nested.edge_graph",
    ("polytope", "is_face_nonempty"): "polytope.feasibility",
    ("polytope", "make_realization"): "polytope.realize",
    ("polytope", "export_polytope"): "polytope.export",
    ("polytope", "off_text"): "polytope.export",
    ("homology", "boundary_matrix"): "homology.boundary",
    ("homology", "smith_normal_form"): "homology.snf",
    ("dynkin", "random_coefficient_system"): "dynkin.coeffs",
    ("dynkin", "load_coefficients"): "dynkin.coeffs",
    ("dynkin", "cochain_space"): "dynkin.cochain",
    ("dynkin", "dynkin_differential"): "dynkin.differential",
    # the rank function dynkin_cohomology calls
    ("dynkin", "_rat_rank"): "dynkin.rank",
    ("dynkin", "verify_chain_map"): "dynkin.verify",
    ("coherence", "pentagon_relations"): "coherence.relations",
    ("coherence", "braid_relations"): "coherence.relations",
    ("coherence", "presentation_json"): "coherence.presentation",
    ("coherence", "good_elementary_sequence"): "coherence.sequence",
    ("coherence", "support"): "coherence.support",
    ("coherence", "central_support"): "coherence.support",
}

# Spans the CLI entry point records itself (see cli_traced.py).
CLI_SPANS = ("cli.interpreter", "cli.import", "cli.dispatch", "cli.encode")

SPAN_NAMES = tuple(dict.fromkeys(LAYERS.values())) + CLI_SPANS

# lru caches whose statistics are reported: (module, function, metric stem)
CACHES = (
    ("nested", "connected_subdiagrams", "tube_cache"),
    ("_ratlinalg", "_solve_cached", "solve_cache"),
)
# lru caches whose sizes add up to nested.cache_entries
ENTRY_CACHES = (
    ("nested", "connected_subdiagrams"),
    ("nested", "_nested_families"),
    ("coherence", "_skeleton"),
)


def _nnz(matrix) -> int:
    return sum(1 for row in matrix for v in row if v)


def _count_result(tracer, name, result, cache_missed, outer):
    c = tracer.counts
    if name == "diagram.parse":
        c["diagram.vertices"] += result.n
    elif name == "nested.tubes" and cache_missed:
        c["nested.tubes"] += len(result)
    elif name == "nested.enumerate" and cache_missed:
        c["nested.faces"] += len(result)
    elif name == "nested.edge_graph":
        c["nested.edges"] += len(result[1])
    elif name == "polytope.feasibility":
        c["polytope.feasibility_calls"] += 1
    elif name == "polytope.realize":
        c["polytope.inequalities"] += len(result.weights) - 1
    elif name == "polytope.export" and outer != name:  # OFF text inside a JSON export
        text = result if isinstance(result, str) else json.dumps(result, separators=(",", ":"))
        c["polytope.export_bytes"] += len(text or "")
    elif name == "homology.boundary" and result:
        c["homology.cells"] += len(result[0])
        c["homology.matrix_entries"] += len(result) * len(result[0])
        c["homology.nnz"] += _nnz(result)
    elif name == "homology.snf":
        c["homology.rank"] += len(result)
    elif name == "dynkin.differential" and result:
        c["dynkin.cochain_dim"] += len(result[0])
        c["dynkin.differential_nnz"] += _nnz(result)
    elif name == "coherence.relations":
        c["coherence.words"] += len(result)
        c["coherence.letters"] += sum(len(word) for word in result)
    elif name == "coherence.sequence":
        c["coherence.sequence_steps"] += len(result) - 1


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = Counter()
        self.active = False
        self.op = None
        self._stack = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        cache_info = getattr(fn, "cache_info", None)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info else 0
            outer = self.spans[self._stack[-1]][0] if self._stack else None
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            missed = cache_info is not None and cache_info().misses > misses
            _count_result(self, name, result, missed, outer)
            return result

        return traced

    def install(self, package):
        """Put a traced wrapper in place of every ``LAYERS`` function."""
        modules = _submodules(package)
        for (mod_name, attr), name in LAYERS.items():
            original = getattr(getattr(package, mod_name), attr)
            wrapper = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def write_spans(path: str, round_id, spans, op=None):
    """Append spans to the JSONL spans file; ``op``, if given, replaces every span's own."""
    with open(path, "a", encoding="utf-8") as fh:
        for name, start, end, parent, span_op in spans:
            fh.write(json.dumps({"round": round_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": span_op if op is None else op}) + "\n")


def _submodules(package):
    import sys

    prefix = package.__name__
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))]


def _cached(package, mod_name, attr):
    fn = getattr(getattr(package, mod_name), attr)
    while not hasattr(fn, "cache_info"):  # look through a traced wrapper
        fn = fn.__wrapped__
    return fn


def cache_stats(package) -> dict:
    """Current (hits, misses) of each reported cache."""
    out = {}
    for mod_name, attr, stem in CACHES:
        info = _cached(package, mod_name, attr).cache_info()
        out[stem] = (info.hits, info.misses)
    return out


def cache_entries(package) -> int:
    return sum(_cached(package, m, a).cache_info().currsize for m, a in ENTRY_CACHES)


def self_times(spans, ops_only=False):
    """Summed self time per span name, and the longest single span per name.

    With ``ops_only`` only layer spans inside operations count: the
    operations' own root spans and the set-up spans are left out.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            child_time[parent] += end - start
    total = Counter()
    longest = Counter()
    for i, (name, start, end, _parent, op) in enumerate(spans):
        if ops_only and (not isinstance(op, int) or name.startswith("op.")):
            continue
        total[name] += (end - start) - child_time[i]
        longest[name] = max(longest[name], end - start)
    return total, longest
