"""The benchmark's output oracles, run in-process on its smoke workloads.

``perfbench/workloads.py`` is loaded by path, as the tracer is in
``test_source.py``; nothing is written to disk.  Every operation of the
``census`` and ``complex`` smoke lists runs once, and its check, which
compares the result with closed forms, Euler characteristics, ``d∘d = 0``
and pairwise compatibility, must return ``None``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import graphassoc
from graphassoc import _ratlinalg, coherence, diagram, dynkin, homology, nested, polytope  # noqa: F401

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["census", "complex"])
def test_smoke_workload_passes_every_oracle(workloads, name):
    make_inputs, make_ops = workloads.LIBRARY[name]
    rng = workloads.rng_for(name, 0)
    inputs = make_inputs(graphassoc, rng, True)
    kinds = set()
    for op in make_ops(graphassoc, inputs, rng, True):  # a check may feed the next operation
        assert op.check(op.call()) is None, (op.kind, op.label)
        kinds.add(op.kind)
    assert kinds == set(workloads.KINDS)


def test_complex_random_draws_build_at_most_455_spans(workloads, monkeypatch):
    """The 16 random-coefficient draws of the full complex workload at seed 4242.

    Every ``Span`` is built through ``_ratlinalg._solve_cached``, cleared
    first so the count does not depend on the tests run before.  Of the
    operations before the draws only the f-vectors run, which later
    operations read.
    """
    builds = []
    init = _ratlinalg.Span.__init__
    rng = workloads.rng_for("complex", 4242)
    inputs = workloads.complex_inputs(graphassoc, rng, False)
    draws = 0
    _ratlinalg._solve_cached.cache_clear()
    for op in workloads.complex_ops(graphassoc, inputs, rng, False):
        if op.kind == "fvector":
            assert op.check(op.call()) is None
        elif op.kind == "dynkin":
            with monkeypatch.context() as patch:
                patch.setattr(_ratlinalg.Span, "__init__",
                              lambda span, *args: builds.append(1) or init(span, *args))
                assert op.check(op.call()) is None
            draws += 1
            if draws == 16:
                break
    assert draws == 16 and 0 < len(builds) <= 455
