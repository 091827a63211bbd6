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
