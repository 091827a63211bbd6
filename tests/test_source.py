import ast
import importlib
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphassoc"


def test_library_has_no_assert_statements():
    """Invariant failures raise typed errors: ``assert`` vanishes under ``python -O``."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_layers_and_caches_exist():
    """Every function the benchmark's tracer wraps or reads cache statistics of exists."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for mod_name, attr in tracer.LAYERS:
        module = importlib.import_module(f"graphassoc.{mod_name}")
        fn = getattr(module, attr, None)
        assert callable(fn), (mod_name, attr)
        assert (fn.__module__, fn.__qualname__) == (module.__name__, attr)
    cached = [(m, a) for m, a, _ in tracer.CACHES] + list(tracer.ENTRY_CACHES)
    for mod_name, attr in cached:
        module = importlib.import_module(f"graphassoc.{mod_name}")
        assert hasattr(getattr(module, attr, None), "cache_info"), (mod_name, attr)
