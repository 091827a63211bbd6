import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_spans_are_built_only_in_the_solve_cache():
    """``Span(...)`` is called in the library only inside ``_ratlinalg._solve_cached``.

    So equal spans are shared through one bounded cache, and no local span
    memo sits beside it.
    """
    calls = [
        (path.name, getattr(top, "name", None))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and "Span" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None))
    ]
    assert calls == [("_ratlinalg.py", "_solve_cached")]


def _callers(name):
    """The ``(file, top-level definition)`` of every call of ``name(...)`` in the library."""
    return {
        (path.name, getattr(top, "name", None))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))
    }


def test_each_rule_has_one_home():
    """The 2-face splits and the Dynkin cochain spaces are each built in one place.

    ``split_components`` runs only in ``nested._shape``, whose cache every
    2-face consumer reads, and no ``two_face_split`` copies them out.
    ``cochain_space`` runs only in ``dynkin_complex``, which validation,
    cohomology and the chain-map check read, and in the two entries that build
    one or two degrees of their own; the differential columns are built only by
    ``dynkin_complex``, one degree at a time, and by ``dynkin_differential``.
    Both complexes are ranked by ``reduce_complex``, the one home of clearing,
    and ``eliminate`` runs only in the rank and Smith form steps it calls.
    """
    assert _callers("split_components") == {("nested.py", "_shape")}
    assert not [path.name for path in SRC.glob("*.py") if "two_face_split" in path.read_text(encoding="utf-8")]
    assert _callers("cochain_space") == {("dynkin.py", "dynkin_complex"),
                                         ("dynkin.py", "dynkin_differential"),
                                         ("dynkin.py", "cellular_embedding_g")}
    assert _callers("_differential_columns") == {("dynkin.py", "dynkin_complex"),
                                                 ("dynkin.py", "dynkin_differential")}
    assert _callers("reduce_complex") == {("dynkin.py", "_cohomology"), ("homology.py", "chain_homology")}
    assert _callers("eliminate") == {("_ratlinalg.py", "rank"), ("dynkin.py", "_rat_rank"),
                                     ("homology.py", "_smith")}


def _library_attributes_read(tree):
    """The ``(module, name)`` pairs a benchmark file reads off ``graphassoc`` modules.

    Counts ``ga.<module>.<name>`` (``ga`` is the package the workloads
    receive), ``<alias>.<name>`` for an alias bound by ``alias = ga.<module>``
    (tuple assignments too) or by ``from graphassoc import <module>``, and
    ``from graphassoc.<module> import <name>``.
    """
    aliases, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "graphassoc":
            aliases.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphassoc."):
            read.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                for name, value in pairs:
                    if (isinstance(name, ast.Name) and isinstance(value, ast.Attribute)
                            and isinstance(value.value, ast.Name) and value.value.id == "ga"):
                        aliases[name.id] = value.attr
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                and owner.value.id == "ga"):
            read.add((owner.attr, node.attr))
        elif isinstance(owner, ast.Name) and owner.id in aliases:
            read.add((aliases[owner.id], node.attr))
    return read


def test_benchmark_reads_only_existing_library_attributes():
    """Every ``graphassoc`` attribute the benchmark's workloads and probes read exists.

    Deleting a name only the benchmark calls would otherwise pass every
    other test and fail only the benchmark run.
    """
    bench = SRC.parent.parent / "perfbench"
    read = set()
    for name in ("workloads.py", "probes.py"):
        read |= _library_attributes_read(ast.parse((bench / name).read_text(encoding="utf-8")))
    modules = {mod for mod, _ in read}
    assert {("_ratlinalg", "product_is_zero"), ("nested", "edge_graph"),
            ("homology", "homology_json"), ("diagram", "parse_diagram")} <= read
    missing = [(mod, attr) for mod, attr in sorted(read)
               if not hasattr(importlib.import_module(f"graphassoc.{mod}"), attr)]
    assert modules and missing == []


def test_rational_elimination_is_fraction_free():
    """``_ratlinalg`` runs on integers: it has no ``Fraction`` name and imports no ``fractions``."""
    from graphassoc import _ratlinalg

    assert not hasattr(_ratlinalg, "Fraction")
    tree = ast.parse((SRC / "_ratlinalg.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in modules
    M = [[2, 4, 6, 0], [3, 5, 7, 1], [5, 9, 13, 1], [0, 6, 0, 9]]  # row 2 = row 0 + row 1
    cols = _ratlinalg.columns(M)
    assert _ratlinalg.eliminate(cols, unit_pivots=False) == ([0, 2, 1], [0, 1, 3], [])
    assert len(_ratlinalg.eliminate(cols, unit_pivots=True)[0]) < 3  # the Z path stops at non-units


def test_fractions_are_built_only_at_public_boundaries():
    """``Fraction(...)`` is called in the library only by functions that take or return rationals.

    Spans, differentials, ranks, g's columns and the chain-map check run on
    integers in between.  A method is named ``Class.method``; a nested
    function counts towards the function around it.
    """
    allowed = {"MatrixCoefficients.from_json", "dynkin_differential", "cellular_embedding_g",
               "Realization.weight", "make_realization", "vertex_coordinates"}
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = ([(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
                      if isinstance(top, ast.ClassDef) else [(getattr(top, "name", "<module>"), top)])
            callers |= {
                name
                for name, owner in owners
                for node in ast.walk(owner)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"
            }
    assert callers and callers <= allowed, sorted(callers - allowed)


def _empty_container(node) -> bool:
    """A literal empty dict, list or set (``{}``, ``[]``, ``dict()``...), or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return bool(node.elts) and all(map(_empty_container, node.elts))
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)


def test_library_caches_are_bounded():
    """Every ``lru_cache`` in the library is a decorator with a literal finite
    ``maxsize``, and caches a value, not a container its callers fill.

    An unbounded cache keeps every diagram it has seen for the life of the
    process.  A cache written as ``lru_cache(...)(f)`` would escape the
    decorator scan, and a cached function returning an empty container
    hands out hidden mutable state that each caller fills by hand.
    """
    allowed = set()
    cached, unbounded, wrapped, fill_in = [], [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators.update(map(id, node.decorator_list))
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                func = call.func if call else dec
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name not in ("lru_cache", "cache"):
                    continue
                cached.append(node.name)
                args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args if call else []
                finite = not args or (isinstance(args[0], ast.Constant)
                                      and type(args[0].value) is int)
                if name == "cache" or not finite:
                    unbounded.append(node.name)
                returns = [r.value for r in ast.walk(node) if isinstance(r, ast.Return)]
                if any(_empty_container(value) for value in returns):
                    fill_in.append(node.name)
        for node in ast.walk(tree):  # lru_cache(...)(f), lru_cache(f) or cache(f): not a decorator
            func = getattr(node, "func", None)
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if isinstance(node, ast.Call) and name in ("lru_cache", "cache") and id(node) not in decorators:
                wrapped.append(f"{path.name}:{node.lineno}")
    assert {"_skeleton", "cell_complex"} <= set(cached)
    assert set(unbounded) <= allowed, sorted(set(unbounded) - allowed)
    assert wrapped == []
    assert fill_in == []


def test_cli_import_loads_no_heavy_modules():
    """Every CLI call pays for its imports: these modules stay out of ``import graphassoc.cli``.

    The baseline is the fresh interpreter's own ``sys.modules``, since
    ``site`` may already have loaded some of them.
    """
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import graphassoc.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path)),
    )
    loaded = set(json.loads(proc.stdout))
    assert "graphassoc.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "hashlib", "ast"} == set()


def test_library_imports_only_the_standard_library():
    """The package has ``dependencies = []``: every import is relative or names a stdlib module."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_top_level_imports_are_used():
    """Every name a module imports at top level is used in that module.

    ``__init__.py`` re-exports the package API.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert unused == []
