import ast
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
