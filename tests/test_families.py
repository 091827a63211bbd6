import importlib.util
import sys
from pathlib import Path

import pytest

from graphassoc import families


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
def test_connected_reps_class_counts(n, classes):
    assert len(families.connected_reps(n)) == classes


def test_face_census_smoke(monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "face_census.py"
    spec = importlib.util.spec_from_file_location("face_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(sys, "argv", ["face_census.py", "4"])
    census.main()
    rows = {line.split()[0]: line.split()[-4:] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["cycle4"] == ["4", "4", "4", "8"]
    assert rows["star3"] == ["3", "6", "1", "7"]
    for _squares, pentagons, hexagons, words in rows.values():
        assert int(pentagons) + int(hexagons) == int(words)
