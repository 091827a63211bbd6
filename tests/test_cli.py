import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest

from graphassoc import dynkin
from graphassoc.cli import COMMANDS, main, parse_nested_set, run
from graphassoc.diagram import parse_diagram
from graphassoc.schemas import SCHEMAS

P3_TEXT = "vertices: 1 2 3\nedges: 1-2 2-3\n"
C3_TEXT = "vertices: 1 2 3\nedges: 1-2 2-3 1-3\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.dg"
    path.write_text(P3_TEXT)
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.dg"
    path.write_text(C3_TEXT)
    return str(path)


def payload(argv):
    result = run(argv)
    assert result.status == 0, result.message
    return result.payload


def test_fvector(p3_file):
    assert payload(["fvector", "--diagram", p3_file]) == {"f": [5, 5, 1]}


def test_homology(c3_file):
    assert payload(["homology", "--diagram", c3_file]) == {
        "H": [{"betti": 1}, {"betti": 0}, {"betti": 0}]
    }


def test_support(p3_file):
    doc = payload(
        ["support", "--diagram", p3_file, "--pair", "1 2 3;1 2;1", "1 2 3;1 2;2"]
    )
    assert doc == {"supp": ["1", "2"], "zsupp": []}


def test_invariant_error_is_exit_1(p3_file, monkeypatch):
    from graphassoc.nested import NestedSet

    monkeypatch.setattr(NestedSet, "unsaturated", lambda self: [])
    result = run(["support", "--diagram", p3_file, "--pair", "1 2 3;1 2;1", "1 2 3;1 2;2"])
    assert result.status == 1 and result.payload is None
    assert "support" in result.message


def test_sequence(p3_file):
    doc = payload(
        ["sequence", "--diagram", p3_file, "--pair", "1 2;1", "2 3;3"]
    )
    seq = doc["sequence"]
    assert seq[0] == [["1"], ["1", "2"], ["1", "2", "3"]]
    assert seq[-1] == [["3"], ["2", "3"], ["1", "2", "3"]]
    assert len(seq) >= 3


def test_faces_with_dim(p3_file):
    doc = payload(["faces", "--diagram", p3_file, "--dim", "1"])
    assert len(doc["faces"]) == 5
    assert all(f["dim"] == 1 for f in doc["faces"])


def test_every_payload_validates_against_schema(tmp_path, p3_file, c3_file):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"ambient_dim": 1, "subspaces": []}))
    off = str(tmp_path / "out.off")
    cases = {
        "faces": ["faces", "--diagram", p3_file],
        "fvector": ["fvector", "--diagram", p3_file],
        "twofaces": ["twofaces", "--diagram", c3_file],
        "polytope": ["polytope", "--diagram", p3_file, "--off", off],
        "homology": ["homology", "--diagram", p3_file],
        "dynkin": ["dynkin", "--diagram", p3_file, "--coeffs", str(coeffs)],
        "relations": ["relations", "--diagram", c3_file],
        "sequence": ["sequence", "--diagram", p3_file, "--pair", "1 2;1", "1 2;2"],
        "support": ["support", "--diagram", p3_file, "--pair", "1 2;1", "1 2;2"],
    }
    for name, argv in cases.items():
        doc = payload(argv)
        jsonschema.validate(doc, SCHEMAS[name])
        json.loads(json.dumps(doc))
    assert open(off).readline().strip() == "OFF"


def test_byte_identical_output(p3_file, capsys):
    assert main(["relations", "--diagram", p3_file]) == 0
    first = capsys.readouterr().out
    assert main(["relations", "--diagram", p3_file]) == 0
    assert capsys.readouterr().out == first


def test_diagram_parse_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.dg"
    bad.write_text("vertices: 1 1\n")
    assert main(["fvector", "--diagram", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "duplicate" in err


def test_missing_file_is_exit_2(capsys):
    assert main(["fvector", "--diagram", "/nonexistent.dg"]) == 2
    assert capsys.readouterr().out == ""


def test_bad_nested_set_is_parse_or_validation_error(p3_file):
    result = run(["support", "--diagram", p3_file, "--pair", "1 2;zz", "1 2;1"])
    assert result.status in (1, 2) and result.payload is None


def test_pair_with_an_empty_part_or_a_disconnected_element(p3_file):
    result = run(["support", "--diagram", p3_file, "--pair", "1 2;", "1 2;1"])
    assert (result.status, result.message) == (2, "empty subdiagram in '1 2;'")
    result = run(["sequence", "--diagram", p3_file, "--pair", "1 3;1", "1 2;1"])
    assert (result.status, result.message) == (1, "element ['1', '3'] is not connected")


def test_validation_error_is_exit_1(p3_file, capsys):
    assert main(["faces", "--diagram", p3_file, "--dim", "9"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err


def test_off_refused_in_high_dimension(tmp_path):
    big = tmp_path / "p5.dg"
    big.write_text("vertices: 1 2 3 4 5\nedges: 1-2 2-3 3-4 4-5\n")
    result = run(["polytope", "--diagram", str(big), "--off", str(tmp_path / "x.off")])
    assert result.status == 1
    assert "OFF export needs affine dimension at most 3" in result.message


def test_off_file_is_built_once(p3_file, tmp_path, monkeypatch):
    """``--off`` writes the OFF text the payload already carries, built by one ``off_text`` call."""
    from graphassoc import polytope

    calls = []
    build = polytope.off_text
    monkeypatch.setattr(polytope, "off_text", lambda R: calls.append(R) or build(R))
    off = tmp_path / "out.off"
    doc = payload(["polytope", "--diagram", p3_file, "--off", str(off)])
    assert len(calls) == 1
    expected = build(polytope.make_realization(parse_diagram(P3_TEXT)))
    assert off.read_bytes() == doc["off"].encode("utf-8") == expected.encode("utf-8")


def test_non_maximal_pair_is_validation_error(p3_file):
    result = run(["support", "--diagram", p3_file, "--pair", "1 2", "1 2;1"])
    assert result.status == 1


def test_capacity_exceeded_is_validation_error(tmp_path):
    huge = tmp_path / "huge.dg"
    huge.write_text("vertices: " + " ".join(f"v{i}" for i in range(65)) + "\n")
    result = run(["fvector", "--diagram", str(huge)])
    assert result.status == 1
    assert "capacity" in result.message


def test_polytope_payload_embeds_off_in_low_dimension(p3_file):
    doc = payload(["polytope", "--diagram", p3_file])
    assert doc["off"].startswith("OFF\n5 1 0")


def test_unknown_subcommand_exits_2(p3_file):
    # the child imports graphassoc from this process's path, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "graphassoc.cli", "nonsense", "--diagram", p3_file],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("vector", [["1", "0", "0"], ["1"]])
def test_coefficient_vector_of_wrong_length_is_exit_1(tmp_path, p3_file, capsys, vector):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({
        "ambient_dim": 2,
        "subspaces": [{"B": ["1", "2", "3"], "S": ["1", "2", "3"], "basis": [vector]}],
    }))
    argv = ["dynkin", "--diagram", p3_file, "--coeffs", str(coeffs)]
    result = run(argv)
    assert result.status == 1 and result.payload is None
    assert result.message == (
        "basis vector of M(B, S) at vertex positions B=[0, 1, 2], S=[0, 1, 2] "
        f"has {len(vector)} entries, not ambient_dim 2"
    )
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == result.message + "\n"


def _p3_entry(basis):
    return {"B": ["1", "2", "3"], "S": ["1"], "basis": basis}


AT_P3 = "M(B, S) at B=['1', '2', '3'], S=['1']"
# name -> (coefficient document, the one-line message it must fail with)
MALFORMED_COEFFS = {
    "zero-denominator": ({"ambient_dim": 1, "subspaces": [_p3_entry([["1/0"]])]},
                         f"basis of {AT_P3} has a zero denominator"),
    "not-a-rational": ({"ambient_dim": 1, "subspaces": [_p3_entry([[None]])]},
                       f"basis of {AT_P3} has an entry that is not a rational"),
    "basis-not-a-list": ({"ambient_dim": 1, "subspaces": [_p3_entry(5)]},
                         f"basis of {AT_P3} is not a list of vectors"),
    # a string basis is not read as the vectors of its characters
    "basis-a-string": ({"ambient_dim": 1, "subspaces": [_p3_entry("12")]},
                       f"basis of {AT_P3} is not a list of vectors"),
    "top-level-list": ([{"ambient_dim": 1}], "a coefficient file holds one JSON object"),
    "entry-not-an-object": ({"ambient_dim": 1, "subspaces": [5]},
                            "subspaces is not a list of objects with lists B and S"),
    "dim-not-an-integer": ({"ambient_dim": [1], "subspaces": []}, "ambient_dim is not an integer"),
    # int() would read 2.7 as 2 and true as 1
    "dim-a-float": ({"ambient_dim": 2.7, "subspaces": []}, "ambient_dim is not an integer"),
    "dim-a-bool": ({"ambient_dim": True, "subspaces": []}, "ambient_dim is not an integer"),
    "dim-missing": ({"subspaces": []}, "ambient_dim is not an integer"),
    # Fraction(True) is 1
    "entry-a-bool": ({"ambient_dim": 1, "subspaces": [_p3_entry([[True]])]},
                     f"basis of {AT_P3} has an entry that is not a rational"),
    # written as Infinity; Fraction(inf) raises OverflowError
    "entry-infinite": ({"ambient_dim": 1, "subspaces": [_p3_entry([[float("inf")]])]},
                       f"basis of {AT_P3} has an entry that is not a rational"),
    # no slot reads M(B, S) when B is not connected, so the entry would be dropped unread
    "b-not-connected": ({"ambient_dim": 1, "subspaces": [{"B": ["1", "3"], "S": [], "basis": []}]},
                        "M(B, S) at B=['1', '3'], S=[] has a B that is not connected"),
    "b-empty": ({"ambient_dim": 1, "subspaces": [{"B": [], "S": [], "basis": [["1"]]}]},
                "M(B, S) at B=[], S=[] has a B that is not connected"),
    "negative-dim": ({"ambient_dim": -1, "subspaces": []}, "ambient_dim -1 is negative"),
    "s-outside-b": ({"ambient_dim": 1, "subspaces": [{"B": ["1"], "S": ["2"], "basis": [["1"]]}]},
                    "M(B, S) at vertex positions B=[0], S=[1] has S outside B"),
    "basis-missing": ({"ambient_dim": 1, "subspaces": [{"B": ["1", "2", "3"], "S": ["1"]}]},
                      f"basis of {AT_P3} is not a list of vectors"),
    "pair-listed-twice": ({"ambient_dim": 1, "subspaces": [
        _p3_entry([["1"]]), {"B": ["3", "2", "1"], "S": ["1"], "basis": []}]},
        f"{AT_P3} is listed twice"),
    # well-formed, but M(D, {1}) = 0 breaks the inclusions into the slot (D, (2, 3))
    "inclusion-broken": ({"ambient_dim": 1, "subspaces": [_p3_entry([])]},
                         "subspace inclusion fails at slot B=['1', '2', '3'], alpha=['2', '3']"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_COEFFS))
def test_malformed_coefficient_file_is_exit_1(tmp_path, p3_file, capsys, name):
    doc, message = MALFORMED_COEFFS[name]
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(doc))
    assert main(["dynkin", "--diagram", p3_file, "--coeffs", str(coeffs)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


def test_dynkin_coeffs_builds_each_differential_once(tmp_path, p3_file, capsys, monkeypatch):
    D = parse_diagram(P3_TEXT)
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(dynkin.random_coefficient_system(D, 2, random.Random(0)).to_json(D)))
    built, real = [], dynkin._differential_columns

    def counted(D, src, dst):
        built.append(src.degree)
        return real(D, src, dst)

    monkeypatch.setattr(dynkin, "_differential_columns", counted)
    assert main(["dynkin", "--diagram", p3_file, "--coeffs", str(coeffs)]) == 0
    assert json.loads(capsys.readouterr().out)["dims"]
    assert built == list(range(D.n))


def test_parse_nested_set_full_diagram_implied():
    D = parse_diagram(P3_TEXT)
    H = parse_nested_set(D, "1 2;1")
    assert D.full in H.elements
    assert len(H.elements) == 3


def test_command_table_names_the_schemas():
    assert list(COMMANDS) == list(SCHEMAS)
