"""Each CLI subcommand prints exactly the payload of its library builder."""

import json
import random

import pytest

from graphassoc import coherence, dynkin, homology, nested, polytope
from graphassoc.cli import main
from graphassoc.diagram import parse_diagram

SOURCES = {
    "P3": "vertices: 1 2 3\nedges: 1-2 2-3\n",
    "C4": "vertices: 1 2 3 4\nedges: 1-2 2-3 3-4 1-4\n",
    "K4": "vertices: 1 2 3 4\nedges: 1-2 1-3 1-4 2-3 2-4 3-4\n",
    "S3": "vertices: 0 1 2 3\nedges: 0-1 0-2 0-3\n",
    "P2": "vertices: 1 2\nedges: 1-2\n",
}


def assert_prints(capsys, argv, payload):
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(payload, separators=(",", ":")) + "\n"


def nested_arg(H):
    return ";".join(" ".join(names) for names in H.vertex_lists())


@pytest.mark.parametrize("name", ["P2", "P3", "C4", "K4", "S3"])
def test_cli_stdout_is_library_payload(name, tmp_path, capsys):
    source = tmp_path / "d.dg"
    source.write_text(SOURCES[name])
    D = parse_diagram(SOURCES[name])
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(
        dynkin.random_coefficient_system(D, 2, random.Random(0)).to_json(D)))
    off = tmp_path / "out.off"
    verts = nested.maximal_nested_sets(D)
    F, G = verts[0], verts[-1]
    R = polytope.make_realization(D)
    cases = [
        (["faces"], nested.face_poset_json(D)),
        (["fvector"], {"f": nested.f_vector(D)}),
        (["twofaces"], nested.two_faces_json(D)),
        (["polytope", "--off", str(off)], polytope.export_polytope(R)),
        (["homology"], homology.homology_json(D)),
        (["dynkin"], dynkin.dynkin_json(D, dynkin.ConstantCoefficients())),
        (["dynkin", "--coeffs", str(coeffs)],
         dynkin.dynkin_json(D, dynkin.load_coefficients(D, str(coeffs)))),
        (["relations"], coherence.presentation_json(D)),
        (["sequence", "--pair", nested_arg(F), nested_arg(G)], coherence.sequence_json(D, F, G)),
        (["support", "--pair", nested_arg(F), nested_arg(G)], coherence.support_json(D, F, G)),
    ] + [(["faces", "--dim", str(k)], nested.face_poset_json(D, k)) for k in range(D.n)]
    for argv, payload in cases:
        assert_prints(capsys, argv[:1] + ["--diagram", str(source)] + argv[1:], payload)
    assert off.read_text() == polytope.off_text(R)
    doc = nested.two_faces_json(D)
    kinds = [face["kind"] for face in doc["twofaces"]]
    assert doc["counts"] == {k: kinds.count(k) for k in ("square", "pentagon", "hexagon")}
    assert (name == "P2") == (not kinds)

