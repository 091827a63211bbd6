"""Each CLI subcommand prints exactly the payload of its library builder,
and the coherence and 2-face payloads are pinned by digest."""

import hashlib
import json
import random

import pytest

from graphassoc import coherence, dynkin, homology, nested, polytope
from graphassoc.cli import main
from graphassoc.diagram import bits, mask_of, parse_diagram
from conftest import complete_diagram, cycle_diagram, path_diagram, relabelings, star_diagram

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



# sha256 of json.dumps(presentation_json(D)) and of json.dumps(two_faces_json(D))
PAYLOAD_DIGESTS = [
    (path_diagram(5),
     "81048c5e5ee54b34be85dd406ff4ef7d2677b5f320c0eff6da5723ee701558b4",
     "d2c354c1241132aee6b8a756c300c09215f7f5ebd4511fce091fc654374c68d0"),
    (cycle_diagram(5),
     "b69842c30f2cd89f75cb2fa5d42691f87f9cc694a788c6730eb4f386b869794f",
     "78b2503bc14c43cd33ee75c780b2ce3772f67fc24704b09ec40ae14bdb2edb28"),
    (complete_diagram(4),
     "57f375a4ad8802c64db8d895a8780449655bf6a8d3143cedea519dba6d152fbd",
     "e702598e16c79b89d08836c1c58fbbfc4667d4c026d2918e8bb7bb116149c746"),
    (star_diagram(3),
     "c621a93d89e76bfad00963eeaf08d2086d7e3a696cb2c8dec4e78584ab8e4876",
     "195027e358124cbb39e277fc4659da6b7057b7b8df9e085dff35beffe27b73bb"),
    # relabeled larger diagrams, where many 2-faces share one (B, alpha)
    (relabelings(cycle_diagram(6), count=1, seed=17)[0],
     "34d415c1f2692bc2d11c1fd8635acd30c91c77b9d4c7ee226fa34ddf8f342bdb",
     "8c61ad1ff5bb2a33c943f47c529354c3239189edaeb4935902dc5eb4bfebd321"),
    (relabelings(path_diagram(6), count=1, seed=17)[0],
     "9b3d3cb76c830e5f8e39513fe3454d2cc0894e2d5b3283399cab6cff9c71da58",
     "017af815ec9b7f6968aa392f17b541c302196c92f0f4f2184b2e2200d4b78d22"),
    (relabelings(complete_diagram(5), count=1, seed=17)[0],
     "3a5646fddc4049d84acae7ebb663801b483cfbfc351dcbf2249a9c3268ab083d",
     "92c5bead25c621facdcf754b40919a9ba244976c7e7364f6a63e096802c8f167"),
    (relabelings(star_diagram(4), count=1, seed=17)[0],
     "a4544b4faa4e53e0966ddd8556a523ff6b3701d35eea64ee565d9cc785a508aa",
     "776e46799d8bd869ebf5b9d03df224b4793d72dc0860d56fea0088ad6eee8d19"),
]


def test_presentation_and_two_face_payloads_are_pinned():
    for D, presentation, twofaces in PAYLOAD_DIGESTS:
        found = [
            hashlib.sha256(json.dumps(doc).encode()).hexdigest()
            for doc in (coherence.presentation_json(D), nested.two_faces_json(D))
        ]
        assert found == [presentation, twofaces], D.names


# sha256 of json.dumps(face_poset_json(D)): every face in enumeration order
FACE_POSET_DIGESTS = [
    (complete_diagram(5), None, "d92edc5f0b4c9108e2e6efd3f594064a2d9f287f25589e2e6056ff414e8d7b5c"),
    (cycle_diagram(6), None, "9b9287935ca41788871c434efa532595a4be4877ffce31909324245333b09848"),
    (path_diagram(6), None, "ff2e0366c9b2634414bcfe343242dd28797d8a930aff6274a6a541bff684f6a4"),
    (star_diagram(4), None, "68e3edc0161361414bdb2640529d6063bd5ee5165493fd1c524ece938c277147"),
    (cycle_diagram(6), 2, "b97cd178551dd6ce6f9e8cf24cf72ed44dd947063124b4ea2054588e3b94598d"),
]


def test_face_poset_payloads_are_pinned():
    for D, dim, digest in FACE_POSET_DIGESTS:
        doc = nested.face_poset_json(D, dim)
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest, (D.names, dim)


# sha256 of json.dumps of [sequence_json, support_json] over 200 pairs drawn with random.Random(0)
PAIR_DIGESTS = [
    (path_diagram(6), "f0c1ba5ed78708ec727046e7d8c09a78f30428677824a6265fdd7798e585a575"),
    (cycle_diagram(6), "76c14e452c47d82390d2a0fad4dc9ba1514da98cc8c7b508c4fd26eeda062d94"),
    (complete_diagram(5), "34a9e0cd004fe79ccc9ec81a96d5c8eeb43275d8020fe2caad522d25373acb29"),
    (star_diagram(4), "2879e9a5639a3b7ca672ef3abd8dd22f26f79607e07c0a87de2c52845acf9a04"),
]


def test_pair_payloads_are_pinned():
    for D, digest in PAIR_DIGESTS:
        verts = nested.maximal_nested_sets(D)
        rng = random.Random(0)
        docs = []
        for _ in range(200):
            F, G = verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]
            docs.append([coherence.sequence_json(D, F, G), coherence.support_json(D, F, G)])
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == digest, D.names


# sha256 of json.dumps of [B, alpha, cell] over every dynkin_basis slot with |alpha| >= 2,
# and of [B, alpha_g, alpha_f, G, F] over every pair_from_triple triple
CANONICAL_DIGESTS = [
    (path_diagram(5),
     "ebadf832d9ce867033a222bc35a62bcfb20166ca48870541d2b957313eac28e6",
     "09926f90071523cd7fac02db467c0f8d8c7fe63e31ead6c6bfe452df300c2a71"),
    (cycle_diagram(5),
     "2f545fbaf8f83b674bd6d4612978877c6925043b2e6d5a3931c4e14f36112cc9",
     "d2f22015aef6f8ab777e52a7d43afcaab7c5867655519a824a53d94a1bb11dfe"),
    (complete_diagram(4),
     "a2770babfe19a8909f39b6ce28e4ad464f1e0eadc0546779e3c0f87da522953a",
     "7148a84a8690f77f0ffa846f52f5eb0af54d5fb84e1cf0bb57afbb6967d64f79"),
    (star_diagram(4),
     "b19e86752f169d8bcaf1131b18d889cc84f4442eaf954ca9f7aa214d0c3e38f4",
     "9c699548a3e6aa4dcff586e1a33259acedcab606ae08220e69fb57b61a9b8158"),
]


def test_irreducible_cells_and_canonical_pairs_are_pinned():
    for D, cells, pairs in CANONICAL_DIGESTS:
        slots = [slot for p in range(2, D.n + 1) for slot in dynkin.dynkin_basis(D, p)]
        cell_doc = [[B, list(alpha), list(nested.irreducible_cell(D, B, mask_of(alpha)).elements)]
                    for B, alpha in slots]
        triples = [(B, ag, af) for B in nested.connected_subdiagrams(D)
                   for ag in bits(B) for af in bits(B) if ag != af]
        pair_doc = [[*triple, *(list(H.elements) for H in coherence.pair_from_triple(D, *triple))]
                    for triple in triples]
        found = [hashlib.sha256(json.dumps(doc).encode()).hexdigest() for doc in (cell_doc, pair_doc)]
        assert found == [cells, pairs], D.names
