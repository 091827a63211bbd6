"""Seeded inputs, operation lists and output oracles of the workloads.

Every input comes from a ``random.Random`` made from the workload name
and the ``--seed``, so one seed always gives the same inputs.  The seed picks vertex relabelings, pairs of maximal nested
sets, sampled faces and incompatible families for the LP, and random
coefficient systems.  graphassoc only ever sees the generated inputs.

An operation is one public call (or one short fixed group of calls);
its ``kind`` names the CLI subcommand doing the same work, which is the
``cli.<kind>_s`` metric it counts towards.  The operation lists are
generators: code between two ``yield``s prepares the next operation
and is not timed.  Each operation's ``check`` returns an error string
or ``None``; checks run after the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

KINDS = ("fvector", "faces", "twofaces", "polytope", "homology", "dynkin", "relations", "pair")


@dataclass
class Op:
    kind: str
    label: str
    call: Callable
    check: Callable


# ---------------------------------------------------------------------------
# diagram families and seeded relabelings

def family_edges(family: str, n: int):
    """Vertex count and ``(i, j, label)`` edges; a star's ``n`` counts its legs."""
    if family == "path":  # type A Dynkin diagram: labels 3 give braid relations
        return n, [(i, i + 1, 3) for i in range(n - 1)]
    if family == "cycle":
        return n, [(i, (i + 1) % n, "inf") for i in range(n)]
    if family == "star":
        return n + 1, [(0, i, 3) for i in range(1, n + 1)]
    if family == "complete":
        return n, [(i, j, "inf") for i, j in itertools.combinations(range(n), 2)]
    raise ValueError(family)


SHORT = {"path": "P", "cycle": "C", "star": "S", "complete": "K"}


def relabeled_text(family: str, n: int, rng: random.Random) -> tuple[str, list[int]]:
    """Diagram source for a seeded relabeling; ``perm[i]`` is the new index of vertex i."""
    size, edges = family_edges(family, n)
    perm = list(range(size))
    rng.shuffle(perm)
    tokens = [f"v{perm[i] + 1}-v{perm[j] + 1}:{label}" for i, j, label in edges]
    rng.shuffle(tokens)
    text = "vertices: " + " ".join(f"v{i + 1}" for i in range(size)) + "\n"
    if tokens:
        text += "edges: " + " ".join(tokens) + "\n"
    return text, perm


class Inputs:
    """Parsed, relabeled diagrams of one round, keyed by (family, n[, tag]).

    A tag asks for one more relabeling of the same diagram.
    """

    def __init__(self, ga, rng, keys):
        self.diagrams = {}
        self.perms = {}
        for key in keys:
            text, perm = relabeled_text(*key[:2], rng)
            self.diagrams[key] = ga.diagram.parse_diagram(text)
            self.perms[key] = perm


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# oracles

def closed_form_vertices(family: str, n: int):
    if family == "path":
        return math.comb(2 * n, n) // (n + 1)
    if family == "cycle":
        return math.comb(2 * n - 2, n - 1)
    if family == "complete":
        return math.factorial(n)
    if family == "star":  # stellohedron
        return sum(math.factorial(n) // math.factorial(k) for k in range(n + 1))
    return None


def check_fvector(key, f):
    if sum((-1) ** k * x for k, x in enumerate(f)) != 1:
        return f"Euler characteristic of {f} is not 1"
    if f[-1] != 1:
        return "top face count is not 1"
    expected = closed_form_vertices(*key[:2])
    if expected is not None and f[0] != expected:
        return f"{f[0]} vertices, closed form says {expected}"
    return None


def twoface_counts(kinds):
    counts = {"square": 0, "pentagon": 0, "hexagon": 0}
    for kind in kinds:
        counts[kind.value] += 1
    return counts


def check_twofaces(counts, f, n):
    if sum(counts.values()) != f[2]:
        return f"{sum(counts.values())} classified 2-faces, f_2 = {f[2]}"
    # a simple (n-1)-polytope has C(n-1, 2) 2-faces at every vertex
    incidences = 4 * counts["square"] + 5 * counts["pentagon"] + 6 * counts["hexagon"]
    if incidences != f[0] * math.comb(n - 1, 2):
        return f"2-face corners {incidences} != f_0 * C(n-1, 2)"
    return None


def check_presentation(ga, D, doc, counts):
    tubes = [B for B in ga.nested.connected_subdiagrams(D)]
    sizes = [bin(B).count("1") for B in tubes]
    if doc["generators"]["S"] != list(D.names):
        return "generator S list differs from the vertex list"
    if len(doc["generators"]["Phi"]) != sum(math.comb(s, 2) for s in sizes):
        return "wrong number of Phi generators"
    if len(doc["generators"]["a"]) != sum(sizes):
        return "wrong number of twist generators"
    kinds = [r["kind"] for r in doc["relations"]]
    finite = sum(1 for _, label in D.edge_labels if label != ga.diagram.INFINITY)
    expected = {"pentagon5": counts["pentagon"], "hexagon6": counts["hexagon"], "braid": finite}
    for kind, want in expected.items():
        if kinds.count(kind) != want:
            return f"{kinds.count(kind)} {kind} words, expected {want}"
    return None


def check_edge_graph(verts, edges, f, n):
    if len(verts) != f[0] or len(edges) != f[1]:
        return f"edge graph has {len(verts)} vertices and {len(edges)} edges, f = {f}"
    degree = [0] * len(verts)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    if any(d != n - 1 for d in degree):
        return "edge graph is not (n-1)-regular"
    return None


def check_pair(F, G, supp, zsupp, seq):
    union = 0
    for m in set(F.elements) ^ set(G.elements):
        union |= m
    if supp != union:
        return "support differs from the union of the symmetric difference"
    if zsupp & ~supp:
        return "central support is not inside the support"
    if seq[0].elements != F.elements or seq[-1].elements != G.elements:
        return "sequence does not run from F to G"
    meet = set(F.elements) & set(G.elements)
    for a, b in zip(seq, seq[1:]):
        if len(set(a.elements) - set(b.elements)) != 1 or not meet <= set(b.elements):
            return "sequence step is not elementary inside the face of F and G"
    return None


def check_homology(ga, D, doc):
    want = [{"betti": 1}] + [{"betti": 0}] * (D.n - 1)
    if doc["H"] != want:
        return f"homology {doc['H']} is not acyclic"
    mats = [ga.homology.boundary_matrix(D, k) for k in range(1, D.n)]
    for low, high in zip(mats, mats[1:]):
        if not ga._ratlinalg.product_is_zero(low, high):
            return "boundary of a boundary is not zero"
    return None


def check_dynkin(ga, D, M, doc):
    hd, dims = doc["HD"], doc["dims"]
    if sum((-1) ** p * x for p, x in enumerate(hd)) != sum((-1) ** p * x for p, x in enumerate(dims)):
        return "Euler characteristics of cohomology and cochains differ"
    diffs = [ga.dynkin.dynkin_differential(D, M, p) for p in range(D.n)]
    for low, high in zip(diffs, diffs[1:]):
        if low and high and not ga._ratlinalg.product_is_zero(high, low):
            return "consecutive Dynkin differentials do not compose to zero"
    return None


def compatible_family(ga, D, family):
    return all(ga.diagram.is_compatible(D, a, b) for a, b in itertools.combinations(family, 2))


def mask_map(perm_from, perm_to):
    """Vertex index map from one relabeling of a family to another."""
    back = {new: i for i, new in enumerate(perm_from)}
    to = {b: perm_to[i] for b, i in back.items()}

    def move(mask):
        out = 0
        for b, target in to.items():
            if mask >> b & 1:
                out |= 1 << target
        return out

    return move


def transported(ga, M, move):
    table = {(move(B), move(S)): basis for (B, S), basis in M.table.items()}
    return ga.dynkin.MatrixCoefficients(M.ambient_dim, table)


def pair_ops(ga, D, label, rng, count, per_op):
    """``count`` operations, each on ``per_op`` seeded pairs of maximal nested sets."""
    coherence = ga.coherence
    verts = ga.nested.maximal_nested_sets(D)
    for _ in range(count):
        pairs = [(verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))])
                 for _ in range(per_op)]

        def call(pairs=pairs):
            out = []
            for F, G in pairs:
                zsupp = coherence.central_support(D, F, G) if F.elements != G.elements else 0
                out.append((coherence.support(D, F, G), zsupp,
                            coherence.good_elementary_sequence(D, F, G)))
            return out

        def check(results, pairs=pairs):
            errors = [check_pair(F, G, *r) for (F, G), r in zip(pairs, results)]
            return next((e for e in errors if e), None)

        yield Op("pair", label, call, check)


# ---------------------------------------------------------------------------
# census: enumeration, coherence and the LP with caches shared in a session

CENSUS = {
    "diagrams": [("path", n) for n in range(3, 8)] + [("cycle", n) for n in range(3, 8)]
    + [("star", 3), ("star", 4)] + [("complete", n) for n in range(3, 7)],
    "pairs": 20,
    "lp": [("cycle", 5), ("complete", 5), ("path", 6)],
    "lp_faces": 100,
    "lp_incompatible": 25,
    "homology": [("path", 5), ("cycle", 5)],
    "dynkin": [("path", 5), ("cycle", 5), ("star", 4)],
}
CENSUS_SMOKE = {
    "diagrams": [("path", 3), ("path", 4), ("cycle", 4), ("star", 3), ("complete", 4)],
    "pairs": 3,
    "lp": [("cycle", 4)],
    "lp_faces": 5,
    "lp_incompatible": 3,
    "homology": [("path", 4)],
    "dynkin": [("path", 4)],
}


def census_inputs(ga, rng, smoke):
    return Inputs(ga, rng, (CENSUS_SMOKE if smoke else CENSUS)["diagrams"])


def census_ops(ga, inputs, rng, smoke):
    cfg = CENSUS_SMOKE if smoke else CENSUS
    nested, coherence, polytope = ga.nested, ga.coherence, ga.polytope
    fvecs, counts = {}, {}
    for key, D in inputs.diagrams.items():
        label = f"{SHORT[key[0]]}{key[1]}"
        yield Op("fvector", label, lambda D=D: nested.f_vector(D),
                 lambda f, key=key: fvecs.__setitem__(key, f) or check_fvector(key, f))
        f = fvecs.get(key)
        yield Op("faces", label, lambda D=D: nested.all_nested_sets(D),
                 lambda r, f=f: None if f and len(r) == sum(f) else "face count differs from the f-vector")
        if D.n >= 3:
            yield Op("twofaces", label,
                     lambda D=D: [nested.classify_two_face(D, H) for H in nested.faces(D, 2)],
                     lambda r, key=key, f=f, n=D.n: counts.__setitem__(key, twoface_counts(r))
                     or check_twofaces(counts[key], f, n))
        yield Op("relations", label, lambda D=D: coherence.presentation_json(D),
                 lambda doc, D=D, key=key: check_presentation(ga, D, doc, counts.get(key, twoface_counts([]))))
        yield Op("pair", label, lambda D=D: nested.edge_graph(D),
                 lambda r, f=f, n=D.n: check_edge_graph(r[0], r[1], f, n))
        if D.n >= 3:
            yield from pair_ops(ga, D, label, rng, cfg["pairs"], 1)
    for key in cfg["lp"]:
        D = inputs.diagrams[key]
        label = f"{SHORT[key[0]]}{key[1]}"
        realized = []
        yield Op("polytope", label, lambda D=D: polytope.make_realization(D),
                 lambda R, D=D: realized.append(R) or (
                     None if len(R.weights) == len(nested.connected_subdiagrams(D))
                     else "realization misses a tube weight"))
        R = realized[0]
        # LP time grows with the number of hyperplanes: sample evenly per number
        by_size = {}
        for H in nested.all_nested_sets(D):
            if len(H.elements) >= 3:
                by_size.setdefault(len(H.elements), []).append([m for m in H.elements if m != D.full])
        quota = cfg["lp_faces"] // len(by_size)
        families = [fam for size in sorted(by_size)
                    for fam in rng.sample(by_size[size], min(quota, len(by_size[size])))]
        tubes = [m for m in nested.connected_subdiagrams(D) if m != D.full]
        incompatible = 0
        while incompatible < cfg["lp_incompatible"]:
            a, b = rng.sample(tubes, 2)
            if not ga.diagram.is_compatible(D, a, b):
                families.append([a, b])
                incompatible += 1
        for fam in families:
            want = compatible_family(ga, D, fam)
            yield Op("polytope", label,
                     lambda R=R, fam=fam: polytope.is_face_nonempty(R, fam, cross_check=True),
                     lambda got, want=want: None if got == want else "feasibility disagrees with compatibility")
    for key in cfg["homology"]:
        D = inputs.diagrams[key]
        yield Op("homology", f"{SHORT[key[0]]}{key[1]}", lambda D=D: ga.homology.homology_json(D),
                 lambda doc, D=D: check_homology(ga, D, doc))
    for key in cfg["dynkin"]:
        D, M = inputs.diagrams[key], ga.dynkin.ConstantCoefficients()
        yield Op("dynkin", f"{SHORT[key[0]]}{key[1]}", lambda D=D, M=M: ga.dynkin.dynkin_json(D, M),
                 lambda doc, D=D, M=M: check_dynkin(ga, D, M, doc))


# ---------------------------------------------------------------------------
# complex: chain complexes, Smith normal form and rational ranks

# Random coefficient systems vary a lot in cost from draw to draw: one
# draw's Dynkin cohomology on P5 ranged 0.32-0.78 s over ten seeds, on
# star-4 0.87-2.85 s and on C5 1.25-1.76 s.  So the random systems are
# many small draws, and the constant system carries the large rank work.
COMPLEX = {
    "homology": [("path", 5), ("cycle", 5), ("complete", 5), ("path", 6)],
    "structure": [("path", 6), ("complete", 5)],
    # many short pair operations, so the latency quartiles fall among them
    "pairs": 160,
    "pairs_per_op": 4,
    "random_dynkin": [("path", 4), ("star", 3), ("cycle", 4), ("complete", 4)],
    "draws": 4,
    "constant_dynkin": [("cycle", 6), ("star", 4)],
    "verify": ("path", 5),
    "verify_trials": 3,
}
COMPLEX_SMOKE = {
    "homology": [("path", 4), ("cycle", 4)],
    "structure": [("cycle", 4)],
    "pairs": 2,
    "pairs_per_op": 2,
    "random_dynkin": [("path", 3)],
    "draws": 2,
    "constant_dynkin": [("cycle", 4)],
    "verify": ("path", 4),
    "verify_trials": 1,
}


def _complex_keys(cfg):
    keys = list(dict.fromkeys(cfg["homology"] + cfg["structure"] + cfg["random_dynkin"]
                              + cfg["constant_dynkin"] + [cfg["verify"]]))
    # a second relabeling of the first random-coefficient diagram
    return keys + [cfg["random_dynkin"][0] + ("again",)]


def complex_inputs(ga, rng, smoke):
    return Inputs(ga, rng, _complex_keys(COMPLEX_SMOKE if smoke else COMPLEX))


def complex_ops(ga, inputs, rng, smoke):
    cfg = COMPLEX_SMOKE if smoke else COMPLEX
    nested, dynkin = ga.nested, ga.dynkin
    fvecs, counts = {}, {}
    for key in cfg["homology"]:
        D, label = inputs.diagrams[key], f"{SHORT[key[0]]}{key[1]}"
        yield Op("fvector", label, lambda D=D: nested.f_vector(D),
                 lambda f, key=key: fvecs.__setitem__(key, f) or check_fvector(key, f))
        yield Op("homology", label, lambda D=D: ga.homology.homology_json(D),
                 lambda doc, D=D: check_homology(ga, D, doc))
    for key in cfg["structure"]:
        D, label, f = inputs.diagrams[key], f"{SHORT[key[0]]}{key[1]}", fvecs[key]
        yield Op("faces", label, lambda D=D: nested.all_nested_sets(D),
                 lambda r, f=f: None if len(r) == sum(f) else "face count differs from the f-vector")
        yield Op("twofaces", label,
                 lambda D=D: [nested.classify_two_face(D, H) for H in nested.faces(D, 2)],
                 lambda r, key=key, f=f, n=D.n: counts.__setitem__(key, twoface_counts(r))
                 or check_twofaces(counts[key], f, n))
        yield Op("relations", label, lambda D=D: ga.coherence.presentation_json(D),
                 lambda doc, D=D, key=key: check_presentation(ga, D, doc, counts[key]))
        yield Op("polytope", label,
                 lambda D=D: ga.polytope.export_polytope(ga.polytope.make_realization(D)),
                 lambda doc, f=f: None if len(doc["vertices"]) == f[0] else "export misses vertices")
    key = cfg["structure"][0]
    D, label = inputs.diagrams[key], f"{SHORT[key[0]]}{key[1]}"
    yield Op("pair", label, lambda D=D: nested.edge_graph(D),
             lambda r, f=fvecs[key], n=D.n: check_edge_graph(r[0], r[1], f, n))
    yield from pair_ops(ga, D, label, rng, cfg["pairs"], cfg["pairs_per_op"])

    systems, docs = {}, {}
    for key, i in itertools.product(cfg["random_dynkin"], range(cfg["draws"])):
        D, label = inputs.diagrams[key], f"{SHORT[key[0]]}{key[1]}"
        coeff_rng = random.Random(rng.getrandbits(64))

        def draw(D=D, r=coeff_rng):
            M = dynkin.random_coefficient_system(D, 3, r)
            return M, dynkin.dynkin_json(D, M)

        def check(result, D=D, k=(key, i)):
            systems[k], docs[k] = result
            return check_dynkin(ga, D, *result)

        yield Op("dynkin", label, draw, check)
    first = cfg["random_dynkin"][0]
    again = first + ("again",)
    D2, label = inputs.diagrams[again], f"{SHORT[first[0]]}{first[1]}"
    move = mask_map(inputs.perms[first], inputs.perms[again])
    yield Op("dynkin", label,
             lambda M=systems[(first, 0)]: dynkin.dynkin_json(D2, transported(ga, M, move)),
             lambda doc: None if doc == docs[(first, 0)]
             else "Dynkin dimensions differ between two relabelings")
    for key in cfg["constant_dynkin"]:
        D, label, M = inputs.diagrams[key], f"{SHORT[key[0]]}{key[1]}", dynkin.ConstantCoefficients()
        yield Op("dynkin", label, lambda D=D, M=M: dynkin.dynkin_json(D, M),
                 lambda doc, D=D, M=M: check_dynkin(ga, D, M, doc))
    key = cfg["verify"]
    D, label = inputs.diagrams[key], f"{SHORT[key[0]]}{key[1]}"
    trial_rng = random.Random(rng.getrandbits(64))
    yield Op("dynkin", label,
             lambda: dynkin.verify_chain_map(D, dynkin.ConstantCoefficients(), cfg["verify_trials"],
                                             trial_rng),
             lambda report: None if report else f"chain map check failed: {report.failures[:1]}")


LIBRARY = {"census": (census_inputs, census_ops), "complex": (complex_inputs, complex_ops)}


# ---------------------------------------------------------------------------
# cli: one fresh `python -m graphassoc.cli` process per invocation

CLI = [
    ("fvector", ("path", 7)), ("fvector", ("cycle", 7)), ("fvector", ("complete", 6)),
    ("fvector", ("star", 4)), ("fvector", ("path", 4)), ("fvector", ("path", 3)),
    ("faces", ("complete", 5)), ("faces", ("cycle", 4)), ("faces", ("path", 3)),
    ("twofaces", ("cycle", 6)), ("twofaces", ("path", 5)), ("twofaces", ("complete", 4)),
    ("polytope", ("complete", 5)), ("polytope", ("path", 6)),
    ("polytope-off", ("path", 4)), ("polytope-off", ("cycle", 4)),
    ("homology", ("complete", 5)), ("homology", ("cycle", 4)), ("homology", ("path", 4)),
    ("homology", ("star", 3)), ("homology", ("cycle", 3)),
    ("dynkin", ("path", 5)), ("dynkin", ("cycle", 5)),
] + [
    # three seeded coefficient systems per diagram: one draw's cost varies by up to half
    ("dynkin-coeffs", key) for key in (("path", 4), ("star", 3), ("cycle", 4)) for _ in range(3)
] + [
    ("relations", ("cycle", 6)), ("relations", ("complete", 5)), ("relations", ("path", 5)),
    ("relations", ("path", 3)),
] + [(sub, key) for sub in ("sequence", "support") for key in
     (("path", 5), ("cycle", 5), ("complete", 4), ("star", 4), ("path", 6))]
CLI_SMOKE = [
    ("fvector", ("path", 3)), ("faces", ("path", 3)), ("twofaces", ("cycle", 4)),
    ("polytope", ("path", 3)), ("polytope-off", ("path", 3)), ("homology", ("path", 3)),
    ("dynkin", ("path", 3)), ("dynkin-coeffs", ("path", 3)), ("relations", ("path", 3)),
    ("sequence", ("path", 4)), ("support", ("path", 4)),
]


@dataclass
class Invocation:
    kind: str
    label: str
    argv: list
    expected: bytes
    off_path: str | None = None
    expected_off: str | None = None


def _nested_arg(D, H):
    return ";".join(" ".join(D.vertex_names(m)) for m in H.elements)


def cli_invocations(ga, rng, smoke, workdir):
    """Write one round's input files and return its invocations with expected stdout."""
    import os

    nested, coherence, dynkin, polytope = ga.nested, ga.coherence, ga.dynkin, ga.polytope
    out = []
    for index, (sub, key) in enumerate(CLI_SMOKE if smoke else CLI):
        text, _perm = relabeled_text(*key, rng)
        path = os.path.join(workdir, f"{index:02d}-{SHORT[key[0]]}{key[1]}.dg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        D = ga.diagram.parse_diagram(text)
        command = sub.split("-")[0]
        argv = [command, "--diagram", path]
        off_path = expected_off = None
        if sub == "fvector":
            payload = {"f": nested.f_vector(D)}
        elif sub == "faces":
            payload = nested.face_poset_json(D)
        elif sub == "twofaces":
            kinds = [(H, nested.classify_two_face(D, H).value) for H in nested.faces(D, 2)]
            counts = {"square": 0, "pentagon": 0, "hexagon": 0}
            for _, kind in kinds:
                counts[kind] += 1
            payload = {"twofaces": [{"elements": [D.vertex_names(m) for m in H.elements],
                                     "kind": kind} for H, kind in kinds], "counts": counts}
        elif command == "polytope":
            R = polytope.make_realization(D)
            payload = polytope.export_polytope(R)
            if sub == "polytope-off":
                off_path = path[:-3] + ".off"
                expected_off = polytope.off_text(R)
                argv += ["--off", off_path]
        elif sub == "homology":
            payload = ga.homology.homology_json(D)
        elif sub == "dynkin":
            payload = dynkin.dynkin_json(D, dynkin.ConstantCoefficients())
        elif sub == "dynkin-coeffs":
            M = dynkin.random_coefficient_system(D, 3, random.Random(rng.getrandbits(64)))
            coeffs = path[:-3] + ".json"
            with open(coeffs, "w", encoding="utf-8") as fh:
                json.dump(M.to_json(D), fh)
            argv += ["--coeffs", coeffs]
            payload = dynkin.dynkin_json(D, M)
        elif sub == "relations":
            payload = coherence.presentation_json(D)
        else:
            verts = nested.maximal_nested_sets(D)
            F = verts[rng.randrange(len(verts))]
            G = F
            while G is F:
                G = verts[rng.randrange(len(verts))]
            argv += ["--pair", _nested_arg(D, F), _nested_arg(D, G)]
            if sub == "sequence":
                seq = coherence.good_elementary_sequence(D, F, G)
                payload = {"sequence": [[D.vertex_names(m) for m in H.elements] for H in seq]}
            else:
                payload = {"supp": D.vertex_names(coherence.support(D, F, G)),
                           "zsupp": D.vertex_names(coherence.central_support(D, F, G))}
        kind = "pair" if command in ("sequence", "support") else command
        expected = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
        out.append(Invocation(kind, f"{sub} {SHORT[key[0]]}{key[1]}", argv, expected,
                              off_path, expected_off))
    return out
