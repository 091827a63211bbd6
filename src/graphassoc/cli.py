"""Command-line front end with deterministic machine-readable output.

Every subcommand reads a diagram file, prints one JSON payload to stdout
and reserves stderr for human diagnostics.  Identical inputs produce
byte-identical outputs.  Exit status: 0 success, 1 validation error,
2 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import coherence, dynkin, homology, nested, polytope
from .diagram import Diagram, DiagramError, ParseError, Value, parse_diagram


class CommandResult(Value):
    """One command's outcome; ``payload`` is None unless it succeeded."""

    payload: dict | None
    status: int
    message: str
    __slots__ = _fields = ("payload", "status", "message")


def parse_nested_set(D: Diagram, text: str) -> nested.NestedSet:
    """Nested sets on the command line: vertex ids joined by spaces, parts by ';'."""
    lists = []
    for part in text.split(";"):
        names = part.split()
        if not names:
            raise ParseError(f"empty subdiagram in {text!r}")
        lists.append([D.index(v) for v in names])
    return nested.NestedSet.from_vertex_lists(D, lists)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphassoc",
        description="Graph associahedra: face posets, polytopes, homology, "
        "Dynkin cohomology and quasi-Coxeter presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--diagram", required=True, help="diagram source file")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)

    cmd("faces", "face poset (all faces, or --dim k only)",
        **{"--dim": dict(type=int, default=None)})
    cmd("fvector", "face counts by dimension")
    cmd("twofaces", "classification of the 2-faces")
    cmd("polytope", "exact convex realization (JSON; OFF via --off)",
        **{"--off": dict(default=None, metavar="PATH")})
    cmd("homology", "integer homology of the nested-set complex")
    cmd("dynkin", "Dynkin cohomology dimensions",
        **{"--coeffs": dict(default=None, metavar="FILE")})
    cmd("relations", "generators and relation words of the presentation")
    pair = {"--pair": dict(nargs=2, required=True, metavar=("F", "G"))}
    cmd("sequence", "good elementary sequence between two maximal nested sets", **pair)
    cmd("support", "support and central support of a pair", **pair)
    return parser


def _dispatch(args, D: Diagram) -> dict:
    if args.command == "faces":
        return nested.face_poset_json(D, args.dim)
    if args.command == "fvector":
        return {"f": nested.f_vector(D)}
    if args.command == "twofaces":
        return nested.two_faces_json(D)
    if args.command == "polytope":
        doc = polytope.export_polytope(polytope.make_realization(D))
        if args.off is not None:
            if "off" not in doc:
                raise DiagramError("OFF export needs affine dimension at most 3")
            with open(args.off, "w", encoding="utf-8") as fh:
                fh.write(doc["off"])
        return doc
    if args.command == "homology":
        return homology.homology_json(D)
    if args.command == "dynkin":
        return dynkin.dynkin_json(D, dynkin.load_coefficients(D, args.coeffs))
    if args.command == "relations":
        return coherence.presentation_json(D)
    F, G = (parse_nested_set(D, text) for text in args.pair)
    if args.command == "sequence":
        return coherence.sequence_json(D, F, G)
    return coherence.support_json(D, F, G)


def run(argv) -> CommandResult:
    """Parse arguments, dispatch, and fold any failure into the result."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.diagram, "r", encoding="utf-8") as fh:
            D = parse_diagram(fh.read())
    except OSError as exc:
        return CommandResult(None, 2, f"cannot read diagram: {exc}")
    except ParseError as exc:
        return CommandResult(None, 2, f"diagram parse error: {exc}")
    except DiagramError as exc:
        return CommandResult(None, 1, str(exc))
    try:
        payload = _dispatch(args, D)
    except ParseError as exc:
        return CommandResult(None, 2, str(exc))
    except DiagramError as exc:  # RealizationError and CoefficientError included
        return CommandResult(None, 1, str(exc))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return CommandResult(None, 1, f"invalid input: {exc}")
    return CommandResult(payload, 0, "")


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.message:
        print(result.message, file=sys.stderr)
    if result.payload is not None:
        print(json.dumps(result.payload, separators=(",", ":")))
    return result.status


if __name__ == "__main__":
    sys.exit(main())
