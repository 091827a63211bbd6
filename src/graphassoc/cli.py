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


def _polytope(args, D: Diagram) -> dict:
    """The polytope payload, its OFF text also written to the ``--off`` path if one is given."""
    doc = polytope.export_polytope(polytope.make_realization(D))
    if args.off is not None:
        if "off" not in doc:
            raise DiagramError("OFF export needs affine dimension at most 3")
        with open(args.off, "w", encoding="utf-8") as fh:
            fh.write(doc["off"])
    return doc


def _pair(args, D: Diagram) -> list[nested.NestedSet]:
    """The two maximal nested sets given by ``--pair``."""
    return [parse_nested_set(D, text) for text in args.pair]


_PAIR = {"--pair": dict(nargs=2, required=True, metavar=("F", "G"))}

# Each subcommand once: name -> (help text, flags besides --diagram, payload of (args, D)).
COMMANDS = {
    "faces": ("face poset (all faces, or --dim k only)", {"--dim": dict(type=int, default=None)},
              lambda args, D: nested.face_poset_json(D, args.dim)),
    "fvector": ("face counts by dimension", {},
                lambda args, D: {"f": nested.f_vector(D)}),
    "twofaces": ("classification of the 2-faces", {},
                 lambda args, D: nested.two_faces_json(D)),
    "polytope": ("exact convex realization (JSON; OFF via --off)",
                 {"--off": dict(default=None, metavar="PATH")}, _polytope),
    "homology": ("integer homology of the nested-set complex", {},
                 lambda args, D: homology.homology_json(D)),
    "dynkin": ("Dynkin cohomology dimensions", {"--coeffs": dict(default=None, metavar="FILE")},
               lambda args, D: dynkin.dynkin_json(D, dynkin.load_coefficients(D, args.coeffs))),
    "relations": ("generators and relation words of the presentation", {},
                  lambda args, D: coherence.presentation_json(D)),
    "sequence": ("good elementary sequence between two maximal nested sets", _PAIR,
                 lambda args, D: coherence.sequence_json(D, *_pair(args, D))),
    "support": ("support and central support of a pair", _PAIR,
                lambda args, D: coherence.support_json(D, *_pair(args, D))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphassoc",
        description="Graph associahedra: face posets, polytopes, homology, "
        "Dynkin cohomology and quasi-Coxeter presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _payload) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--diagram", required=True, help="diagram source file")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return parser


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
        payload = COMMANDS[args.command][2](args, D)
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
