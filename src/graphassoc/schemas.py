"""Published JSON schemas for every CLI payload.

Kept as plain dicts so callers can validate outputs with any JSON-schema
implementation; the test suite checks every subcommand against these.
Every object schema is built by ``_object``: its required keys are its
listed properties except those passed as ``optional``, and it is closed
(``additionalProperties: false``) unless built with ``closed=False``.
"""


def _object(required: dict, optional: dict | None = None, closed: bool = True) -> dict:
    """An object schema requiring the keys of ``required``, in order, and allowing ``optional``."""
    properties = {**required, **(optional or {})}
    schema = {"type": "object", "required": list(required), "properties": properties}
    if closed:
        schema["additionalProperties"] = False
    return schema


def _array(items: dict) -> dict:
    return {"type": "array", "items": items}


_INTEGER = {"type": "integer"}
_STRING = {"type": "string"}
_RATIONAL = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
_VERTEX_LIST = _array(_STRING)
_ELEMENTS = _array(_VERTEX_LIST)  # a nested set: one vertex list per element
_BOUND = {"B": _VERTEX_LIST, "rhs": _RATIONAL}

_FACE = _object({
    "elements": _ELEMENTS,
    "dim": {"type": "integer", "minimum": 0},
    "unsaturated": _array(_object({"B": _VERTEX_LIST, "alpha": _VERTEX_LIST})),
})

_LETTER = _object({
    "letter": _object({"type": {"enum": ["S", "Phi", "a"]}}, {
        "vertex": _STRING,
        "B": _VERTEX_LIST,
        "pair": _VERTEX_LIST,
        "alpha": _STRING,
    }, closed=False),
    "exp": _INTEGER,
})

SCHEMAS = {
    "faces": _object({"faces": _array(_FACE)}),
    "fvector": _object({"f": _array(_INTEGER)}),
    "twofaces": _object({
        "twofaces": _array(_object({
            "elements": _ELEMENTS,
            "kind": {"enum": ["square", "pentagon", "hexagon"]},
        })),
        "counts": _object({
            "square": _INTEGER,
            "pentagon": _INTEGER,
            "hexagon": _INTEGER,
        }),
    }),
    "polytope": _object({
        "vertices": _array(_object({"face": _ELEMENTS, "coords": _array(_RATIONAL)})),
        "h_representation": _object({
            "equality": _object(_BOUND, closed=False),
            "inequalities": _array(_object(_BOUND, closed=False)),
        }),
    }, {"off": _STRING}),
    "homology": _object({"H": _array(_object({"betti": _INTEGER}, {"torsion": _array(_INTEGER)}))}),
    "dynkin": _object({"HD": _array(_INTEGER), "dims": _array(_INTEGER)}),
    "relations": _object({
        "generators": _object({
            "S": _VERTEX_LIST,
            "Phi": _array(_object({"B": _VERTEX_LIST, "pair": _VERTEX_LIST}, closed=False)),
            "a": _array(_object({"B": _VERTEX_LIST, "alpha": _STRING}, closed=False)),
        }),
        "relations": _array(_object({
            "kind": {"enum": ["pentagon5", "hexagon6", "braid", "orientation"]},
            "word": _array(_LETTER),
        })),
    }),
    "sequence": _object({"sequence": _array(_ELEMENTS)}),
    "support": _object({"supp": _VERTEX_LIST, "zsupp": _VERTEX_LIST}),
}
