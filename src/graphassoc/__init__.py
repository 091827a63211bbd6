"""Graph associahedra toolkit.

Computes, for any connected labeled diagram: the nested-set face poset
of its associahedron with an exact convex realization, the integer
homology of the oriented nested-set complex, Dynkin diagram cohomology
with coefficients in tables of rational subspaces, and the symbolic
presentation (generalized pentagon/hexagon and braid relations) of the
attached quasi-Coxeter structure.
"""

from .diagram import Diagram, DiagramError, INFINITY, ParseError, parse_diagram
from .nested import NestedSet, TwoFace, faces, f_vector, maximal_nested_sets

__all__ = [
    "Diagram",
    "DiagramError",
    "INFINITY",
    "NestedSet",
    "ParseError",
    "TwoFace",
    "f_vector",
    "faces",
    "maximal_nested_sets",
    "parse_diagram",
]

__version__ = "0.1.0"
