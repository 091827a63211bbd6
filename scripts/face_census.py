#!/usr/bin/env python3
"""Face census for small diagram families.

Prints, for paths, cycles, stars and complete diagrams, the f-vector of
the associahedron, the 2-face census and the number of coherence words
in the quasi-Coxeter presentation.

Usage: python scripts/face_census.py [max_n]
"""

import sys
from collections import Counter

from graphassoc.coherence import pentagon_relations
from graphassoc.families import complete, cycle, path, star
from graphassoc.nested import TwoFace, f_vector, two_faces


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    families = [("path", path, range(1, max_n + 1)), ("cycle", cycle, range(3, max_n + 1)),
                ("star", star, range(3, max_n)), ("complete", complete, range(2, max_n + 1))]
    print(f"{'diagram':<12} {'f-vector':<24} {'squares':>7} {'pentagons':>9} {'hexagons':>8} {'words':>6}")
    for name, build, sizes in families:
        for n in sizes:
            D = build(n)
            counts = Counter(kind for _face, kind in two_faces(D))
            words = len(pentagon_relations(D))
            print(
                f"{name + str(n):<12} {str(f_vector(D)):<24}"
                f" {counts[TwoFace.SQUARE]:>7} {counts[TwoFace.PENTAGON]:>9}"
                f" {counts[TwoFace.HEXAGON]:>8} {words:>6}"
            )


if __name__ == "__main__":
    main()
