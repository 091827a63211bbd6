#!/usr/bin/env python3
"""Exhaustive acyclicity sweep over small connected diagrams.

For every connected diagram up to the requested size (one representative
per isomorphism class), computes the integer homology of the oriented
nested-set complex and reports cell counts, Euler characteristic and
Betti numbers, and whether ``verify_chain_map`` proves that g embeds the
Dynkin complex with constant coefficients in the cellular cochains
(``chainmap=ok`` or ``chainmap=FAILED``).  Every line should end in
'acyclic'; a failed proof makes the line 'UNEXPECTED' too, and the exit
status is 1 if any line is 'UNEXPECTED', so the sweep can serve as a check.

Usage: python scripts/acyclicity_sweep.py [max_n]
"""

import sys

from graphassoc.dynkin import ConstantCoefficients, verify_chain_map
from graphassoc.families import connected_reps
from graphassoc.homology import homology
from graphassoc.nested import f_vector


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    unexpected = 0
    for n in range(1, max_n + 1):
        for D in connected_reps(n):
            counts = f_vector(D)
            euler = sum((-1) ** k * c for k, c in enumerate(counts))
            H = homology(D)
            betti = [b for b, _ in H]
            torsion_free = all(not t for _, t in H)
            chainmap = bool(verify_chain_map(D, ConstantCoefficients(), 1))
            verdict = (
                "acyclic"
                if betti[0] == 1 and all(b == 0 for b in betti[1:]) and torsion_free and chainmap
                else "UNEXPECTED"
            )
            unexpected += verdict == "UNEXPECTED"
            edges = sum(bin(a).count("1") for a in D.adj) // 2
            print(
                f"n={n} edges={edges:<2} cells={counts} euler={euler} "
                f"betti={betti} chainmap={'ok' if chainmap else 'FAILED'} {verdict}"
            )
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
