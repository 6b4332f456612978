#!/usr/bin/env python3
"""Tree-space report: Schroeder counts vs enumeration, the Petersen link,
and CAT(0) certificates for the unit truncation.

Usage: python scripts/treespace_report.py [--max-n 6] [--cat0-max-n 5]
"""

import argparse

from cubical import (
    count_binary,
    enumerate_topologies,
    is_cat0,
    link_of_origin,
    treespace_complex,
)
from cubical.graphs import bits, girth, is_regular
from cubical.treespace import petersen_checks


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--cat0-max-n", type=int, default=5)
    args = ap.parse_args()

    for n in range(2, args.max_n + 1):
        formula = count_binary(n)
        enumerated = len(enumerate_topologies(n))
        tag = "ok" if formula == enumerated else "MISMATCH"
        print(f"n={n}: (2n-3)!! = {formula}, enumerated {enumerated}  [{tag}]")

    link = link_of_origin(4)
    nbrs = [list(bits(m)) for m in link.neighbours]
    print(f"\nlink of origin, n=4: {len(link.vertices)} vertices, "
          f"{len(link.edges)} edges, 3-regular={is_regular(nbrs, 3)}, "
          f"girth={girth(nbrs)}, "
          f"petersen={petersen_checks(nbrs)['isomorphic_to_petersen']}")

    for n in range(3, args.cat0_max_n + 1):
        x = treespace_complex(n)
        verdict = is_cat0(x)
        print(f"truncated tree space n={n}: {x.counts()} -> cat0={verdict.ok}")


if __name__ == "__main__":
    main()
