#!/usr/bin/env python3
"""Scan purity of the zip stratification over primes and Levi types for a
preset group, printing the first prime where uniform purity holds."""
import argparse
import itertools

from zipstrata.rootsystem import build_root_datum
from zipstrata.sections import purity_verdict
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import is_prime, zip_from_cochar


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="C3")
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7, 11])
    ap.add_argument("--box", type=int, default=2)
    args = ap.parse_args()

    for p in args.primes:
        if not is_prime(p):
            ap.error("%d is not prime" % p)
    rd = build_root_datum(args.preset)
    wg = WeylGroup(rd)
    m = rd.num_simple
    for r in range(m + 1):
        for I in itertools.combinations(range(m), r):
            first = None
            row = []
            for p in args.primes:
                Z = zip_from_cochar(rd, I=I, n=1, p=p, wg=wg)
                rep = purity_verdict(Z, lattice="levi", box=args.box)
                row.append("p%d:%s%s" % (p, "P" if rep.principally_pure else "-",
                                         "U" if rep.uniformly_pure else "-"))
                if rep.uniformly_pure and first is None:
                    first = p
            print("I=%-12s %s  first-uniform=%s" %
                  ([i + 1 for i in I], "  ".join(row), first))


if __name__ == "__main__":
    main()
