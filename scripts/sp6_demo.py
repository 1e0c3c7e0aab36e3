#!/usr/bin/env python3
"""End-to-end tour of the Sp(6) rank-3 example: frame, strata, closure
diagram, wall multiplicities and purity across small primes."""
import argparse

from zipstrata import golden
from zipstrata.rootsystem import build_root_datum
from zipstrata.sections import char_section_verdict, purity_report
from zipstrata.strata import hasse_diagram, zip_strata
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import dims, zip_from_cochar


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7])
    args = ap.parse_args()

    rd = build_root_datum("C3")
    wg = WeylGroup(rd)
    Z = zip_from_cochar(rd, I=(0, 2), n=1, p=args.primes[0], wg=wg)
    d = dims(Z)
    print("datum:", Z.describe())
    print("dims: G=%d B=%d P=%d Q=%d E=%d" %
          (d.dim_G, d.dim_B, d.dim_P, d.dim_Q, d.dim_E))

    print("\nstrata (I side):")
    for s in zip_strata(Z, "I"):
        print("  %-7s l=%d  dim=%d  stack=%d" %
              (s.label, s.length, s.variety_dim, s.stack_dim))

    poset = hasse_diagram(Z, side="J")
    print("\nclosure covers (J side):")
    for i, j in poset.covers:
        print("  %s -> %s" % (poset.strata[i].label, poset.strata[j].label))

    w = wg.from_bracket("[351]")
    chi = (1, 1, 0)
    print("\nwall multiplicities at stratum [351], chi=%s:" % (chi,))
    for p in args.primes:
        Zp = zip_from_cochar(rd, I=(0, 2), n=1, p=p, wg=wg)
        sv = char_section_verdict(Zp, w, chi)
        vals = ", ".join("%s: %d" % (a, v) for a, v in sv.multiplicities)
        print("  p=%d  [%s]  verdict=%s" % (p, vals, sv.verdict))

    print("\npurity over the Levi-character lattice:")
    for p in args.primes:
        Zp = zip_from_cochar(rd, I=(0, 2), n=1, p=p, wg=wg)
        rep = purity_report(Zp, lattice="levi")
        print("  p=%d  principal=%s uniform=%s failing=%s witness=%s" %
              (p, rep.principally_pure, rep.uniformly_pure,
               list(rep.failing_strata), rep.uniform_witness))

    ok, _report = golden.golden_report()
    print("\ngolden gate:", "PASS" if ok else "FAIL")


if __name__ == "__main__":
    main()
