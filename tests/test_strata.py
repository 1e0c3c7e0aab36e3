import itertools

import pytest

from conftest import datum, group
from zipstrata import strata
from zipstrata.strata import (ProjectionError, StrataError, classify_stratum,
                              closure_leq, coarse_poset, coarse_strata, cross_label,
                              fine_hasse_diagram, fine_strata, hasse_diagram,
                              project_stratum, zip_strata)
from zipstrata.zipdatum import dims, flag_datum, zip_from_cochar

PAPER_EDGES = sorted([
    ("[123]", "[132]"), ("[132]", "[142]"), ("[132]", "[231]"),
    ("[142]", "[153]"), ("[142]", "[241]"), ("[153]", "[263]"),
    ("[153]", "[351]"), ("[231]", "[241]"), ("[241]", "[263]"),
    ("[241]", "[351]"), ("[263]", "[362]"), ("[351]", "[362]"),
    ("[351]", "[451]"), ("[362]", "[462]"), ("[451]", "[462]"),
    ("[462]", "[563]"),
])


def all_data(presets=("A1", "A2", "B2", "A3", "C3"), p=2):
    for preset in presets:
        rd, wg = group(preset)
        for r in range(rd.num_simple + 1):
            for I in itertools.combinations(range(rd.num_simple), r):
                yield zip_from_cochar(rd, I=I, n=1, p=p, wg=wg)


def test_zip_strata_c3(c3_datum):
    out = zip_strata(c3_datum, "I")
    assert len(out) == 12
    assert [s.length for s in out] == [0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7]
    assert {s.variety_dim for s in out} == set(range(14, 22))
    assert all(s.variety_dim - s.stack_dim == 21 for s in out)


def test_zip_strata_full_type():
    Z = datum("C3", (0, 1, 2))
    out = zip_strata(Z, "I")
    assert len(out) == 1 and out[0].w == Z.wg.e
    assert out[0].stack_dim == dims(Z).dim_P - dims(Z).dim_G


def test_strata_count_times_levi_order():
    for Z in all_data(("A2", "B2", "C3")):
        wg = Z.wg
        assert len(zip_strata(Z, "I")) * len(wg.subgroup_elements(Z.I)) == wg.order()
        assert len(zip_strata(Z, "J")) == len(zip_strata(Z, "I"))


def test_closure_order_basics(c3_datum):
    Z = c3_datum
    wg = Z.wg
    reps = wg.min_coset_reps(Z.I, "left")
    top = max(reps, key=wg.length)
    for w in reps:
        assert closure_leq(Z, wg.e, w)
        assert closure_leq(Z, w, w)
        assert closure_leq(Z, w, top)
    with pytest.raises(StrataError):
        closure_leq(Z, wg.simple_reflection(0), top)  # s1 is not I-minimal


def test_hasse_diagram_matches_reference(c3_datum):
    poset = hasse_diagram(c3_datum, side="J")
    edges = sorted((poset.strata[i].label, poset.strata[j].label)
                   for i, j in poset.covers)
    assert edges == PAPER_EDGES
    assert poset.strata[0].label == "[123]"
    assert poset.strata[-1].label == "[563]" and poset.strata[-1].length == 7
    idx = {s.label: k for k, s in enumerate(poset.strata)}
    assert poset.leq(idx["[142]"], idx["[241]"])
    assert not poset.leq(idx["[231]"], idx["[153]"])
    assert not poset.leq(idx["[153]"], idx["[231]"])


def test_hasse_single_node():
    Z = datum("C3", (0, 1, 2))
    poset = hasse_diagram(Z, "I")
    assert len(poset.strata) == 1 and poset.covers == ()


def test_closure_equals_bruhat_restriction_on_c3(c3_datum):
    Z = c3_datum
    wg = Z.wg
    reps = wg.min_coset_reps(Z.I, "left")
    for a in reps:
        for b in reps:
            assert closure_leq(Z, a, b) == wg.bruhat_leq(a, b)


def test_bruhat_restriction_refines_closure():
    for Z in all_data(("A2", "B2", "C3")):
        wg = Z.wg
        reps = wg.min_coset_reps(Z.I, "left")
        for a in reps:
            for b in reps:
                if wg.bruhat_leq(a, b):
                    assert closure_leq(Z, a, b)


def test_closure_poset_structure():
    # partial order with unique bottom e and top of the complementary length
    for Z in all_data():
        wg = Z.wg
        poset = hasse_diagram(Z, "I")
        n = len(poset.strata)
        assert poset.strata[0].w == wg.e
        lmax = wg.length(wg.longest_element()) - wg.length(wg.longest_element(Z.I))
        assert poset.strata[-1].length == lmax
        bottoms = [i for i in range(n)
                   if not any((j, i) in poset.relation for j in range(n))]
        tops = [i for i in range(n)
                if not any((i, j) in poset.relation for j in range(n))]
        assert bottoms == [0] and tops == [n - 1]
        for (i, j) in poset.covers:
            assert poset.strata[i].length < poset.strata[j].length
        assert poset.strata[-1].variety_dim == dims(Z).dim_G


def test_fine_strata(c3_datum):
    Z = c3_datum
    FZ = flag_datum(Z, Z.I)
    assert [s.label for s in fine_strata(FZ)] == [s.label for s in zip_strata(Z, "I")]
    FZB = flag_datum(Z, ())
    fs = fine_strata(FZB)
    assert len(fs) == 48
    assert max(s.stack_dim for s in fs) == 2
    assert max(s.stack_dim for s in fs) == dims(FZB).dim_P_over_P0


def test_open_fine_stratum_dimension():
    for preset in ("B2", "C3", "GL4"):
        rd, wg = group(preset)
        for r in range(rd.num_simple + 1):
            for I in itertools.combinations(range(rd.num_simple), r):
                Z = zip_from_cochar(rd, I=I, n=1, p=2, wg=wg)
                for r0 in range(len(I) + 1):
                    for I0 in itertools.combinations(I, r0):
                        FZ = flag_datum(Z, I0)
                        fs = fine_strata(FZ)
                        assert max(s.stack_dim for s in fs) == dims(FZ).dim_P_over_P0


def test_coarse_equals_fine_at_borel_type():
    for preset, I in (("C3", (0, 2)), ("GL4", (0, 2)), ("B2", (1,))):
        Z = datum(preset, I)
        FZ = flag_datum(Z, ())
        cs = coarse_strata(FZ)
        fs = fine_strata(FZ)
        assert [c.label for c in cs] == [f.label for f in fs]
        assert [c.derived_dim for c in cs] == [f.variety_dim for f in fs]
        cp = coarse_poset(FZ)
        fp = fine_hasse_diagram(FZ)
        assert {(cp.strata[i].label, cp.strata[j].label) for i, j in cp.covers} == \
            {(fp.strata[i].label, fp.strata[j].label) for i, j in fp.covers}


def test_coarse_top_dimension(c3_datum):
    Z = c3_datum
    FZ = flag_datum(Z, Z.I)
    cs = coarse_strata(FZ)
    d = dims(FZ)
    top = max(cs, key=lambda s: s.derived_dim)
    assert top.derived_dim == d.dim_G + d.dim_P_over_P0
    full = datum("C3", (0, 1, 2))
    assert len(coarse_strata(flag_datum(full, full.I))) == 1


def test_coarse_reference_dim_recorded(c3_datum):
    FZ = flag_datum(c3_datum, ())
    cs = coarse_strata(FZ)
    for c in cs:
        assert c.reference_dim == c.length - dims(FZ).dim_P0
        assert c.I_w == ()


def test_classify_stratum(c3_datum):
    Z = c3_datum
    wg = Z.wg
    FZ = flag_datum(Z, ())
    w = wg.from_bracket("[351]")
    assert classify_stratum(FZ, w, (0, 2)) == {"minimal": True, "cominimal": True}
    for u in wg.min_coset_reps((), "left")[:8]:
        assert classify_stratum(FZ, u, ())["minimal"]
    assert classify_stratum(FZ, wg.e, (0, 2)) == {"minimal": True, "cominimal": True}
    with pytest.raises(StrataError):
        classify_stratum(FZ, w, (1,))  # not inside I


def test_project_stratum(c3_datum):
    Z = c3_datum
    wg = Z.wg
    w = wg.from_bracket("[351]")
    s = project_stratum(Z, (), (0, 2), w)
    assert s.label == "[351]"
    s2 = project_stratum(Z, (0,), (0,), wg.e)
    assert s2.label == wg.describe(wg.e)
    # a label that is neither minimal nor cominimal projects to a union
    bad = next(u for u in wg.min_coset_reps((), "left")
               if not wg.is_min_left(u, (0, 2))
               and not wg.is_min_right(u, flag_datum(Z, (0, 2)).J0))
    with pytest.raises(ProjectionError) as ei:
        project_stratum(Z, (), (0, 2), bad)
    assert ei.value.candidates


def test_project_commutes_with_towers(c3_datum):
    Z = c3_datum
    wg = Z.wg
    I1, I0, I = (), (0,), (0, 2)
    for w in wg.min_coset_reps(I, "left"):
        via = project_stratum(Z, I0, I, project_stratum(Z, I1, I0, w).w)
        direct = project_stratum(Z, I1, I, w)
        assert via.label == direct.label


def test_cross_label(c3_datum):
    Z = c3_datum
    wg = Z.wg
    assert cross_label(Z, wg.e) == wg.e
    reps = wg.min_coset_reps(Z.I, "left")
    images = [cross_label(Z, w) for w in reps]
    assert len(set(images)) == len(reps)
    assert all(wg.is_min_right(t, Z.J) for t in images)
    assert sorted(wg.length(t) for t in images) == sorted(wg.length(w) for w in reps)
    top = max(reps, key=wg.length)
    assert wg.length(cross_label(Z, top)) == wg.length(top)


def test_cross_label_is_order_isomorphism():
    for Z in all_data(("A2", "B2", "C3")):
        wg = Z.wg
        reps = wg.min_coset_reps(Z.I, "left")
        poset_I = hasse_diagram(Z, "I")
        poset_J = hasse_diagram(Z, "J")
        cross = {wg.describe(w): wg.describe(cross_label(Z, w)) for w in reps}
        rel_I = {(poset_I.strata[i].label, poset_I.strata[j].label)
                 for i, j in poset_I.relation}
        rel_J = {(poset_J.strata[i].label, poset_J.strata[j].label)
                 for i, j in poset_J.relation}
        assert {(cross[a], cross[b]) for a, b in rel_I} == rel_J


def test_twisted_datum_poset_and_cross_labels():
    # a non-split datum exercises the galois twist in the closure order and
    # in the label correspondence
    Z = datum("A3", (0,), p=3, galois="flip")
    wg = Z.wg
    assert Z.J == (0,)
    poset = hasse_diagram(Z, "I")  # partial-order axioms asserted inside
    assert poset.strata[0].w == wg.e
    reps = wg.min_coset_reps(Z.I, "left")
    images = [cross_label(Z, w) for w in reps]
    assert len(set(images)) == len(reps)


def test_project_cominimal_label(c3_datum):
    Z = c3_datum
    wg = Z.wg
    J0 = flag_datum(Z, Z.I).J0
    w = next(u for u in wg.min_coset_reps((), "left")
             if wg.is_min_right(u, J0) and not wg.is_min_left(u, Z.I))
    s = project_stratum(Z, (), Z.I, w)
    assert s.side == "J" and s.label == wg.describe(w)
