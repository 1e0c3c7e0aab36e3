import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DOWN_SET_GROUPS, closure_leq, coarse_poset, cross_label, datum, group,
                      twisted_orbit)
from zipstrata import strata
from zipstrata.rootsystem import build_root_datum
from zipstrata.sections import purity_report
from zipstrata.strata import (ProjectionError, StrataError, classify_stratum, coarse_strata,
                              hasse_diagram, project_stratum, zip_strata)
from zipstrata.weyl import WeylGroup
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


def test_hasse_rejects_a_bad_side_before_enumerating(c3_datum, monkeypatch):
    def refuse(*args):
        raise AssertionError("the labels were enumerated")

    monkeypatch.setattr(strata, "zip_strata", refuse)
    monkeypatch.setattr(WeylGroup, "min_coset_reps", refuse)
    with pytest.raises(StrataError, match="side must be 'I' or 'J'"):
        hasse_diagram(c3_datum, side="K")


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
                   if not any(poset.leq(j, i) for j in range(n) if j != i)]
        tops = [i for i in range(n)
                if not any(poset.leq(i, j) for j in range(n) if j != i)]
        assert bottoms == [0] and tops == [n - 1]
        for (i, j) in poset.covers:
            assert poset.strata[i].length < poset.strata[j].length
        assert poset.strata[-1].variety_dim == dims(Z).dim_G


def test_d5_borel_covers_are_bruhat_lower_covers():
    # at I = () the closure order is the Bruhat order on W, whose covers of w
    # are exactly the w s_a over the lower reflections of w
    Z = datum("D5", ())
    wg = Z.wg
    poset = hasse_diagram(Z, "I")
    n = len(poset.strata)
    assert n == 1920
    index = {s.w: k for k, s in enumerate(poset.strata)}
    lower = {j: set() for j in range(n)}
    for i, j in poset.covers:
        lower[j].add(i)
    for j, s in enumerate(poset.strata):
        assert lower[j] == {index[wg.compose(s.w, wg.reflection(a))]
                            for a in wg.lower_reflections(s.w)}
    assert [j for j in range(n) if not lower[j]] == [0]
    assert [i for i in range(n) if not any(poset.leq(i, j) for j in range(n) if j != i)] \
        == [n - 1]
    assert all(poset.leq(0, j) and poset.leq(j, n - 1) for j in range(n))


BOREL_SPECS = [("A1", None, ()), ("A3", None, ()), ("A3", "flip", ()), ("B3", None, ()),
               ("C3", None, ()), ("A4", None, ()), ("D4", None, ()), ("D4", "dswap", ()),
               ("GL1xGL1", None, ()), ("C3", None, (0, 2))]


def word_label(wg, w):
    return ".".join(str(i + 1) for i in wg.canonical_word(w)) or "e"


@pytest.mark.parametrize("side", ["I", "J"])
@pytest.mark.parametrize("spec", BOREL_SPECS, ids=lambda s: "-".join(
    filter(None, (s[0], s[1], "flag" if s[2] else None))))
def test_borel_poset_matches_the_down_set_path(spec, side):
    # I = () (a Borel type, or the flag level I0 = () of C3 with I = {1,3}):
    # the poset read off one level walk against the general path's down-sets
    # and cover extraction on the same strata, and the walk's labels against
    # canonical_word (the bracket on B and C presets)
    preset, galois, base_I = spec
    Z = datum(preset, (), galois=galois) if not base_I else \
        flag_datum(datum(preset, base_I, galois=galois), ())
    assert Z.I == ()
    wg = Z.wg
    poset = hasse_diagram(Z, side)
    ws = [s.w for s in poset.strata]
    assert poset.covers == strata._covers(strata._closure_down_sets(Z, ws))
    label = wg.to_bracket if wg.supports_bracket() else lambda w: word_label(wg, w)
    assert [s.label for s in poset.strata] == [label(w) for w in ws]
    reference = [dataclasses.replace(s, side=side) for s in zip_strata(Z, "I")]
    if side == "J":
        reference.sort(key=lambda s: (s.length, s.label))
    assert list(poset.strata) == reference and len(ws) == wg.order()


@pytest.mark.parametrize("preset", ["A4", "C3"])
def test_borel_hasse_builds_no_down_set_key_or_word(monkeypatch, preset):
    Z = datum(preset, ())

    def refuse(*args):
        raise AssertionError("the Borel path left its walk")
    monkeypatch.setattr(WeylGroup, "_down_sets", refuse)
    monkeypatch.setattr(WeylGroup, "canonical_word", refuse)
    monkeypatch.setattr(strata, "_twisted_keys", refuse)
    monkeypatch.setattr(strata, "zip_strata", refuse)
    for side in "IJ":
        poset = hasse_diagram(Z, side)
        assert len(poset.strata) == Z.wg.order()
        assert "_below" not in vars(poset)      # leq's closure is built on first use
        assert poset.leq(0, len(poset.strata) - 1) and "_below" in vars(poset)


@pytest.mark.parametrize("preset, I", [("A4", (1,)), ("A5", (0, 1, 3, 4))])
def test_hasse_and_purity_read_labels_from_the_walks(monkeypatch, preset, I):
    # with I != () every label, and the frame z = w0 w0_J in ᴵW, is read from
    # the words the coset walk recorded; no word is derived
    rd = build_root_datum(preset)
    Z = zip_from_cochar(rd, I=I, p=2, wg=WeylGroup(rd))

    def refuse(*args):
        raise AssertionError("a label was derived, not read from a walk")
    monkeypatch.setattr(WeylGroup, "canonical_word", refuse)
    poset = hasse_diagram(Z, "I")
    report = purity_report(Z)
    assert [s.label for s in poset.strata] == [c.stratum for c in report.strata]
    assert report.datum["z"] == Z.wg.describe(Z.z) != "e"


def test_borel_walk_asserts_it_reached_all_of_w(monkeypatch):
    Z = datum("A3", ())
    monkeypatch.setattr(WeylGroup, "order", lambda self: 25)
    with pytest.raises(AssertionError, match="reached 24 of the 25 elements"):
        hasse_diagram(Z, "I")


@pytest.mark.parametrize("preset, galois", DOWN_SET_GROUPS)
def test_leq_matches_the_closure_oracle(preset, galois):
    # leq, reachability over the covers, against the one-pair oracle on
    # every pair of strata of every type I with at most 48 strata: that is
    # every type but D4 dswap's five largest, where the oracle takes 0.4-1.8 s
    # each (the D4 dswap Borel covers are checked against the general path in
    # test_borel_poset_matches_the_down_set_path)
    rd, _ = group(preset, galois)
    for r in range(rd.num_simple + 1):
        for I in itertools.combinations(range(rd.num_simple), r):
            Z = datum(preset, I, p=3, galois=galois)
            poset = hasse_diagram(Z, "I")
            ws, n = [s.w for s in poset.strata], len(poset.strata)
            if n > 48:
                assert (preset, galois, r) in (("D4", "dswap", 0), ("D4", "dswap", 1))
                continue
            assert [[poset.leq(i, j) for i in range(n)] for j in range(n)] == \
                [[closure_leq(Z, a, b) for a in ws] for b in ws]


CLOSURE_SPECS = [("A2", None, 1), ("A3", None, 1), ("B2", None, 1), ("C3", None, 1),
                 ("D4", None, 1), ("A3", "flip", 1), ("A3", "flip", 2),
                 ("D4", "dswap", 1), ("B2", None, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLOSURE_SPECS), st.sets(st.integers(0, 3)),
       st.sets(st.integers(0, 3)), st.lists(st.integers(0, 10 ** 4), min_size=1, max_size=3))
def test_down_sets_match_pairwise_oracles(spec, I, I0, columns):
    # whole columns of the closure order against the one-pair oracle
    # closure_leq, and of the coarse order against bruhat_leq
    preset, galois, n = spec
    rd, _ = group(preset, galois)
    I = tuple(sorted(i for i in I if i < rd.num_simple))
    Z = datum(preset, I, p=3, n=n, galois=galois)
    wg = Z.wg
    ws = [s.w for s in zip_strata(Z, "I")]
    below = strata._closure_down_sets(Z, ws)
    coarse = coarse_poset(flag_datum(Z, sorted(I0 & set(I))))
    cws = [s.w for s in coarse.strata]
    for c in columns:
        j, k = c % len(ws), c % len(cws)
        assert [bool(below[j] >> i & 1) for i in range(len(ws))] == \
            [closure_leq(Z, w, ws[j]) for w in ws]
        assert [coarse.leq(i, k) for i in range(len(cws))] == \
            [wg.bruhat_leq(w, cws[k]) for w in cws]


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_twisted_orbits_match_word_oracle(spec):
    # each orbit {u w psi(u)^{-1} : u in W_I} with psi(u) = z^{-1} gamma^n(u) z,
    # where gamma^n(u) is spelled from the canonical word of u with each letter
    # i sent to gamma^n(i); no galois table is read.  Every type I is checked,
    # against the conjugates `project_stratum` composes from the twist frame and
    # the conftest oracle; the simple images read without composing are those
    # of psi(u)^{-1}, and the keys read from them are the keys of those orbits.
    preset, galois, n = spec
    rd, wg = group(preset, galois)
    for r in range(rd.num_simple + 1):
        for I in itertools.combinations(range(rd.num_simple), r):
            Z = datum(preset, I, p=3, n=n, galois=galois)
            psi = [(u, wg.compose(wg.compose(wg.inverse(Z.z), wg.from_word(
                [rd.galois.perm(i, n) for i in wg.canonical_word(u)])), Z.z))
                for u in wg.subgroup_elements(I)]
            ws = wg.min_coset_reps(I, "left")
            orbits = [{wg.compose(wg.compose(u, w), wg.inverse(v)) for u, v in psi}
                      for w in ws]
            frame = strata._twist_frame(Z)
            assert [{wg.compose(wg.compose(u, w), strata._psi_inverse(u, *frame))
                     for u, _ in psi} for w in ws] == orbits
            assert strata._simple_twists(Z) == \
                [(u, tuple(wg.inverse(v)[i] for i in wg._simple_index)) for u, v in psi]
            assert [twisted_orbit(Z, w) for w in ws] == orbits
            assert list(strata._twisted_keys(Z, ws)) == [set(map(wg.key, o)) for o in orbits]


@pytest.mark.parametrize("preset, I, galois", [("C3", (0, 2), None), ("A3", (0,), "flip"),
                                               ("D4", (0, 1), "dswap")])
def test_hasse_j_forms_no_psi_inverse(monkeypatch, preset, I, galois):
    # the J side runs the one orbit pass on its own labels, which reads
    # psi(u)^{-1} at the simple roots only: no whole psi(u)^{-1} is formed,
    # and no u is inverted or twisted through the group
    Z = datum(preset, I, galois=galois)

    def refuse(*args):
        raise AssertionError("an orbit pass formed a whole twist")
    monkeypatch.setattr(strata, "_psi_inverse", refuse)
    monkeypatch.setattr(WeylGroup, "galois", refuse)
    monkeypatch.setattr(WeylGroup, "inverse", refuse)
    poset = hasse_diagram(Z, "J")
    assert len(poset.strata) == len(zip_strata(Z, "J")) and poset.covers


def test_hasse_j_refuses_a_wrong_frame():
    # with z = e in place of the frame of A4, I = {2}, the J side no longer
    # passes its checks; the other-side check refuses I labels that miss an
    # orbit, share one, or lie in theirs at another length
    Z = datum("A4", (1,))
    wg = Z.wg
    with pytest.raises(AssertionError, match="convention error$"):
        hasse_diagram(dataclasses.replace(Z, z=wg.e), "J")
    ws = [s.w for s in hasse_diagram(Z, "J").strata]
    reps = list(wg.min_coset_reps(Z.I, "left"))
    k, t = next((k, t) for k, w in enumerate(reps) for t in twisted_orbit(Z, w)
                if wg.length(t) != wg.length(w))
    for others in (reps[1:], reps[1:] + reps[-1:], reps[:k] + [t] + reps[k + 1:]):
        with pytest.raises(AssertionError, match="other side's labels.*convention error$"):
            strata._closure_down_sets(Z, ws, others)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n),
    st.none() | st.permutations(range(n)))))
def test_covers_match_brute_force(case):
    # _covers raises exactly on relations that are not partial orders, and
    # otherwise returns the pairs with nothing strictly between them; `rank`,
    # when drawn, makes a partial order whose linear extension is not the
    # index order
    rows, rank = case
    n = len(rows)
    below = [r | 1 << j for j, r in enumerate(rows)]
    if rank is not None:
        below = [sum(1 << i for i in range(n) if b >> i & 1 and rank[i] <= rank[j])
                 for j, b in enumerate(below)]
        for _ in range(n):
            for j in range(n):
                for i in range(n):
                    if below[j] >> i & 1:
                        below[j] |= below[i]

    def lt(i, j):
        return i != j and bool(below[j] >> i & 1)

    pairs = [(i, j) for i in range(n) for j in range(n)]
    order = not any(lt(i, j) and lt(j, i) for i, j in pairs) and \
        all(lt(i, k) for i, j in pairs for k in range(n) if lt(i, j) and lt(j, k) and i != k)
    if not order:
        with pytest.raises(AssertionError):
            strata._covers(below)
    else:
        assert list(strata._covers(below)) == \
            [(i, j) for i, j in pairs if lt(i, j) and not any(lt(i, k) and lt(k, j)
                                                             for k in range(n))]


def test_fine_strata(c3_datum):
    Z = c3_datum
    FZ = flag_datum(Z, Z.I)
    assert [s.label for s in zip_strata(FZ)] == [s.label for s in zip_strata(Z, "I")]
    FZB = flag_datum(Z, ())
    fs = zip_strata(FZB)
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
                        fs = zip_strata(FZ)
                        assert max(s.stack_dim for s in fs) == dims(FZ).dim_P_over_P0


def test_coarse_equals_fine_at_borel_type():
    for preset, I in (("C3", (0, 2)), ("GL4", (0, 2)), ("B2", (1,))):
        Z = datum(preset, I)
        FZ = flag_datum(Z, ())
        cs = coarse_strata(FZ)
        fs = zip_strata(FZ)
        assert [c.label for c in cs] == [f.label for f in fs]
        assert [c.derived_dim for c in cs] == [f.variety_dim for f in fs]
        cp = coarse_poset(FZ)
        fp = hasse_diagram(FZ)
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
               and not wg.is_min_right(u, flag_datum(Z, (0, 2)).J))
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
    # the J-side strata are the oracle's cross labels of the I-side ones: one
    # element of each twisted orbit, in Wᴶ and at the length of its I label
    Z = c3_datum
    wg = Z.wg
    assert cross_label(Z, wg.e) == wg.e
    reps = wg.min_coset_reps(Z.I, "left")
    images = [cross_label(Z, w) for w in reps]
    assert sorted(s.w for s in zip_strata(Z, "J")) == sorted(images)
    assert len(set(images)) == len(reps)
    assert all(wg.is_min_right(t, Z.J) for t in images)
    assert [wg.length(t) for t in images] == [wg.length(w) for w in reps]


def cross_label_data():
    """all_data on A2, B2 and C3; every I != () of A3 flip (n = 1, 2), D4
    dswap, A1-rot3 (n = 1, 2, 3), A2-shear and G2-explicit; and every flag
    level I0 of C3 strictly inside I."""
    yield from all_data(("A2", "B2", "C3"))
    for preset, galois, ns in [("A3", "flip", (1, 2)), ("D4", "dswap", (1,)),
                               ("A1-rot3", None, (1, 2, 3)), ("A2-shear", None, (1,)),
                               ("G2-explicit", None, (1,))]:
        rd, _ = group(preset, galois)
        for r in range(1, rd.num_simple + 1):
            for I in itertools.combinations(range(rd.num_simple), r):
                for n in ns:
                    yield datum(preset, I, n=n, galois=galois)
    for r in range(1, 4):
        for I in itertools.combinations(range(3), r):
            for k in range(r):
                for I0 in itertools.combinations(I, k):
                    yield flag_datum(datum("C3", I), I0)


def test_cross_label_is_order_isomorphism():
    # the J-side poset, computed on its own labels, against the I-side one
    # moved through the conftest oracle's cross labels: each cross label is
    # one J-side stratum, in Wᴶ and at its I label's length, no two share
    # one, and the two orders are isomorphic
    for Z in cross_label_data():
        wg = Z.wg
        poset_I, poset_J = hasse_diagram(Z, "I"), hasse_diagram(Z, "J")
        reps = [s.w for s in poset_I.strata]
        images = [cross_label(Z, w) for w in reps]
        assert all(wg.is_min_right(t, Z.J) and wg.length(t) == wg.length(w)
                   for t, w in zip(images, reps))
        at = {s.w: j for j, s in enumerate(poset_J.strata)}
        image = [at[t] for t in images]
        n = len(reps)
        assert sorted(image) == list(range(n))
        assert [[poset_J.leq(image[i], image[j]) for i in range(n)] for j in range(n)] == \
            [[poset_I.leq(i, j) for i in range(n)] for j in range(n)]


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
    assert sorted(s.w for s in hasse_diagram(Z, "J").strata) == sorted(images)
    assert len(set(images)) == len(reps)


def test_project_cominimal_label(c3_datum):
    Z = c3_datum
    wg = Z.wg
    J0 = flag_datum(Z, Z.I).J
    w = next(u for u in wg.min_coset_reps((), "left")
             if wg.is_min_right(u, J0) and not wg.is_min_left(u, Z.I))
    s = project_stratum(Z, (), Z.I, w)
    assert s.side == "J" and s.label == wg.describe(w)
