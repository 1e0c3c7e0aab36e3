import fractions
import gc
import itertools
import os
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path
from weakref import ref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (A1_RANK41, RANK41_GALOIS, ROW_GROUPS, composed_transport, datum,
                      forward_n_alpha, group, loop_matrix, transport_orbit, twist_power)
from zipstrata import cones, rootsystem, sections, weyl
from zipstrata.golden import C3_N_FACTOR, C3_N_TABLE
from zipstrata.rootsystem import _mat_vec, dot
from zipstrata.sections import (SectionError, ampleness, char_section_verdict,
                                character_tests, flag_ampleness, gln_certificate,
                                n_alpha, purity_report, purity_verdict, r_w, section_cone,
                                _wall_root, _wall_rows)
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import flag_datum, zip_from_cochar

WALLS_351 = ((1, 0, -1), (1, 1, 0), (0, 1, -1), (0, 2, 0))


def w351(Z):
    return Z.wg.from_bracket("[351]")


# -- character tests ------------------------------------------------------------

def test_c3_char_tests():
    rd, _ = group("C3")
    v2 = character_tests(rd, (1, 1, 0), 2)
    assert not v2.q_small and not v2.orbitally_q_close
    assert "orbitally_q_close" in v2.witnesses
    for q in (3, 4, 5):
        v = character_tests(rd, (1, 1, 0), q)
        assert v.q_small and v.orbitally_q_close


def test_zero_character():
    rd, _ = group("C3")
    for q in (2, 3):
        v = character_tests(rd, (0, 0, 0), q)
        assert v.q_small and v.orbitally_q_close


def test_gl4_block_character_close():
    rd, _ = group("GL4")
    for q in (2, 3, 5):
        v = character_tests(rd, (2, 2, 1, 1), q)
        assert v.orbitally_q_close


def test_close_does_not_imply_small():
    rd, _ = group("C3")
    v = character_tests(rd, (3, 3, 0), 3)
    assert v.orbitally_q_close and not v.q_small


def test_small_implies_close_for_integral_pairings():
    # for integral characters the smallest nonzero pairing is >= 1, so the
    # orbit ratio bound follows from the q-small bound
    rd, _ = group("B2")
    for chi in itertools.product(range(-2, 3), repeat=2):
        for q in (2, 3):
            v = character_tests(rd, chi, q)
            if v.q_small:
                assert v.orbitally_q_close


def test_q_validation():
    rd, _ = group("A1")
    with pytest.raises(SectionError):
        character_tests(rd, (0, 0), 1)


# -- ampleness -----------------------------------------------------------------

def test_c3_ampleness(c3_datum):
    assert ampleness(c3_datum, (1, 0, 0))[0]
    assert not ampleness(c3_datum, (0, 0, 0))[0]
    assert not ampleness(c3_datum, (-1, 0, 0))[0]
    assert ampleness(c3_datum, (1, 1, 0))[0]


def test_flag_ampleness(c3_datum):
    FZ = flag_datum(c3_datum, ())
    ok, _ = flag_ampleness(FZ, (-2, -3, 1))
    assert ok
    bad, wit = flag_ampleness(FZ, (1, 0, 0))
    assert not bad and wit


def test_flag_ampleness_gl4():
    Z = datum("GL4", (0, 2))
    FZ = flag_datum(Z, ())
    assert flag_ampleness(FZ, (1, 0, 3, 2))[0]
    assert not flag_ampleness(FZ, (2, 2, 1, 1))[0]


# -- twisted powers ---------------------------------------------------------------

def test_twist_power_split(c3_datum):
    Z = c3_datum
    wg = Z.wg
    w = w351(Z)
    assert twist_power(Z, w, 0) == wg.e
    for r in (1, 2, 3):
        acc = wg.e
        for _ in range(r):
            acc = wg.compose(acc, w)
        assert twist_power(Z, w, r) == acc


def test_twist_power_flip():
    rd, wg = group("A3", "flip")
    Z = zip_from_cochar(rd, I=(0,), n=1, p=3, wg=wg)
    w = wg.from_word([0, 1])
    lhs = twist_power(Z, w, 2)
    rhs = wg.galois(wg.compose(wg.galois(w, -1), w), -1)
    assert lhs == rhs
    # r_w is the least r >= 1 with (w gamma^n(z))^(r) = e
    v = wg.compose(w, wg.galois(Z.z, Z.n))
    r = r_w(Z, w)[0]
    assert [twist_power(Z, v, k) == wg.e for k in range(1, r + 1)] == [False] * (r - 1) + [True]


def test_r_w_split(c3_datum):
    Z = c3_datum
    wg = Z.wg
    w = w351(Z)
    r, m = r_w(Z, w)
    assert m == 1
    # split case: the multiplicative order of w z
    wz = wg.compose(w, Z.z)
    acc, k = wz, 1
    while acc != wg.e:
        acc = wg.compose(acc, wz)
        k += 1
    assert r == k == 6
    zi = wg.inverse(Z.z)
    assert r_w(Z, zi)[0] == 1


# -- multiplicities ---------------------------------------------------------------

def test_reference_table():
    # the reference pattern appears at the Levi-lattice generator, scaled by
    # the alpha-independent positive factor (p^3 - 1)(p + 1)
    for p in (2, 3, 5, 7):
        Z = datum("C3", (0, 2), p=p)
        w = w351(Z)
        factor = (p ** 3 - 1) * (p + 1)
        vals = [n_alpha(Z, w, (1, 1, 0), a) for a in WALLS_351]
        assert vals == [factor * v for v in (p - 1, 2 * p - 1, p - 2, p - 1)]


def test_n_alpha_linearity(c3_datum):
    Z = datum("C3", (0, 2), p=3)
    w = w351(Z)
    a = WALLS_351[1]
    assert n_alpha(Z, w, (0, 0, 0), a) == 0
    for chi in ((1, 0, 0), (0, 1, 0), (1, 2, -1)):
        assert n_alpha(Z, w, tuple(2 * x for x in chi), a) == \
            2 * n_alpha(Z, w, chi, a)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
def test_n_alpha_bilinear_random(a1, a2, c1, c2):
    Z = datum("C3", (0, 2), p=3)
    w = w351(Z)
    x = (a1, a2, 1)
    y = (c1, c2, -1)
    both = tuple(u + v for u, v in zip(x, y))
    for a in WALLS_351[:2]:
        assert n_alpha(Z, w, both, a) == n_alpha(Z, w, x, a) + n_alpha(Z, w, y, a)


def test_period_stability():
    for p in (2, 3):
        Z = datum("C3", (0, 2), p=p)
        w = w351(Z)
        sv = char_section_verdict(Z, w, (1, 0, 0))
        T = sv.period
        q = Z.q
        for k in (2, 3):
            # k windows of the forward sum repeat the first, scaled by q^(jT)
            factor = sum(q ** (j * T) for j in range(k))
            for a in WALLS_351:
                assert forward_n_alpha(Z, w, (1, 0, 0), a, k * T) == \
                    factor * n_alpha(Z, w, (1, 0, 0), a)


def test_n_alpha_window_is_the_loop_order():
    # The summation window is T, the order of the whole loop operator L, not
    # the least period of the summand <L^i chi, c>.  On B2 Borel, stratum
    # [21], wall (1,-1) the summand is constant (period 1) while T = 2, so
    # n_alpha = (1 + q) <chi, c> = 4; the least-period window would give 1.
    Z = datum("B2", (), p=3)
    w = Z.wg.from_bracket("[21]")
    alpha, chi = (1, -1), (1, 0)
    loop, T = loop_matrix(Z, w)
    c = composed_transport(Z, w, alpha)
    assert T == char_section_verdict(Z, w, chi).period == 2
    assert dot(_mat_vec(loop, chi), c) == dot(chi, c) == 1
    assert n_alpha(Z, w, chi, alpha) == (1 + Z.q) * dot(chi, c) == 4


def _window_row(q, coroots):
    """sum_i q^i coroots[i]: a wall row summed over len(coroots) terms."""
    return tuple(sum(q ** i * c for i, c in enumerate(col)) for col in zip(*coroots))


def test_351_rows_are_antiperiodic_half_windows():
    # On [351], T = 6 and (L^t)^3 sends each wall's transport to its
    # negative, so each row is (1 - q^3) times its three-term half-window row;
    # at (1,1,0) the half window gives -(q + 1) times the reference table,
    # the wrong sign, so no window reproduces the table
    for p in (2, 3, 5, 7):
        Z = datum("C3", (0, 2), p=p)
        w, q = w351(Z), Z.q
        rows, T = _wall_rows(Z, w, WALLS_351)
        assert T == 6
        for a, row, ref in zip(WALLS_351, rows, C3_N_TABLE[p]):
            orbit = transport_orbit(Z, w, a, 4)
            assert orbit[3] == rootsystem.vneg(orbit[0])
            half = _window_row(q, orbit[:3])
            assert row == tuple((1 - q ** 3) * x for x in half)
            assert dot(half, (1, 1, 0)) == -(q + 1) * ref


@pytest.mark.parametrize("preset, I, galois", [("C3", (0, 2), None), ("B2", (), None),
                                               ("A3", (1,), "flip"), ("D4", (0, 1), "dswap")])
def test_period_windows_scale_rows_positively(preset, I, galois):
    # summing a wall's summand over a period P of it (P divides T) instead of
    # over T divides the row by (q^T - 1)/(q^P - 1) > 0: no verdict or cone moves
    for p in (2, 3):
        Z = datum(preset, I, p=p, galois=galois)
        for w in Z.wg.min_coset_reps(Z.I, "left"):
            walls = Z.wg.lower_reflections(w)
            rows, T = _wall_rows(Z, w, walls)
            for a, row in zip(walls, rows):
                orbit = transport_orbit(Z, w, a, T)
                for P in (P for P in range(1, T + 1) if T % P == 0):
                    if orbit[P:] == orbit[:T - P]:
                        factor = (Z.q ** T - 1) // (Z.q ** P - 1)
                        assert row == tuple(factor * x for x in _window_row(Z.q, orbit[:P]))


def test_n_alpha_rejects_non_wall(c3_datum):
    Z = c3_datum
    with pytest.raises(SectionError):
        n_alpha(Z, w351(Z), (1, 0, 0), (0, 0, 2))


def test_stratum_functions_refuse_a_non_label(c3_datum):
    Z = c3_datum
    w = Z.wg.from_bracket("[213]")      # s1: in W_I, and not minimal on the J side
    for call in (lambda: n_alpha(Z, w, (1, 1, 0), (1, -1, 0)),
                 lambda: char_section_verdict(Z, w, (1, 1, 0)),
                 lambda: section_cone(Z, w)):
        with pytest.raises(SectionError, match="w is not a stratum label for this datum"):
            call()


def test_verdicts(c3_datum):
    Z2 = datum("C3", (0, 2), p=2)
    Z3 = datum("C3", (0, 2), p=3)
    w = w351(Z2)
    sv2 = char_section_verdict(Z2, w, (1, 1, 0))
    assert not sv2.verdict
    assert dict(sv2.multiplicities)[(0, 1, -1)] == 0
    sv3 = char_section_verdict(Z3, w, (1, 1, 0))
    assert sv3.verdict
    factor = (3 ** 3 - 1) * (3 + 1)
    assert sorted(v for _a, v in sv3.multiplicities) == \
        sorted(factor * v for v in (2, 5, 1, 2))
    for chi in ((1, 0, 0), (5, -1, 2)):
        assert char_section_verdict(Z2, Z2.wg.e, chi).verdict


# -- cones and purity ---------------------------------------------------------------

def test_cone_reference_feasibility():
    for p, feas in ((2, False), (3, True), (5, True), (7, True)):
        Z = datum("C3", (0, 2), p=p)
        cone = section_cone(Z, w351(Z), "levi")
        assert cone.feasible == feas
        if feas:
            assert cone.witness is not None
            assert char_section_verdict(Z, w351(Z), cone.witness).verdict
        else:
            assert cone.certificate is not None


def test_cone_identity_stratum(c3_datum):
    cone = section_cone(c3_datum, c3_datum.wg.e, "levi")
    assert cone.feasible and cone.walls == ()
    assert cone.witness == (0, 0, 0)


def test_cone_witnesses_replay():
    for preset, I in (("B2", (0,)), ("C3", (0, 2)), ("GL4", (0, 2))):
        Z = datum(preset, I, p=3)
        wg = Z.wg
        for w in wg.min_coset_reps(Z.I, "left"):
            cone = section_cone(Z, w, "levi")
            if cone.feasible and cone.witness is not None:
                assert char_section_verdict(Z, w, cone.witness).verdict


def test_purity_c3():
    rep2 = purity_report(datum("C3", (0, 2), p=2))
    assert not rep2.principally_pure
    assert rep2.failing_strata == ("[351]",)
    assert not rep2.uniformly_pure
    assert rep2.ample_close_char is None
    rep3 = purity_report(datum("C3", (0, 2), p=3))
    assert rep3.principally_pure and rep3.uniformly_pure
    assert rep3.ample_close_char is not None
    assert char_section_verdict(datum("C3", (0, 2), p=3),
                                datum("C3", (0, 2), p=3).wg.from_bracket("[351]"),
                                rep3.uniform_witness).verdict


def test_purity_full_levi_trivial():
    rep = purity_report(datum("C3", (0, 1, 2), p=2))
    assert rep.principally_pure and rep.uniformly_pure


def test_purity_flagged_borel():
    Z = datum("C3", (0, 2), p=3)
    FZ = flag_datum(Z, ())
    rep = purity_report(FZ, lattice="levi")
    assert rep.lattice == "levi"
    assert len(rep.strata) == 48
    assert rep.principally_pure


def test_purity_flagged_borel_large_p():
    # at p = 7 an ample orbitally-q-close character of the small Levi exists,
    # so the fine stratification must be uniformly principally pure
    Z = datum("C3", (0, 2), p=7)
    FZ = flag_datum(Z, ())
    rep = purity_report(FZ, lattice="levi")
    assert rep.ample_close_char is not None
    assert rep.uniformly_pure


def test_monotonicity_ample_close_implies_positive():
    # every lattice character that is ample and orbitally q-close certifies
    # every stratum (the sufficient-condition check inside purity_report
    # asserts this; here it is exercised directly on a box of radius 2)
    from zipstrata.sections import _lattice_basis
    for preset, I, p in (("C3", (0, 2), 3), ("GL4", (0, 2), 2), ("B2", (1,), 2)):
        Z = datum(preset, I, p=p)
        wg = Z.wg
        reps = wg.min_coset_reps(Z.I, "left")
        basis = _lattice_basis(Z, "levi")
        for chi in _sorted_box(basis, 2):
            if not ampleness(Z, chi)[0]:
                continue
            if not character_tests(Z.rd, chi, Z.q).orbitally_q_close:
                continue
            for w in reps:
                assert char_section_verdict(Z, w, chi).verdict


@pytest.mark.parametrize("preset, I, p, galois", [
    ("C3", (0, 2), 3, None), ("C3", (0, 2), 5, None), ("C3", (1,), 5, None),
    ("C3", (), 7, None), ("B3", (), 7, None), ("A3", (1,), 3, "flip"),
    ("A4", (0, 3), 3, None), ("D4", (0, 1, 2), 2, "dswap"), ("C4", (1,), 7, None),
    ("C4", (0, 1, 2), 2, None), ("A5", (0, 1, 3, 4), 2, None)])
def test_ample_close_cone_lies_in_every_section_cone(preset, I, p, galois):
    # the whole ample, orbitally q-close cone, not only the point that
    # purity_report finds in it, lies inside every stratum's section cone:
    # each distinct wall row r over the Levi basis is positive on it, since
    # {ample, close, r . c <= 0} is infeasible with a certificate that replays
    # (the weak rows are built as _ample_close_char builds them)
    Z = datum(preset, I, p=p, galois=galois)
    report = purity_report(Z)
    data = sections._cone_data(Z)
    _pairs, strict, orbits = data.ample
    weak = [tuple((Z.q - 1) * x - y for x, y in zip(u, v))
            for close, high in orbits for u in close for v in high]
    rows = {r for cone in report.strata for r in cone.reduced_rows}
    assert report.ample_close_char is not None and strict and rows
    for r in rows:
        outside = weak + [tuple(-x for x in r)]
        res = cones.feasible_strict(strict, len(data.levi), outside)
        assert not res.feasible, (report.datum, r)
        assert cones.verify_certificate(strict, res.certificate, outside)


def test_gln_certificate():
    cert = gln_certificate((2, 2), 2)
    assert cert.lam == (2, 2, 1, 1)
    assert cert.verdict.zip_ample and cert.verdict.orbitally_q_close
    cert6 = gln_certificate((1,) * 6, 2)
    assert cert6.lam == (6, 5, 4, 3, 2, 1)
    assert cert6.verdict.zip_ample
    assert not cert6.verdict.orbitally_q_close
    for q in (2, 3):
        c2 = gln_certificate((1, 1), q)
        assert c2.lam == (2, 1)
        assert c2.verdict.zip_ample and c2.verdict.orbitally_q_close
    cert9 = gln_certificate((2, 2), 9)  # prime power q
    assert cert9.datum.p == 3 and cert9.datum.n == 2
    assert cert9.verdict.orbitally_q_close


def test_gl4_purity_with_candidate():
    for q in (2, 3):
        cert = gln_certificate((2, 2), q)
        rep = purity_report(cert.datum, candidates=[cert.lam])
        assert rep.uniformly_pure and rep.uniform_witness == cert.lam


def test_gl4_borel_p2_not_uniform():
    # the Borel datum is principally pure (Bruhat strata) but has no single
    # character working for all strata at p = 2
    Z = datum("GL4", (), p=2)
    rep = purity_report(Z, lattice="levi")
    assert rep.principally_pure
    assert not rep.uniformly_pure
    assert rep.uniform_certificate is not None


def test_twisted_datum_sections_smoke():
    Z = datum("A3", (0,), p=3, galois="flip")
    wg = Z.wg
    w = max(wg.min_coset_reps(Z.I, "left"), key=wg.length)
    walls = wg.lower_reflections(w)
    assert walls
    for a in walls[:3]:
        x, y = (1, 0, -1, 0), (0, 2, 0, -1)
        both = tuple(u + v for u, v in zip(x, y))
        assert n_alpha(Z, w, both, a) == n_alpha(Z, w, x, a) + n_alpha(Z, w, y, a)
    sv = char_section_verdict(Z, w, (2, 1, -1, -2))
    assert sv.m == 2 and sv.period % 2 == 0
    rep = purity_report(Z, lattice="levi")
    assert len(rep.strata) == len(wg.min_coset_reps(Z.I, "left"))


@pytest.mark.parametrize("preset, I, p, n, galois", [
    ("C3", (0, 2), 2, 1, None),
    ("B2", (0,), 2, 2, None),
    ("A3", (0, 2), 3, 1, "flip"),
    ("D4", (0, 1), 2, 1, "dswap"),
    ("GL4", (0, 2), 3, 1, None),
])
def test_cone_rows_are_n_alpha(preset, I, p, n, galois):
    """The cone rows (the adjoint sum over the wall transport) agree with the
    forward sum over the loop matrix, and so do the verdict's multiplicities
    and n_alpha."""
    Z = datum(preset, I, p=p, n=n, galois=galois)
    rank = Z.rd.rank
    chi = tuple(range(2, 2 - rank, -1))
    for w in Z.wg.min_coset_reps(Z.I, "left"):
        _check_rows_against_forward_sum(Z, w, chi)


def _check_rows_against_forward_sum(Z, w, chi):
    rank = Z.rd.rank
    cone = section_cone(Z, w, "torus")
    for a, row in zip(cone.walls, cone.ambient_rows):
        assert row == tuple(forward_n_alpha(Z, w, tuple(int(k == j) for k in range(rank)), a)
                            for j in range(rank))
    expected = tuple((a, forward_n_alpha(Z, w, chi, a)) for a in cone.walls)
    assert char_section_verdict(Z, w, chi).multiplicities == expected
    assert tuple((a, n_alpha(Z, w, chi, a)) for a in cone.walls) == expected


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([("A2", None), ("A2", "flip"), ("B2", None), ("C3", None),
                        ("A3", "flip"), ("D4", "dswap"), ("GL4", None), ("C3xGL1", None)]),
       st.sets(st.integers(0, 3)), st.sampled_from([2, 3, 5]), st.integers(1, 2),
       st.data())
def test_cone_rows_are_n_alpha_random(group_spec, I, p, n, data):
    """As above, on a random datum, stratum and character."""
    preset, galois = group_spec
    rd, _ = group(preset, galois)
    Z = datum(preset, sorted(i for i in I if i < rd.num_simple), p=p, n=n, galois=galois)
    w = data.draw(st.sampled_from(Z.wg.min_coset_reps(Z.I, "left")), label="stratum")
    chi = data.draw(st.tuples(*[st.integers(-3, 3)] * rd.rank), label="chi")
    _check_rows_against_forward_sum(Z, w, chi)


# -- each fact built once ---------------------------------------------------------------

TRANSPORT_GROUPS = [("A2", None), ("A2", "flip"), ("B2", None), ("C3", None),
                    ("A3", "flip"), ("D4", "dswap"), ("GL4", None), ("C3xGL1", None),
                    ("G2-explicit", None), ("A2-shear", None)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TRANSPORT_GROUPS), st.sets(st.integers(0, 3)), st.integers(1, 2),
       st.data())
def test_wall_transport_is_the_composed_action(group_spec, I, n, data):
    """The coroot of the root the wall-start index names equals (w s_alpha)(alpha^vee)
    composed and replayed through the canonical word, for every positive root
    alpha."""
    preset, galois = group_spec
    rd, _ = group(preset, galois)
    Z = datum(preset, sorted(i for i in I if i < rd.num_simple), p=3, n=n, galois=galois)
    wg = Z.wg
    w = data.draw(st.sampled_from(wg.min_coset_reps(Z.I, "left")), label="stratum")
    for a in rd.positive:
        assert rd.coroot(wg._roots[_wall_root(Z, w, a)]) == composed_transport(Z, w, a)


def _sorted_box(basis, radius):
    """The whole box materialised and sorted by (sup-norm, lex)."""
    m = len(basis)
    pts = sorted((c for c in itertools.product(range(-radius, radius + 1), repeat=m) if any(c)),
                 key=lambda c: (max(abs(x) for x in c), c))
    n = len(basis[0]) if basis else 0
    return [tuple(sum(c[k] * basis[k][j] for k in range(m)) for j in range(n)) for c in pts]


AMPLE_DATA = [("C3", I, p, None, None) for I in ((), (0,), (1,), (2,), (0, 1), (0, 2),
                                                 (1, 2), (0, 1, 2)) for p in (2, 7)]
AMPLE_DATA += [(preset, I, p, None, None) for preset, I, ps in (
    ("A4", (1,), (2, 5)), ("A3", (), (2, 5)), ("B3", (), (2, 7))) for p in ps]
AMPLE_DATA += [("C3", (0, 2), 7, None, (0,)), ("A3", (0,), 3, "flip", None),
               ("GL4", (0, 2), 3, None, None)]


@pytest.mark.parametrize("preset, I, p, galois, I0", AMPLE_DATA)
def test_ample_search_matches_brute_force(preset, I, p, galois, I0):
    """Wherever the box of radius 3 holds an ample, orbitally q-close point
    of the Levi lattice, the exact cone finds one, and the point it prints is
    ample, orbitally q-close and positive on every stratum's rows."""
    Z = datum(preset, I, p=p, galois=galois)
    Zt = flag_datum(Z, I0) if I0 is not None else Z
    levi = sections._lattice_basis(Zt, "levi")
    in_box = next((chi for chi in _sorted_box(levi, 3)
                   if ampleness(Zt, chi)[0]
                   and character_tests(Zt.rd, chi, Zt.q).orbitally_q_close), None)
    rep = purity_report(Zt)
    chi = rep.ample_close_char
    assert chi is not None or in_box is None
    if chi is not None:
        _assert_ample_close(Zt, rep, chi)


def _assert_ample_close(Z, rep, chi):
    """chi is a nonzero Levi character, ample, orbitally q-close and positive
    on every stratum's rows."""
    assert any(chi) and all(dot(chi, e) == 0 for e in sections._lattice_equations(Z, "levi"))
    assert ampleness(Z, chi)[0]
    assert character_tests(Z.rd, chi, Z.q).orbitally_q_close
    for cone in rep.strata:
        assert all(dot(row, chi) > 0 for row in cone.ambient_rows)


def _ample_cone_solves(monkeypatch):
    """Every (rows, weak, result) of an ample cone solved while patched: only
    that call passes `cones.feasible_strict` its weak rows, even when empty."""
    solved = []

    def recording(rows, nvars, *weak, _fn=cones.feasible_strict):
        res = _fn(rows, nvars, *weak)
        if weak:
            solved.append((rows, weak[0], res))
        return res
    monkeypatch.setattr(cones, "feasible_strict", recording)
    return solved


@pytest.mark.parametrize("preset, p", [(preset, p) for preset in ("C3", "B3")
                                       for p in (7, 11, 13)])
def test_ample_cone_finds_what_the_box_missed(preset, p):
    # on these Borel cells the default box of radius 2 held no ample,
    # orbitally q-close character; the exact cone finds one
    Z = datum(preset, (), p=p)
    rep = purity_report(Z)
    assert rep.uniformly_pure and rep.ample_close_char is not None
    _assert_ample_close(Z, rep, rep.ample_close_char)


@pytest.mark.parametrize("preset, I, p", [("C4", (), 7), ("C3", (0, 2), 2)])
def test_empty_ample_cone_is_certified(monkeypatch, preset, I, p):
    # C4 Borel at p = 7: no ample, orbitally q-close character at all, though
    # the uniform cone is feasible; C3 with I = {1,3} at p = 2 on its rank-1
    # Levi lattice, where the deleted walk went through a whole box of radius
    # 5000 to find none.  Each null comes with a Motzkin certificate
    Z = datum(preset, I, p=p)
    solved = _ample_cone_solves(monkeypatch)
    rep = purity_report(Z)
    assert rep.ample_close_char is None and rep.uniformly_pure == (preset == "C4")
    [(rows, weak, res)] = solved
    assert rows and not res.feasible
    assert cones.verify_certificate(rows, res.certificate, weak)
    assert not cones.verify_certificate(rows, ("0",) * len(rows) + res.certificate[len(rows):],
                                        weak)


@pytest.mark.parametrize("preset, I, expected", [
    ("GL3", (0, 1), (-1, -1, -1)),       # the determinant line
    ("C3xGL1", (0, 1, 2), (0, 0, 0, -1)),
    ("GL1xGL1", (), (-1, -1)),
    ("C3", (0, 1, 2), None),             # a Levi lattice of rank 0
])
def test_every_levi_character_ample(monkeypatch, preset, I, expected):
    # with I = every simple root there are no ample rows: every Levi character
    # is ample and kills every coroot, and the character printed is
    # -sum_k b_k over the Levi basis, with no cone solved
    Z = datum(preset, I, p=2)
    assert not sections._ample_transports(Z)
    solved = _ample_cone_solves(monkeypatch)
    rep = purity_report(Z)
    assert rep.ample_close_char == expected and not solved
    if expected is not None:
        levi = sections._lattice_basis(Z, "levi")
        assert expected == tuple(-sum(col) for col in zip(*levi))
        _assert_ample_close(Z, rep, expected)


def _refuse(*args, **kwargs):
    raise AssertionError("rebuilt")


@pytest.mark.parametrize("preset, I, p, n, cand", [
    ("B2", (0,), 2, 2, (1, 1)),          # the ample, orbitally q-close search succeeds
    ("C3", (0, 2), 2, 1, (1, 1, 0)),     # a candidate is the uniform witness
])
def test_purity_report_reuses_cone_rows(monkeypatch, preset, I, p, n, cand):
    Z = datum(preset, I, p=p, n=n)
    expected = purity_report(Z, candidates=[cand])
    calls = {"_wall_rows": 0, "_ample_transports": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(sections, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sections, name, counted)
    monkeypatch.setattr(sections, "char_section_verdict", _refuse)
    monkeypatch.setattr(sections, "ampleness", _refuse)
    assert purity_report(Z, candidates=[cand]) == expected
    assert calls == {"_wall_rows": len(expected.strata), "_ample_transports": 0}


PURITY_ORACLE_CELLS = [(preset, I, p) for preset, m in (("C3", 3), ("C4", 4))
                       for k in range(m + 1) for I in itertools.combinations(range(m), k)
                       for p in (2, 3)]


@pytest.mark.parametrize("preset, I, p", PURITY_ORACLE_CELLS)
def test_witness_rule_matches_solving_every_cone(preset, I, p):
    # `purity_report` solves every section cone; `purity_verdict` solves only
    # the strata that no recent witness certifies, and must fail the same ones.
    # Among the cells: C3 I={1,3} fails [351] at p = 2, and C4 I={2} and
    # I={3} fail 4 and 12 strata there, each with an infeasible uniform cone
    Z = datum(preset, I, p=p)
    report = purity_report(Z)
    assert purity_verdict(Z).failing_strata == report.failing_strata
    failing = {("C3", (0, 2), 2): 1, ("C4", (1,), 2): 4, ("C4", (2,), 2): 12}
    if (preset, I, p) in failing:
        assert not report.uniformly_pure
        assert len(report.failing_strata) == failing[preset, I, p]
    if (preset, I, p) == ("C3", (0, 2), 2):
        assert report.failing_strata == ("[351]",)


def test_witness_rule_solves_fewer_cones_than_strata(monkeypatch):
    # C4 Borel at p = 2: the uniform cone is infeasible and every one of the
    # 384 section cones is feasible; the move-to-front list certifies most of
    # them, and no stratum is tried against more witnesses than the list holds
    # (a solved cone's replay of its own witness is not a try)
    Z = datum("C4", (), p=2)
    labels = Z.wg.min_coset_reps(Z.I, "left")
    assert len(labels) == 384 and not purity_report(Z).uniformly_pure
    solves, tries, solving = [0], {}, []

    def counted_solve(*args, _fn=cones.feasible_strict):
        solves[0] += 1
        return _fn(*args)

    def replaying(*args, _fn=sections._solve_cone):
        solving.append(True)
        try:
            return _fn(*args)
        finally:
            solving.pop()

    def counted_try(rows, chi, _fn=sections._positive_on):
        if not solving:
            tries[id(rows)] = tries.get(id(rows), 0) + 1
        return _fn(rows, chi)
    monkeypatch.setattr(cones, "feasible_strict", counted_solve)
    monkeypatch.setattr(sections, "_solve_cone", replaying)
    monkeypatch.setattr(sections, "_positive_on", counted_try)
    verdict = purity_verdict(Z)
    assert verdict.principally_pure and not verdict.uniformly_pure
    assert solves[0] < len(labels)
    assert max(tries.values()) <= sections.WITNESS_LIST


def test_loops_and_transport_do_not_enumerate(monkeypatch):
    Z = datum("C5", (0, 1, 2, 3))
    w = Z.wg.from_word([4])
    for name in ("elements", "subgroup_elements", "min_coset_reps"):
        monkeypatch.setattr(WeylGroup, name, _refuse)
    sv = char_section_verdict(Z, w, (1, 1, 1, 1, 0))
    assert (sv.r_w, sv.m, sv.period) == (4, 1, 4)
    assert sv.multiplicities == (((0, 0, 0, 0, 2), 6),)
    assert n_alpha(Z, w, (1, 1, 1, 1, 0), (0, 0, 0, 0, 2)) == 6
    assert section_cone(Z, w).feasible


# -- wall rows from the root permutation ------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ROW_GROUPS), st.sets(st.integers(0, 3)), st.sampled_from([2, 3]),
       st.integers(1, 2), st.data())
def test_wall_rows_are_the_matrix_adjoint_sum(group_spec, I, p, n, data):
    """The permutation order T is the order of the loop matrix, and each row is
    the adjoint sum sum_{i<T} q^i (L^t)^i c over matrix-vector products."""
    preset, galois = group_spec
    rd, _ = group(preset, galois)
    Z = datum(preset, sorted(i for i in I if i < rd.num_simple), p=p, n=n, galois=galois)
    w = data.draw(st.sampled_from(Z.wg.min_coset_reps(Z.I, "left")), label="stratum")
    walls = Z.wg.lower_reflections(w)
    rows, T = _wall_rows(Z, w, walls)
    loop, order = loop_matrix(Z, w)
    assert T == order
    adjoint = tuple(zip(*loop))
    for alpha, row in zip(walls, rows):
        v, expected = composed_transport(Z, w, alpha), (0,) * rd.rank
        for i in range(T):
            expected = tuple(x + Z.q ** i * y for x, y in zip(expected, v))
            v = _mat_vec(adjoint, v)
        assert row == expected


class _Unread(tuple):
    def __getitem__(self, j):
        raise AssertionError("a column was read")


def test_wall_rows_refuse_past_the_bit_cap_before_any_walk(monkeypatch):
    # the wall of s_1 on the rank-41 datum has T = 27,720: the cap is read off
    # the stratum's entry, before any orbit reads a column of the cone data
    rd, wg = group("A1-rank41")
    Z = zip_from_cochar(rd, I=(), p=2, wg=wg)
    w, data = wg.from_word([0]), sections._cone_data(Z)
    for name in ("coroots", "columns"):
        monkeypatch.setattr(data, name, _Unread(getattr(data, name)))
    with pytest.raises(SectionError, match="T = 27720 of stratum 1"):
        _wall_rows(Z, w, wg.lower_reflections(w))


def test_the_label_check_runs_once_per_stratum_across_primes(monkeypatch):
    # the entry of [351] is built, its label checked, once for all four primes
    # and all four walls; every other call only reads it
    rd, _ = group("C3")
    wg = WeylGroup(rd)                              # fresh: nothing is kept for it yet
    data = [zip_from_cochar(rd, I=(0, 2), p=p, wg=wg) for p in (2, 3, 5, 7)]
    w, calls, is_min_left = wg.from_bracket("[351]"), [], WeylGroup.is_min_left
    monkeypatch.setattr(WeylGroup, "is_min_left",
                        lambda g, u, K: calls.append(u) or is_min_left(g, u, K))
    values = [[n_alpha(Z, w, (1, 1, 0), a) for a in WALLS_351] for Z in data]
    assert calls == [w]
    assert values == [[C3_N_FACTOR(Z.q) * v for v in C3_N_TABLE[Z.p]] for Z in data]


def test_a_second_prime_reuses_each_stratum_entry_whole(monkeypatch):
    # the first prime's report builds every entry, whole, as a tuple; the
    # second reads those same objects and builds or replaces none
    rd, _ = group("C3")
    wg = WeylGroup(rd)
    first = purity_report(zip_from_cochar(rd, I=(0, 2), p=2, wg=wg))
    Z = zip_from_cochar(rd, I=(0, 2), p=3, wg=wg)
    expected = purity_report(datum("C3", (0, 2), p=3))
    entries = dict(sections._cone_data(Z).strata)
    assert len(entries) == len(first.strata)
    assert all(type(e) is tuple and len(e[3]) == len(e[1]) for e in entries.values())
    read, stratum = [], sections._ConeData.stratum

    def spy(data, Z, w):
        read.append((w, stratum(data, Z, w)))
        return read[-1][1]
    monkeypatch.setattr(sections._ConeData, "stratum", spy)
    assert purity_report(Z) == expected
    assert read and all(e is entries[w] for w, e in read)
    assert sections._cone_data(Z).strata == entries


def test_no_module_level_table_keeps_a_group_alive():
    # the prime-free tables live in the group's own memo, so they go with it
    rd, _ = group("C3")
    wg = WeylGroup(rd)
    alive = ref(wg)
    for I in ((), (0, 2)):
        for p in (2, 3, 5, 7):
            Z = zip_from_cochar(rd, I=I, p=p, wg=wg)
            purity_verdict(Z)
        purity_report(Z)
    assert {key[0] for key in wg._memo} == {"frame", "cone"}
    del wg, Z
    gc.collect()
    assert alive() is None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ROW_GROUPS), st.sets(st.integers(0, 3)),
       st.sampled_from([2, 3, 5, 7]), st.integers(1, 2))
def test_purity_reports_share_prime_free_data_across_primes(group_spec, I, p, n):
    """A report whose cone data other primes filled equals one on a fresh group."""
    preset, galois = group_spec
    rd, _ = group(preset, galois)
    I = sorted(i for i in I if i < rd.num_simple)
    for other in (2, 3, 5, 7):
        if other != p:
            purity_report(datum(preset, I, p=other, n=n, galois=galois))
    shared = purity_report(datum(preset, I, p=p, n=n, galois=galois))
    assert shared == purity_report(zip_from_cochar(rd, I=I, n=n, p=p, wg=WeylGroup(rd)))


def test_wall_rows_need_no_lattice_action(monkeypatch):
    cases = [(datum(preset, I, p=3, n=n, galois=galois), I)
             for preset, I, n, galois in [("A3", (1,), 1, "flip"), ("D4", (), 2, "dswap"),
                                          ("A2-shear", (), 1, None), ("G2-explicit", (), 1, None),
                                          ("A1-rot3", (), 1, None), ("C3", (0, 2), 1, None)]]
    expected = [[_wall_rows(Z, w, Z.wg.lower_reflections(w))
                 for w in Z.wg.min_coset_reps(I, "left")] for Z, I in cases]
    monkeypatch.setattr(WeylGroup, "act", _refuse)
    monkeypatch.setattr(rootsystem, "reflect", _refuse)
    monkeypatch.setattr(weyl, "reflect", _refuse)
    assert [[_wall_rows(Z, w, Z.wg.lower_reflections(w))
             for w in Z.wg.min_coset_reps(I, "left")] for Z, I in cases] == expected


@pytest.mark.parametrize("preset, I, galois", [("C3", (0, 2), None), ("A3", (1,), "flip")])
def test_purity_report_builds_each_lattice_basis_once(monkeypatch, preset, I, galois):
    Z = datum(preset, I, p=3, galois=galois)
    expected = {lattice: purity_report(Z, lattice=lattice) for lattice in ("levi", "torus")}
    calls = []

    def counted(*args, _fn=cones.kernel_basis):
        calls.append(args)
        return _fn(*args)
    monkeypatch.setattr(cones, "kernel_basis", counted)
    for lattice, uses in (("levi", 0), ("torus", 1)):     # the datum's cone data keeps the Levi one
        calls.clear()
        assert purity_report(Z, lattice=lattice) == expected[lattice]
        assert len(calls) == uses


@pytest.mark.parametrize("preset, I, lattice", [("B3", (), "levi"), ("A3", (), "torus"),
                                                ("C3", (0, 2), "torus")])
def test_standard_basis_cones_skip_the_change_of_basis(preset, I, lattice):
    # over the standard basis (I empty under levi, always under torus) the
    # reduced rows are the ambient rows and the witness is the simplex's point
    Z = datum(preset, I, p=3)
    rank = Z.rd.rank
    rep = purity_report(Z, lattice=lattice)
    for c in rep.strata:
        assert c.basis == tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        assert c.reduced_rows is c.ambient_rows
        point = cones.feasible_strict(c.ambient_rows, rank).witness
        assert c.witness == (point if c.feasible else None)
    if rep.uniformly_pure:
        rows = [row for c in rep.strata for row in c.ambient_rows]
        assert rep.uniform_witness == cones.feasible_strict(rows, rank).witness


@pytest.mark.parametrize("preset, I, galois, order", [("A3", (1,), "flip", 2),
                                                      ("A1-rot3", (), None, 3)])
def test_radical_order_is_computed_once_per_datum(monkeypatch, preset, I, galois, order):
    # the order of gamma^n on X_0 steps gamma through the period of each vector
    # of a basis of X_0, here `order` steps for each of the rank - m vectors,
    # once for the whole report and not once per stratum; a second prime keeps it
    rd, _ = group(preset, galois)
    wg = WeylGroup(rd)                              # fresh: nothing is kept for it yet
    Z = zip_from_cochar(rd, I=I, p=3, wg=wg)
    expected = [purity_report(datum(preset, I, p=p, galois=galois)) for p in (3, 5)]
    calls = []
    char = rootsystem.GaloisAction.char
    monkeypatch.setattr(rootsystem.GaloisAction, "char",
                        lambda g, v, k=1: calls.append(v) or char(g, v, k))
    assert purity_report(Z) == expected[0] and len(expected[0].strata) > 1
    assert sections._cone_data(Z).radical_order == order
    assert len(calls) == order * (rd.rank - rd.num_simple)
    assert purity_report(zip_from_cochar(rd, I=I, p=5, wg=wg)) == expected[1]
    assert len(calls) == order * (rd.rank - rd.num_simple)


def test_radical_order_takes_the_periods_of_a_basis():
    # on the rank-41 datum gamma has cycles 5, 7, 8, 9 and 11 on X_0, so gamma^n
    # has order lcm(c / gcd(c, n)) there; each basis period is walked one gamma
    # at a time, not n matrix steps per step, and a fresh interpreter turns
    # such a walk into a timeout
    ns = (1, 2, 8, 3465, 4999)
    code = """if True:
        from zipstrata import sections
        from zipstrata.rootsystem import build_root_datum
        from zipstrata.zipdatum import zip_from_cochar
        rd = build_root_datum(%r, %r)
        print(rd.rank, *(sections._cone_data(zip_from_cochar(rd, I=(), p=2, n=n)).radical_order
                         for n in %r))
    """ % (A1_RANK41, RANK41_GALOIS, ns)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=20)
    expected = [lcm(*(c // gcd(c, n) for c in (5, 7, 8, 9, 11))) for n in ns]
    assert expected == [27720, 13860, 3465, 8, 27720]
    assert proc.stdout.split() == ["41"] + [str(t) for t in expected], proc.stderr


@pytest.mark.parametrize("preset, I, p", [("C3", (0, 2), 3), ("A3", (), 2)])
def test_feasible_cones_build_no_fraction(monkeypatch, preset, I, p):
    # a feasible cone touches no Fraction: the kernel bases eliminate in
    # integers and the witnesses are read off the final tableau, so with
    # every Fraction construction made to raise, every feasible section cone
    # and, on the uniformly pure golden datum (C3, I = {1,3}, p = 3), the
    # purity report and verdict come out as before; a fresh WeylGroup keeps
    # no cone data, so the Levi basis is eliminated again under the patch
    rd, _ = group(preset)
    Z = datum(preset, I, p=p)
    labels = [w for w in Z.wg.min_coset_reps(I, "left") if section_cone(Z, w).feasible]
    expected = [section_cone(Z, w) for w in labels]
    reports = purity_report(Z), purity_verdict(Z)
    pure = reports[0].uniformly_pure and reports[0].principally_pure
    assert pure == (preset == "C3")

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    Z = zip_from_cochar(rd, I=I, p=p, wg=WeylGroup(rd))
    assert [section_cone(Z, w) for w in labels] == expected
    if pure:
        assert (purity_report(Z), purity_verdict(Z)) == reports


def test_cli_loads_no_fractions():
    # no library path builds a Fraction: certificates are written from the
    # integers of the final tableau, so a fresh interpreter that prints the
    # certificates of the infeasible uniform cones of A4 I = {2} and A3 Borel,
    # and a whole C3 scan, never imports `fractions` (nor `decimal`, which it
    # loads)
    root = Path(__file__).resolve().parents[1]
    configs = root / "perfbench" / "configs"
    argvs = [["purity", "--config", str(configs / "a4-i2.json")],
             ["purity", "--config", str(configs / "a3-borel.json")],
             ["scan", "--config", str(configs / "c3-scan.json")]]
    code = """if True:
        import sys
        from zipstrata import cli
        for argv in %r:
            assert cli.main(argv) == 0, argv
        loaded = {"fractions", "decimal"} & set(sys.modules)
        assert not loaded, loaded
    """ % argvs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"uniform_certificate": [') >= 2
