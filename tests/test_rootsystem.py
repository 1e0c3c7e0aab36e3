import dataclasses
import itertools
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (A1_RANK41, A2_SHEAR, A3_FLIP_MATRIX, E8_EXPLICIT, G2_EXPLICIT,
                      RANK41_GALOIS, SHEAR_MATRIX, cochar, dot_closure, group,
                      triple_sum_product)
from zipstrata import rootsystem, weyl
from zipstrata.rootsystem import (GaloisAction, RootDatumError, _parse_preset, _root_count,
                                  build_root_datum, dot, reflect)


def test_c3_preset_coordinates():
    rd, _ = group("C3")
    assert len(rd.roots) == 18
    assert len(rd.positive) == 9
    assert rd.simple_roots == ((1, -1, 0), (0, 1, -1), (0, 0, 2))
    assert rd.coroot((0, 0, 2)) == (0, 0, 1)


def test_a1_preset():
    rd, wg = group("A1")
    assert len(rd.roots) == 2
    assert wg.order() == 2


def test_gl4_preset():
    rd, _ = group("GL4")
    assert rd.rank == 4
    assert len(rd.roots) == 12
    assert rd.simple_roots == ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1))


def test_positive_root_counts():
    assert len(group("C3")[0].positive) == 9
    assert len(group("GL4")[0].positive) == 6
    assert list(group("A1")[0].positive) == [(1, -1)]


def test_product_preset():
    rd, _ = group("C3xGL1")
    assert rd.rank == 4
    assert len(rd.roots) == 18
    rd1, _ = group("GL1")
    assert rd1.rank == 1 and len(rd1.roots) == 0


@pytest.mark.parametrize("preset", ["A1", "A2", "A5", "B2", "B3", "B5", "C2", "C4", "D3",
                                    "D4", "D6", "GL1", "GL2", "GL5", "C3xGL1", "A2xB3xD4"])
def test_root_count_from_type_matches_enumeration(preset):
    rd = build_root_datum(preset)
    assert sum(_root_count(*_parse_preset(f)) for f in preset.split("x")) == len(rd.roots)


def test_oversized_preset_rejected_by_count():
    with pytest.raises(RootDatumError, match="preset A100 has 10100 roots"):
        build_root_datum("A100")
    with pytest.raises(RootDatumError, match="preset C3xB71 has 10100 roots"):
        build_root_datum("C3xB71")
    for name in ("A" + "9" * 5000, "A\u00b2"):      # int() reads neither index
        with pytest.raises(RootDatumError, match="unknown preset"):
            build_root_datum(name)


def test_pairing_examples():
    rd, _ = group("C3")
    assert dot((1, 0, 0), (1, -1, 0)) == 1
    assert dot((1, 1, 0), (1, 1, 0)) == 2  # coroot of e1+e2
    assert dot((0, 0, 0), (1, -1, 0)) == 0
    with pytest.raises(RootDatumError):
        dot((1, 0), (1, 0, 0))


def test_reflect_examples():
    rd, _ = group("C3")
    a = (0, 0, 2)
    assert reflect(rd, a, a) == (0, 0, -2)
    assert reflect(rd, a, (1, 0, 0)) == (1, 0, 0)
    assert reflect(rd, a, (0, 0, 1)) == (0, 0, -1)
    with pytest.raises(RootDatumError):
        reflect(rd, (1, 1, 1), (1, 0, 0))


def test_reflect_involutive_and_preserves_roots():
    rd, _ = group("B2")
    for a in rd.roots:
        for b in rd.roots:
            img = reflect(rd, a, b)
            assert img in rd.roots
            assert reflect(rd, a, img) == b


def test_coroot_pairing_two():
    for preset in ("A2", "B2", "C3", "GL4", "D4"):
        rd, _ = group(preset)
        for a in rd.roots:
            assert dot(a, rd.coroot(a)) == 2


def test_galois_split_identity():
    rd, _ = group("C3")
    assert rd.galois.char((1, 2, 3), 1) == (1, 2, 3)


def test_galois_flip_a3():
    rd, _ = group("A3", "flip")
    a1, a2, a3 = rd.simple_roots
    assert rd.galois.char(a1, 1) == a3
    assert rd.galois.char(a2, 1) == a2
    assert rd.galois.char(a1, 2) == a1
    # positive roots map to positive roots bijectively
    pos = set(rd.positive)
    assert {rd.galois.char(a, 1) for a in pos} == pos


def test_galois_dswap_d4():
    rd, _ = group("D4", "dswap")
    assert rd.galois.order == 2
    pos = set(rd.positive)
    assert {rd.galois.char(a, 1) for a in pos} == pos


def test_invalid_cartan_detected():
    # Cartan product a12 * a21 = 4: infinite Weyl group; the enumeration cap trips
    with pytest.raises(RootDatumError):
        build_root_datum({"rank": 2,
                          "simple_roots": [(1, 0), (-2, 1)],
                          "simple_coroots": [(2, 0), (-1, 0)]})


# the closure oracle's data: every small preset family, products, both preset
# diagram automorphisms and the explicit G2 and E8
CLOSURE_DATA = ([(name, None) for name in
                 ["A%d" % n for n in range(1, 8)] + ["B%d" % n for n in range(2, 7)]
                 + ["C%d" % n for n in range(2, 7)] + ["D%d" % n for n in range(4, 7)]
                 + ["GL%d" % n for n in range(1, 6)] + ["C3xGL1", "A2xA2"]]
                + [("A3", "flip"), ("D4", "dswap"), (G2_EXPLICIT, None), (E8_EXPLICIT, None)])


@pytest.mark.parametrize("spec, galois", CLOSURE_DATA,
                         ids=[s if isinstance(s, str) else "explicit-rank%d" % s["rank"]
                              for s, _ in CLOSURE_DATA])
def test_closure_matches_the_dot_product_reference(spec, galois):
    # the coefficient closure gives what closing the vectors under reflections
    # by dot products gives: the same roots, coroots, coefficients and images,
    # in the same order, and the same coroot orbits
    rd = build_root_datum(spec, galois)
    found = dot_closure(rd.simple_roots, rd.simple_coroots)
    assert rd.roots == frozenset(found)
    assert list(rd.coroot_of.items()) == [(a, ac) for a, ac, _, _ in found.values()]
    assert list(rd.coeffs_of.items()) == [(a, c) for a, _, c, _ in found.values()]
    assert rd.positive == tuple(sorted(a for a, _, c, _ in found.values() if min(c) >= 0))
    assert list(rd.images_of.items()) == [(a, (*images, rd.galois.char(a)))
                                          for a, _, _, images in found.values()]
    keys = {id(a) for a in rd.images_of}
    assert all(id(b) in keys for images in rd.images_of.values() for b in images)
    orbits, seen = set(), set()
    for a in found:
        if a not in seen:
            orbit, frontier = {a}, [a]
            while frontier:
                for b in rd.images_of[frontier.pop()]:
                    if b not in orbit:
                        orbit.add(b)
                        frontier.append(b)
            seen |= orbit
            orbits.add(tuple(sorted(found[b][1] for b in orbit)))
    assert rd.coroot_orbits == tuple(sorted(orbits))


@pytest.mark.parametrize("spec", [
    # alpha_2 = -alpha_1: s_1(alpha_2) is alpha_1 again, with coefficients (2, 1)
    {"rank": 1, "simple_roots": [(1,), (-1,)], "simple_coroots": [(2,), (-2,)]},
    # <alpha_2, alpha_1^vee> = 0 but <alpha_1, alpha_2^vee> = -1: s_1 fixes
    # alpha_2 and moves its coroot
    {"rank": 2, "simple_roots": [(1, 0), (0, 1)], "simple_coroots": [(2, 0), (-1, 2)]},
], ids=["dependent-roots", "asymmetric-zero"])
def test_dependent_simple_roots_are_rejected(spec):
    # both pass the Cartan sign checks, and the closure meets one root twice;
    # the dot-product closure stops on the same root with the same message
    with pytest.raises(RootDatumError, match="not linearly independent") as raised:
        build_root_datum(spec)
    with pytest.raises(RootDatumError) as reference:
        dot_closure(spec["simple_roots"], spec["simple_coroots"])
    assert str(raised.value) == str(reference.value)


def test_a_positive_root_leaving_the_positive_roots_is_rejected():
    # s_i permutes the positive roots other than alpha_i.  No datum built from
    # vectors breaks this: its Cartan matrix is the pairing matrix, whose
    # asymmetric zeros stop the closure on its first level (above).  Here the
    # Cartan matrix is given outright, with an asymmetric zero that the zero
    # coroot alpha_1^vee hides, and s_1 takes alpha_1 + alpha_2 to
    # -alpha_1 + alpha_2
    with pytest.raises(RootDatumError, match=re.escape(
            "positive roots do not split the root set in half: s_1 takes the "
            "positive root (1, 1) to (-1, 1)")):
        rootsystem.RootDatum(rank=2, simple_roots=((1, 0), (0, 1)),
                             simple_coroots=((0, 0), (-1, 2)), cartan=((2, 0), (-1, 2)),
                             galois=GaloisAction(((1, 0), (0, 1)), 1, (0, 1)))


@pytest.mark.parametrize("spec, galois", CLOSURE_DATA,
                         ids=[s if isinstance(s, str) else "explicit-rank%d" % s["rank"]
                              for s, _ in CLOSURE_DATA])
def test_levi_subsystems_are_built_once(spec, galois):
    # for every K, the Levi roots are a scan of all roots supported on K, and
    # a repeated call, with K in any form, returns the same object; the
    # negative roots are the datum's own root objects -a, in positive order
    rd = build_root_datum(spec, galois)
    keys = {id(a) for a in rd.images_of}
    assert rd.negative == tuple(tuple(-x for x in a) for a in rd.positive)
    assert all(id(b) in keys for b in rd.negative)
    support = {a: {i for i, x in enumerate(c) if x} for a, c in rd.coeffs_of.items()}
    m = rd.num_simple
    for K in (set(K) for r in range(m + 1) for K in itertools.combinations(range(m), r)):
        levi = frozenset(a for a in rd.roots if support[a] <= K)
        assert rd.levi_roots(K) == levi
        assert rd.levi_positive(K) == {a for a in levi if min(rd.coeffs_of[a]) >= 0}
        assert rd.levi_positive(sorted(K)) is rd.levi_positive(K)
        assert rd.levi_roots(tuple(K)) is rd.levi_roots(K)


def test_invalid_galois_rejected():
    with pytest.raises(RootDatumError):
        build_root_datum("C3", galois="flip")
    with pytest.raises(RootDatumError):
        # matrix that does not permute the simple roots
        build_root_datum("A1", galois={"matrix": [[1, 1], [0, 1]], "order": 1})


def test_explicit_datum_roundtrip():
    rd0, _ = group("B2")
    rd = build_root_datum({"rank": 2,
                           "simple_roots": [list(a) for a in rd0.simple_roots],
                           "simple_coroots": [list(rd0.coroot(a)) for a in rd0.simple_roots]})
    assert rd.roots == rd0.roots


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "B2", "C3"]), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_reflection_fixed_hyperplane(preset, x, y, z):
    rd, _ = group(preset)
    v = (x, y, z)[: rd.rank]
    for a in rd.simple_roots:
        if dot(v, rd.coroot(a)) == 0:
            assert reflect(rd, a, v) == v


@pytest.mark.parametrize("preset,galois", [("C3", None), ("B2", None), ("GL4", None),
                                           ("A3", "flip"), ("D4", "dswap"), ("A2-shear", None),
                                           ("A1-rot3", None), ("G2-explicit", None),
                                           ("C3xGL1", None)])
def test_coroot_orbits_match_weyl_group(preset, galois):
    # oracle: apply every element of W and every galois power to each coroot
    rd, wg = group(preset, galois)
    orbits = {tuple(sorted({cochar(rd.galois, wg.act(w, c, "cochar"), k)
                            for w in wg.elements() for k in range(rd.galois.order)}))
              for c in rd.coroot_of.values()}
    assert rd.coroot_orbits == tuple(sorted(orbits))


@pytest.mark.parametrize("spec, galois", [("C3", None), ("A3", "flip"),
                                          (A2_SHEAR, {"matrix": SHEAR_MATRIX, "order": 2})],
                         ids=["C3", "A3-flip", "A2-shear"])
def test_set_up_reads_one_image_table(monkeypatch, spec, galois):
    # the root datum and its Weyl group reflect no root through `reflect` and
    # apply gamma at most once per root besides the check on the simple roots;
    # the table they read agrees with `reflect` and gamma, and holds the root
    # objects themselves
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    for module in (rootsystem, weyl):
        monkeypatch.setattr(module, "reflect", counting("reflect", module.reflect))
    monkeypatch.setattr(GaloisAction, "char", counting("gamma", GaloisAction.char))
    rd = build_root_datum(spec, galois)
    weyl.WeylGroup(rd)
    assert calls["reflect"] == 0
    assert calls["gamma"] <= len(rd.roots) + rd.num_simple
    monkeypatch.undo()
    keys = {id(a) for a in rd.roots}
    for a, images in rd.images_of.items():
        assert images == tuple(reflect(rd, s, a) for s in rd.simple_roots) + (rd.galois.char(a),)
        assert {id(b) for b in images} <= keys


def test_galois_perm_walks_the_cycle_not_the_order():
    # gamma^k on a simple index steps round the index's cycle, here (0 1 2), not
    # k mod the declared order times; a fresh interpreter turns a walk of 10^15
    # steps into a timeout instead of a hang
    code = ("from zipstrata.rootsystem import GaloisAction\n"
            "g = GaloisAction((), 3 * 10**15, (1, 2, 0))\n"     # perm reads simple_perm only
            "print(g.perm(0, -1), g.perm(0, 10**15 + 1), g.perm(2, 10**15))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=20)
    assert proc.stdout.split() == [str(-1 % 3), str((10**15 + 1) % 3), str((2 + 10**15) % 3)]


ORACLE_DATA = {
    "A4": ("A4", None), "B3": ("B3", None), "C3": ("C3", None), "D4": ("D4", None),
    "GL4": ("GL4", None), "C3xGL1": ("C3xGL1", None), "A3-flip": ("A3", "flip"),
    "G2-explicit": (G2_EXPLICIT, None),
    "A2-shear": (A2_SHEAR, {"matrix": SHEAR_MATRIX, "order": 2}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_DATA))
def test_simple_coefficients_against_linear_solve(name):
    sympy = pytest.importorskip("sympy")
    rd = build_root_datum(*ORACLE_DATA[name])
    basis = sympy.Matrix([list(a) for a in rd.simple_roots]).T
    assert set(rd.coeffs_of) == rd.roots
    for a, c in rd.coeffs_of.items():
        assert tuple(sum(ci * s[k] for ci, s in zip(c, rd.simple_roots))
                     for k in range(rd.rank)) == a
        solution, params = basis.gauss_jordan_solve(sympy.Matrix(a))
        assert params.shape[0] == 0 and list(solution) == list(c)
        assert (a in rd.positive) == all(x >= 0 for x in solution)
    for K in ((), (0,), (0, rd.num_simple - 1), tuple(range(rd.num_simple))):
        assert rd.levi_positive(K) == {a for a in rd.positive
                                       if all(rd.coeffs_of[a][i] == 0
                                              for i in range(rd.num_simple) if i not in K)}


def test_explicit_g2_heights():
    # G2 has six positive roots of heights 1, 1, 2, 3, 4, 5; alpha_2 is short,
    # so the highest root is 2 alpha_1 + 3 alpha_2
    rd = build_root_datum(G2_EXPLICIT)
    assert sorted(sum(rd.coeffs_of[a]) for a in rd.positive) == [1, 1, 2, 3, 4, 5]
    assert max(rd.positive, key=lambda a: sum(rd.coeffs_of[a])) == (2, 3)


@pytest.mark.parametrize("spec, matrix, order", [
    ("A3", A3_FLIP_MATRIX, 2),
    ("A3", A3_FLIP_MATRIX, 4),          # a multiple of the true order
    (A2_SHEAR, SHEAR_MATRIX, 2),
    (A2_SHEAR, SHEAR_MATRIX, 6),
])
def test_explicit_galois_cochar_is_dual(spec, matrix, order):
    rd = build_root_datum(spec, galois={"matrix": matrix, "order": order})
    g = rd.galois
    assert g.order == order
    units = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
    for k in range(order):
        for x in units:
            for y in units:
                assert dot(g.char(x, k), cochar(g, y, k)) == dot(x, y)


def test_explicit_galois_matrix_is_powered_once(monkeypatch):
    # the order check takes M^d by squaring, the one power of M, and no second
    # power or product follows: the coroots are checked through transpose(M)
    calls = []
    mat_mul = rootsystem._mat_mul
    monkeypatch.setattr(rootsystem, "_mat_mul",
                        lambda a, b: calls.append(len(a)) or mat_mul(a, b))
    rd = build_root_datum(A1_RANK41, RANK41_GALOIS)
    d = RANK41_GALOIS["order"]
    assert rd.rank == 41 and set(calls) == {41}
    assert len(calls) == d.bit_length() + bin(d).count("1")


def test_explicit_galois_wrong_order_rejected():
    for order in (1, 3):
        with pytest.raises(RootDatumError, match="declared order"):
            build_root_datum(A2_SHEAR, galois={"matrix": SHEAR_MATRIX, "order": order})


A1_IN_RANK2 = {"rank": 2, "simple_roots": [[1, 0]], "simple_coroots": [[2, 0]]}


@pytest.mark.parametrize("spec, galois, message", [
    (dict(A1_IN_RANK2, rank=True), None, "rank must be an integer, got True"),
    (A1_IN_RANK2, {"matrix": [[True, 0], [0, 1]], "order": 1},
     "galois matrix entry must be an integer, got True"),
    ("A3", {"matrix": A3_FLIP_MATRIX, "order": True}, "galois order must be an integer, got True"),
    (dict(A1_IN_RANK2, simple_coroots=[[2, 0.0]]), None,
     "simple coroot entry must be an integer, got 0.0"),
    (dict(A1_IN_RANK2, simple_coroots=[[2, -2 ** 64]]), None,
     "a simple coroot entry has 65 bits, more than the cap 64"),
    (dict(A1_IN_RANK2, simple_roots=[[1, 2 ** 64]]), None,
     "a simple root entry has 65 bits, more than the cap 64"),
], ids=["rank-true", "matrix-true", "order-true", "coroot-float", "coroot-65-bits",
        "root-65-bits"])
def test_explicit_integers_are_plain_and_bounded(spec, galois, message):
    # a bool is an int in Python, and JSON true must not read as 1
    with pytest.raises(RootDatumError, match=re.escape(message)):
        build_root_datum(spec, galois=galois)


def test_explicit_entries_at_the_bit_cap_are_accepted():
    top = 2 ** rootsystem.ENTRY_BIT_CAP - 1
    rd = build_root_datum(dict(A1_IN_RANK2, simple_coroots=[[2, -top]]))
    assert rd.coroot((1, 0)) == (2, -top)


@pytest.mark.parametrize("spec, message", [
    (dict(A1_IN_RANK2, simple_coroots=[]), "simple roots and coroots differ in number"),
    (dict(A1_IN_RANK2, simple_roots=[[1, 0], [0, 1]]), "simple roots and coroots differ in number"),
    (dict(A1_IN_RANK2, simple_roots=[[1, 0, 0]], simple_coroots=[[2, 0, 0]]),
     "vector length does not match rank"),
    (dict(A1_IN_RANK2, simple_coroots=[[2, 0, 0]]), "vector length does not match rank"),
], ids=["no-coroot", "one-coroot", "both-rank-3", "coroot-rank-3"])
def test_explicit_shapes_are_checked_first(spec, message):
    # a short coroot list indexed past its end, and vectors of the wrong length
    # read the galois matrix as no diagram automorphism, unless the shapes come first
    with pytest.raises(RootDatumError, match=re.escape(message)):
        build_root_datum(spec)


def _square(n):
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    return st.lists(st.one_of(st.just((0,) * n), row), min_size=n, max_size=n).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(_square(n), _square(n))))
@example(((), ()))
@example((((0, 0), (0, 0)), ((1, 2), (3, 4))))
@example((((1, 2), (3, 4)), ((0, 0), (0, 0))))
def test_mat_mul_matches_the_triple_sum(pair):
    a, b = pair
    assert rootsystem._mat_mul(a, b) == triple_sum_product(a, b)


def _monomial(n):
    """n x n matrices whose rows have one nonzero entry each, at a column drawn
    per row: signed, scaled permutation matrices and their degenerate kin."""
    entry = st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1, 2, -3]))
    return st.lists(entry, min_size=n, max_size=n).map(
        lambda row: tuple(tuple(x if j == c else 0 for j in range(n)) for c, x in row))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_monomial(n), _square(n), _monomial(n))))
@example(((((1, 0), (0, 1)), ((1, 2), (3, 4)), ((0, -1), (2, 0)))))
def test_mat_mul_takes_a_monomial_row_as_a_scaled_row(case):
    # a row with one nonzero entry is read as a scaled copy of one row of b; the
    # oracle is the dense product, sum_k a[i][k] b[k][j] over every k
    p, b, q = case
    def dense(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                           for j in range(len(b[0]))) for i in range(len(a)))
    for x, y in ((p, b), (b, p), (p, q)):
        assert rootsystem._mat_mul(x, y) == dense(x, y)
    power = tuple(tuple(int(i == j) for j in range(len(p))) for i in range(len(p)))
    for k in range(5):
        assert rootsystem._mat_pow(p, k) == power
        power = dense(power, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    _square(n), st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
    st.integers(1, 4), st.integers(-5, 5))))
@example(((), (), 1, 1))
@example((((0, 0), (0, 0)), (1, 2), 2, 1))
@example((((0, 1), (1, 0)), (0, 0), 2, 3))
def test_galois_char_matches_the_dense_product(case):
    # char reads only the nonzero entries of M; the oracle is the full product,
    # sum_j M[i][j] v[j], taken k mod the order times
    m, v, order, k = case
    expected = v
    for _ in range(k % order):
        expected = tuple(sum(m[i][j] * expected[j] for j in range(len(v)))
                         for i in range(len(v)))
    assert GaloisAction(m, order, ()).char(v, k) == expected


@pytest.mark.parametrize("spec, galois, message", [
    ("A1", {"matrix": [[1, 1], [0, 1]], "order": 1}, "galois matrix is not a diagram automorphism"),
    (A2_SHEAR, {"matrix": SHEAR_MATRIX, "order": 3},
     "galois matrix does not have the declared order"),
    # M fixes the root e_1 and M^2 = I, but transpose(M) sends the coroot 2e_1
    # to (2, 2), not to itself
    (A1_IN_RANK2, {"matrix": [[1, 1], [0, -1]], "order": 2},
     "galois action does not permute the simple coroots compatibly"),
    ("A3", {"matrix": A3_FLIP_MATRIX, "order": 121}, "galois order 121 exceeds 120"),
    ("C3", "flip", "'flip' is available for single-factor A/GL presets only"),
    ("A2xA1", "flip", "'flip' is available for single-factor A/GL presets only"),
    (G2_EXPLICIT, "flip", "'flip' is available for single-factor A/GL presets only"),
    ("A3", "dswap", "'dswap' is available for single-factor D presets only"),
    ("D4xA1", "dswap", "'dswap' is available for single-factor D presets only"),
    ("A3", "swap", "unsupported galois spec 'swap'"),
], ids=["not-automorphism", "declared-order", "coroots", "order-bound", "flip-C3",
        "flip-product", "flip-explicit", "dswap-A3", "dswap-product", "unknown"])
def test_galois_rejections(spec, galois, message):
    with pytest.raises(RootDatumError, match=re.escape(message)):
        build_root_datum(spec, galois=galois)


def test_galois_perm_disagreeing_with_the_matrix_is_rejected():
    # build_root_datum reads the permutation off the matrix; a datum given a
    # GaloisAction whose permutation disagrees with its matrix is refused
    rd = build_root_datum("A3", "flip")
    with pytest.raises(RootDatumError,
                       match="galois action does not permute the simple roots as declared"):
        dataclasses.replace(rd, galois=GaloisAction(rd.galois.char_matrix, 2, (0, 1, 2)))


@pytest.mark.parametrize("preset, galois", [("A%d" % n, "flip") for n in range(1, 7)]
                         + [("GL%d" % n, "flip") for n in range(2, 8)]
                         + [("D%d" % n, "dswap") for n in range(3, 7)])
def test_preset_permutations_read_off_the_matrix(preset, galois):
    # the diagram automorphisms written out by hand: the flip reverses the A/GL
    # chain, i -> m-1-i, and dswap exchanges the two fork nodes of D, the last two
    rd = build_root_datum(preset, galois)
    m = rd.num_simple
    by_hand = (tuple(m - 1 - i for i in range(m)) if galois == "flip"
               else tuple(range(m - 2)) + (m - 1, m - 2))
    assert rd.galois.order == 2 and rd.galois.simple_perm == by_hand
