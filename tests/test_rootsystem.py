import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A3_FLIP_MATRIX, group
from zipstrata.rootsystem import RootDatumError, build_root_datum, dot, reflect


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
                                           ("A3", "flip"), ("D4", "dswap")])
def test_coroot_orbits_match_weyl_group(preset, galois):
    # oracle: apply every element of W and every galois power to each coroot
    rd, wg = group(preset, galois)
    orbits = {tuple(sorted({rd.galois.cochar(wg.act(w, c, "cochar"), k)
                            for w in wg.elements() for k in range(rd.galois.order)}))
              for c in rd.coroot_of.values()}
    assert rd.coroot_orbits == tuple(sorted(orbits))


# G2 in the basis of its simple roots: <alpha_2, alpha_1^vee> = -1,
# <alpha_1, alpha_2^vee> = -3
G2_EXPLICIT = {"rank": 2, "simple_roots": [(1, 0), (0, 1)],
               "simple_coroots": [(2, -1), (-3, 2)]}

# A2 on a rank-3 lattice with an order-2 automorphism swapping the simple roots
# and sending e3 to e3 + alpha_1 - alpha_2; its inverse transpose is not itself
A2_SHEAR = {"rank": 3, "simple_roots": [(1, 0, 0), (0, 1, 0)],
            "simple_coroots": [(2, -1, 0), (-1, 2, 3)]}
SHEAR_MATRIX = [[0, 1, 1], [1, 0, -1], [0, 0, 1]]


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
                assert dot(g.char(x, k), g.cochar(y, k)) == dot(x, y)


def test_explicit_galois_wrong_order_rejected():
    for order in (1, 3):
        with pytest.raises(RootDatumError, match="declared order"):
            build_root_datum(A2_SHEAR, galois={"matrix": SHEAR_MATRIX, "order": order})
