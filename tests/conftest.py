import functools

import pytest

from zipstrata.rootsystem import (ROOT_ENUMERATION_CAP, RootDatumError, _identity, _mat_mul,
                                  _mat_vec, build_root_datum, dot)
from zipstrata.strata import StrataPoset, _covers, coarse_strata
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import zip_from_cochar

# the A3 diagram flip e_i -> -e_{5-i}, as an explicit galois matrix
A3_FLIP_MATRIX = [[0, 0, 0, -1], [0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]

# G2 in the basis of its simple roots: <alpha_2, alpha_1^vee> = -1,
# <alpha_1, alpha_2^vee> = -3
G2_EXPLICIT = {"rank": 2, "simple_roots": [(1, 0), (0, 1)],
               "simple_coroots": [(2, -1), (-3, 2)]}

# A2 on a rank-3 lattice with an order-2 automorphism swapping the simple roots
# and sending e3 to e3 + alpha_1 - alpha_2; its inverse transpose is not itself
A2_SHEAR = {"rank": 3, "simple_roots": [(1, 0, 0), (0, 1, 0)],
            "simple_coroots": [(2, -1, 0), (-1, 2, 3)]}
SHEAR_MATRIX = [[0, 1, 1], [1, 0, -1], [0, 0, 1]]


# A1 on a rank-3 lattice with gamma fixing the root and rotating the characters
# that vanish on the coroot, x_1 = 0, with order 3: a loop order factor no root sees
A1_ROT3 = {"rank": 3, "simple_roots": [(1, 0, 0)], "simple_coroots": [(2, 0, 0)]}
ROT3_MATRIX = [[1, 0, 0], [0, 0, -1], [0, 1, -1]]


def _a1_rank41():
    """A1 on a rank-41 lattice: gamma fixes the root e_1 (coroot 2e_1) and
    permutes the other 40 coordinates, all of X_0, in cycles 5, 7, 8, 9 and 11,
    so its order is 27,720."""
    perm = [0]
    for c in (5, 7, 8, 9, 11):
        perm += [len(perm) + (t + 1) % c for t in range(c)]
    rank = len(perm)
    return ({"rank": rank, "simple_roots": [[int(j == 0) for j in range(rank)]],
             "simple_coroots": [[2 * int(j == 0) for j in range(rank)]]},
            {"matrix": [[int(perm[j] == i) for j in range(rank)] for i in range(rank)],
             "order": 27720})


A1_RANK41, RANK41_GALOIS = _a1_rank41()


# psi_12 and psi_13, the least strong pseudoprimes to all prime bases up to 37
# and up to 41 (Sorenson and Webster, Math. Comp. 86, 2017); both are composite
PSI_12 = 318665857834031151167461       # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981      # 1287836182261 * 2575672364521


def _e8_cartan():
    """Nodes 1-2-3-4-5-6-7 form a chain and node 8 is attached to node 3."""
    edges = {(i, i + 1) for i in range(6)} | {(2, 7)}
    return [[2 if i == j else -int((i, j) in edges or (j, i) in edges) for j in range(8)]
            for i in range(8)]


# E8 in the basis of its simple roots: simple roots e1..e8, simple coroots the
# Cartan rows.  |W| = 696,729,600, too many to enumerate.
E8_EXPLICIT = {"rank": 8, "simple_roots": [[int(i == j) for j in range(8)] for i in range(8)],
               "simple_coroots": _e8_cartan()}
E7_TYPE = (0, 1, 2, 3, 4, 5, 7)     # I = {1,...,6,8}, 0-based

# explicit data reachable through group() and datum() by name
EXPLICIT = {"G2-explicit": (G2_EXPLICIT, None),
            "A2-shear": (A2_SHEAR, {"matrix": SHEAR_MATRIX, "order": 2}),
            "A1-rot3": (A1_ROT3, {"matrix": ROT3_MATRIX, "order": 3}),
            "A1-rank41": (A1_RANK41, RANK41_GALOIS),
            "E8-explicit": (E8_EXPLICIT, None)}

# groups whose wall rows, verdicts and scans the property tests draw from
ROW_GROUPS = [("B2", None), ("C3", None), ("A3", "flip"), ("D4", "dswap"),
              ("G2-explicit", None), ("A2-shear", None), ("A1-rot3", None)]

# groups small enough to check walks over W against oracles on all of W,
# rank 1 and no roots at all included
DOWN_SET_GROUPS = [("C3", None), ("B2", None), ("A3", "flip"), ("D4", "dswap"),
                   ("G2-explicit", None), ("A1", None), ("GL1xGL1", None)]


@functools.lru_cache(maxsize=None)
def _group(preset, galois):
    if preset in EXPLICIT:
        rd = build_root_datum(*EXPLICIT[preset])
    else:
        rd = build_root_datum(preset, galois=galois)
    return rd, WeylGroup(rd)


def group(preset, galois=None):
    """A preset name, or a key of EXPLICIT (which fixes its own galois)."""
    return _group(preset, galois)


@functools.lru_cache(maxsize=None)
def _datum(preset, I, p, n, galois):
    rd, wg = _group(preset, galois)
    return zip_from_cochar(rd, I=I, n=n, p=p, wg=wg)


def datum(preset, I, p=2, n=1, galois=None):
    return _datum(preset, tuple(I), p, n, galois)


def dot_closure(simple_roots, simple_coroots):
    """Reference root closure on the vectors themselves, one dot product per
    (root, simple root) pair: root a -> (a, coroot, coefficients over the
    simple roots, [s_1(a), ..., s_m(a)] as key objects), in the order the
    breadth-first closure meets the roots.  It raises RootDatumError with the
    library's messages."""
    m, rank = len(simple_roots), len(simple_roots[0]) if simple_roots else 0
    found = {a: (a, ac, tuple(int(i == j) for j in range(m)), [])
             for i, (a, ac) in enumerate(zip(simple_roots, simple_coroots))}
    frontier = list(found)
    while frontier:
        new = []
        for a in frontier:
            _, ac, c, images = found[a]
            for i in range(m):
                si, sic = simple_roots[i], simple_coroots[i]
                k, kc = dot(a, sic), dot(si, ac)
                b = tuple(a[j] - k * si[j] for j in range(rank))
                bc = tuple(ac[j] - kc * sic[j] for j in range(rank))
                coeffs = c[:i] + (c[i] - k,) + c[i + 1:]
                seen = found.get(b)
                if seen is None:
                    found[b] = (b, bc, coeffs, [])
                    new.append(b)
                elif seen[1:3] != (bc, coeffs):
                    raise RootDatumError(
                        "root %r is reached with two coefficient vectors or coroots; "
                        "the simple roots are not linearly independent" % (b,))
                images.append(found[b][0])
        if len(found) > ROOT_ENUMERATION_CAP:
            raise RootDatumError(
                "root enumeration exceeded %d; Cartan data do not define a "
                "finite Weyl group" % ROOT_ENUMERATION_CAP)
        frontier = new
    return found


def subword_down_set(wg, w):
    """Independent Bruhat oracle: {u <= w} is the set of products of the
    subwords of a reduced word of w (subword property, by forward DP)."""
    reach = {wg.e}
    for i in wg.canonical_word(w):
        reach |= {wg.compose(x, wg.simple_reflection(i)) for x in reach}
    return reach


def subword_leq(wg, u, w):
    return u in subword_down_set(wg, w)


def twisted_orbit(Z, w):
    """The twisted orbit {u w psi(u)^{-1} : u in W_I}, psi(u) = z^{-1} gamma^n(u) z,
    each element composed through the group's public operations."""
    wg = Z.wg
    zi = wg.inverse(Z.z)
    return {wg.compose(wg.compose(u, w),
                       wg.inverse(wg.compose(wg.compose(zi, wg.galois(u, Z.n)), Z.z)))
            for u in wg.subgroup_elements(Z.I)}


def closure_leq(Z, lo, hi):
    """One-pair closure oracle: the stratum lo lies in the closure of hi when
    some twisted conjugate of lo is Bruhat-below hi."""
    return any(Z.wg.bruhat_leq(t, hi) for t in twisted_orbit(Z, lo))


def cross_label(Z, w):
    """The J-side label of the I-side label w: the one element of its twisted
    orbit that is minimal on the J side."""
    t, = [t for t in twisted_orbit(Z, w) if Z.wg.is_min_right(t, Z.J)]
    return t


def coarse_poset(FZ):
    """The closure order on the coarse strata of a flag level: the Bruhat order
    induced on their representatives, with the library's cover extraction."""
    cs = coarse_strata(FZ)
    ws = [s.w for s in cs]
    below = FZ.wg._down_sets({FZ.wg.key(w): 1 << i for i, w in enumerate(ws)}, ws)
    return StrataPoset(side="coarse", strata=tuple(cs), covers=_covers(below))


def twist_power(Z, w, r):
    """The sigma-twisted power w^(r): w^(0) = e, w^(r) = gamma^{-1}(w^(r-1) w)."""
    wg, out = Z.wg, Z.wg.e
    for _ in range(r):
        out = wg.galois(wg.compose(out, w), -1)
    return out


def composed_transport(Z, w, alpha):
    """The wall transport (w s_alpha)(alpha^vee), composed and replayed on the
    coroot through the canonical word."""
    wg = Z.wg
    return wg.act(wg.compose(w, wg.reflection(alpha)), Z.rd.coroot(alpha), "cochar")


def triple_sum_product(a, b):
    """The matrix product a b entry by entry, sum_k a[i][k] b[k][j]."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]) if b else 0)) for i in range(len(a)))


@functools.lru_cache(maxsize=None)
def _cochar_matrix(galois):
    """transpose(M^(d-1)) for the char matrix M and order d: the inverse
    transpose of M, since M^d = I."""
    power = _identity(len(galois.char_matrix))
    for _ in range(galois.order - 1):
        power = triple_sum_product(power, galois.char_matrix)
    return tuple(zip(*power))


def cochar(galois, v, k=1):
    """gamma^k on a cocharacter v, by the inverse transpose of the char matrix."""
    for _ in range(k % galois.order):
        v = _mat_vec(_cochar_matrix(galois), v)
    return v


def loop_matrix(Z, w):
    """The loop operator gamma^n o z o w^{-1} on characters, column by column
    through the canonical word, and its order by powering the matrix."""
    wg, rank = Z.wg, Z.rd.rank
    zw = wg.compose(Z.z, wg.inverse(w))
    cols = [Z.rd.galois.char(wg.act(zw, e), Z.n) for e in _identity(rank)]
    loop = tuple(zip(*cols))
    acc, order = loop, 1
    while acc != _identity(rank):
        acc, order = _mat_mul(acc, loop), order + 1
    return loop, order


def transport_orbit(Z, w, alpha, length):
    """The wall transport c and its next images (L^t)^i c under the adjoint of
    the loop matrix, `length` coroots."""
    loop, _T = loop_matrix(Z, w)
    adjoint, v, out = tuple(zip(*loop)), composed_transport(Z, w, alpha), []
    for _ in range(length):
        out.append(v)
        v = _mat_vec(adjoint, v)
    return out


def forward_n_alpha(Z, w, chi, alpha, steps=None):
    """Independent multiplicity oracle: the forward sum
    sum_{i<steps} q^i <L^i chi, (w s_alpha)(alpha^vee)> over the loop matrix;
    `steps` defaults to the loop order T."""
    loop, T = loop_matrix(Z, w)
    c = composed_transport(Z, w, alpha)
    total, v = 0, tuple(chi)
    for i in range(T if steps is None else steps):
        total += dot(v, c) * Z.q ** i
        v = _mat_vec(loop, v)
    return total


@pytest.fixture(scope="session")
def c3():
    rd, wg = group("C3")
    return rd, wg


@pytest.fixture(scope="session")
def c3_datum():
    return datum("C3", (0, 2), p=2)


@pytest.fixture(scope="session")
def gl4():
    rd, wg = group("GL4")
    return rd, wg
