import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DOWN_SET_GROUPS, ROW_GROUPS, group
from zipstrata.cones import (ConeError, _normalize, feasible_strict, kernel_basis,
                             verify_certificate)


def test_single_halfspace():
    res = feasible_strict([(1,)], 1)
    assert res.feasible and res.witness[0] >= 1


def test_opposite_halfspaces_infeasible():
    rows = [(1, 0), (-1, 0)]
    res = feasible_strict(rows, 2)
    assert not res.feasible
    assert verify_certificate(rows, res.certificate)


def test_empty_system_feasible():
    res = feasible_strict([], 3)
    assert res.feasible and res.witness == (0, 0, 0)


def test_zero_row_infeasible():
    rows = [(0, 0)]
    res = feasible_strict(rows, 2)
    assert not res.feasible
    assert verify_certificate(rows, res.certificate)


def test_wedge():
    rows = [(1, -1), (-1, 2)]
    res = feasible_strict(rows, 2)
    assert res.feasible
    x = res.witness
    assert x[0] - x[1] > 0 and -x[0] + 2 * x[1] > 0


def test_three_way_infeasible():
    # x > 0, y > 0, -x - y > 0 cannot hold
    rows = [(1, 0), (0, 1), (-1, -1)]
    res = feasible_strict(rows, 2)
    assert not res.feasible
    assert verify_certificate(rows, res.certificate)


def test_row_length_checked():
    with pytest.raises(ConeError):
        feasible_strict([(1, 0, 0)], 2)


def test_kernel_basis_orthogonal():
    eqs = [(1, -1, 0, 0), (0, 0, 1, -1)]
    basis = kernel_basis(eqs, 4)
    assert len(basis) == 2
    for b in basis:
        for e in eqs:
            assert sum(x * y for x, y in zip(b, e)) == 0
    assert kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_basis([(1, 0), (0, 1)], 2) == []


@st.composite
def systems(draw):
    """(rows, nvars): 1-5 variables, up to 30 rows of small integers, with
    duplicates scaled by 1, 2 and 3 (rows of content > 1) and sometimes a
    zero row."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=25))
    if rows:
        copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                         st.sampled_from([1, 2, 3])),
                               max_size=4))
        rows += [tuple(c * x for x in rows[i]) for i, c in copies]
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), (0,) * n)
    return rows, n


def assert_self_certified(rows, nvars, res):
    if res.feasible:
        for r in rows:
            assert sum(a * b for a, b in zip(r, res.witness)) > 0
    else:
        assert verify_certificate(rows, res.certificate)
        assert sum(1 for c in res.certificate if c != "0") <= nvars + 1


@settings(max_examples=200, deadline=None)
@given(systems())
def test_feasibility_is_self_certifying(system):
    """Witnesses satisfy every inequality; certificates replay to 0 > 0 and are
    basic (at most nvars + 1 nonzero multipliers).

    Either outcome is independently checkable, so this is a complete oracle
    for the solver (Gordan's alternative: exactly one of the two exists).
    """
    rows, n = system
    assert_self_certified(rows, n, feasible_strict(rows, n))


def test_degenerate_rows_through_one_line():
    # every row is orthogonal to (1, 1, 1, 1), so the four coordinate rows of
    # the phase-I tableau sum to zero and its pivots are mostly degenerate;
    # the lexicographically positive half is feasible (e.g. at (27, 9, 3, 1)),
    # the full set holds each row and its negative
    rows = [r for r in itertools.product(range(-2, 3), repeat=4) if sum(r) == 0 and any(r)]
    half = [r for r in rows if next(x for x in r if x) > 0]
    assert len(rows) == 84 and len(half) == 42
    res = feasible_strict(half, 4)
    assert res.feasible
    assert_self_certified(half, 4, res)
    res = feasible_strict(rows, 4)
    assert not res.feasible
    assert_self_certified(rows, 4, res)


@settings(max_examples=40, deadline=None)
@given(systems())
# sympy 1.14 answers s = 1 on these two infeasible systems when t and s are free
@example(([(0, -1, -3), (0, 0, -3), (0, 0, 1)], 3))
@example(([(0, -1, 0), (-1, 0, -1), (0, 0, -1), (0, 0, 1)], 3))
def test_verdict_matches_sympy_lpmax(system):
    """An independent exact LP: rows . t > 0 is feasible iff max s subject to
    rows . t >= s, -1 <= t_i <= 1 and 0 <= s <= 1 is positive.  The system is
    homogeneous, so the bounds leave its feasibility unchanged, and t = 0,
    s = 0 is always a feasible point."""
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import lpmax
    rows, n = system
    t = sympy.symbols("t0:%d" % n)
    s = sympy.Symbol("s")
    constr = [sum(sympy.Rational(a) * x for a, x in zip(r, t)) - s >= 0 for r in rows]
    bounds = [c for x in t for c in (x >= -1, x <= 1)]
    best, _point = lpmax(s, constr + bounds + [s >= 0, s <= 1])
    assert feasible_strict(rows, n).feasible == (best > 0)


def _lcm_point(point):
    """The rational point times the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (scale // x.denominator) for x in point)


def _fraction_normalize(row):
    """The integer row of content 1 on the ray of a row of Fractions."""
    denom = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (denom // x.denominator) for x in row]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _fraction_simplex(rows, nvars):
    """The same phase-I tableau, Bland rule and outputs as `feasible_strict`,
    pivoted in plain Fraction arithmetic: (feasible, point, certificate), with
    the point and the multipliers as Fractions."""
    kept = {}
    for idx, r in enumerate(rows):
        orig = tuple(Fraction(x) for x in r)
        nrm = _fraction_normalize(orig)
        if nrm not in kept:
            kept[nrm] = (idx, next((Fraction(a) / b for a, b in zip(orig, nrm) if b),
                                   Fraction(1)))
    if not kept:
        return True, (Fraction(0),) * nvars, None
    cols = [r + (1,) for r in kept]
    m, n1 = len(cols), nvars + 1
    tab = [[Fraction(c[k]) for c in cols] + [Fraction(int(i == k)) for i in range(n1)]
           + [Fraction(int(k == nvars))] for k in range(n1)]
    cost = [-sum(t[j] for t in tab) for j in range(m)] + [Fraction(0)] * n1 + [Fraction(-1)]
    basis = list(range(m, m + n1))
    while True:
        enter = next((j for j in range(m + n1) if cost[j] < 0), None)
        if enter is None:
            break
        _ratio, _var, leave = min((t[-1] / t[enter], basis[k], k)
                                  for k, t in enumerate(tab) if t[enter] > 0)
        piv = tab[leave][enter]
        prow = tab[leave] = [x / piv for x in tab[leave]]
        for row in tab + [cost]:
            f = row[enter]
            if row is not prow and f:
                row[:] = [x - f * y for x, y in zip(row, prow)]
        basis[leave] = enter
    if cost[-1] == 0:
        certificate = [Fraction(0)] * len(rows)
        origin = list(kept.values())
        for k, j in enumerate(basis):
            if j < m:
                idx, scale = origin[j]
                certificate[idx] = tab[k][-1] / scale
        return False, None, tuple(certificate)
    return True, tuple(cost[m + k] - 1 for k in range(nvars)), None


@settings(max_examples=200, deadline=None)
@given(systems())
# each of these has a ratio-test tie between two rows whose basic indices are
# in the opposite order to the rows; the tie goes to the lower basic index
# (Bland), and breaking it by row, or to the higher index, moves the point or
# the certificate
@example(([(-2, 2), (1, 2)], 2))
@example(([(-1, 2, 1), (2, 2, 1)], 3))
@example(([(-1, 1), (-1, 0), (2, 2), (0, -2)], 2))
@example(([(2, 1, -2), (2, -2, 1), (0, -1, 1), (1, 1, 2), (-2, 1, -1)], 3))
# rows with a zero entering entry are only rescaled by piv / d: here the second
# pivot equals d = 2, so they stay as they are, and there the fourth pivot, 18,
# rescales them over d = 3
@example(([(2, 1), (0, 0), (-1, 2), (-1, 0)], 2))
@example(([(-1, 0, 0), (2, 1, 2), (1, 2, -2), (1, -1, 1)], 3))
def test_integer_pivots_match_fraction_pivots(system):
    """Integer pivoting over a running denominator takes the same pivots as the
    Fraction tableau: the witness is its point with the denominators cleared,
    and the certificate is the text of its multipliers."""
    rows, n = system
    res = feasible_strict(rows, n)
    feasible, point, certificate = _fraction_simplex(rows, n)
    assert res.feasible == feasible
    assert res.witness == (_lcm_point(point) if feasible else None)
    assert res.certificate == (None if feasible else tuple(map(str, certificate)))


def test_normalize_reads_ints_and_fractions():
    assert _normalize((2, -4, 0)) == (1, -2, 0)
    assert _normalize((0, 0)) == (0, 0)


def test_certificate_rejects_garbage():
    rows = [(1, 0), (-1, 0)]
    assert not verify_certificate(rows, (0, 0))
    assert not verify_certificate(rows, (1, -1))
    assert not verify_certificate(rows, (1, 2))
    assert verify_certificate(rows, (1, 1))
    # printed text: a zero or negative denominator and a non-number do not verify
    assert not verify_certificate(rows, ("1/0", "1"))
    assert not verify_certificate(rows, ("1/-2", "1/2"))
    assert not verify_certificate(rows, ("x", "1"))
    assert verify_certificate(rows, ("1/2", "1/2"))
    assert verify_certificate(rows, (1, "1"))
    # rows of unequal length are no system
    assert not verify_certificate([(1, 5), (-1,)], (1, 1))


@settings(max_examples=60, deadline=None)
@given(systems())
def test_integral_point_clears_the_denominators(system):
    """The integral witness, read off the final tableau as v // gcd(d, *v),
    is the Fraction tableau's point scaled by the lcm of its denominators."""
    res = feasible_strict(*system)
    feasible, point, _certificate = _fraction_simplex(*system)
    if res.feasible:
        assert res.witness == _lcm_point(point)
        assert all(type(x) is int for x in res.witness)
    else:
        assert not feasible and res.witness is None


def _fraction_kernel_basis(equalities, nvars):
    """Gauss-Jordan elimination over Fraction to the reduced row echelon
    form; each free column's vector is read off it and made primitive."""
    rows = [[Fraction(x) for x in r] for r in equalities]
    piv_cols = []
    for c in range(nvars):
        r = len(piv_cols)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
    basis = []
    for fc in (c for c in range(nvars) if c not in piv_cols):
        v = [Fraction(0)] * nvars
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -rows[i][fc]
        basis.append(_fraction_normalize(v))
    return basis


@st.composite
def integer_systems(draw):
    """(rows, nvars): 0-7 variables, up to 7 rows of entries in -5..5, some
    of them combinations a * row_i + b * row_j of earlier rows with a, b in
    -2..2, so zero, repeated and dependent rows all occur."""
    n = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), max_size=5))
    if rows:
        index, coeff = st.integers(0, len(rows) - 1), st.integers(-2, 2)
        for i, j, a, b in draw(st.lists(st.tuples(index, index, coeff, coeff), max_size=2)):
            rows.insert(draw(st.integers(0, len(rows))),
                        [a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows, n


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_kernel_basis_matches_fraction_elimination(system):
    rows, n = system
    basis = kernel_basis(rows, n)
    assert basis == _fraction_kernel_basis(rows, n)
    assert all(type(x) is int for v in basis for x in v)


@pytest.mark.parametrize("preset, galois", sorted(set(ROW_GROUPS + DOWN_SET_GROUPS),
                                                  key=str))
def test_kernel_basis_of_coroots_and_levi_equations(preset, galois):
    # the equations of the Levi lattice of every parabolic type I are the
    # simple coroots of I; I = all nodes gives the coroot equations
    rd, _ = group(preset, galois)
    m = rd.num_simple
    for r in range(m + 1):
        for I in itertools.combinations(range(m), r):
            eqs = [rd.coroot(rd.simple_roots[i]) for i in I]
            assert kernel_basis(eqs, rd.rank) == _fraction_kernel_basis(eqs, rd.rank)
