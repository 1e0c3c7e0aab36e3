"""Exact rational feasibility of homogeneous strict-inequality systems by a
phase-I simplex on Gordan's alternative, with integral witnesses and
replayable infeasibility certificates.

A system is a list of coefficient rows r; feasibility asks for a rational
point t with r . t > 0 for every row.  Exactly one of two things exists
(Gordan's alternative): such a point, or a certificate, nonnegative rational
multipliers y, not all zero, combining the rows to the zero form (a positive
combination of strictly positive forms cannot vanish).

The solver minimises the sum of artificial variables for sum_i y_i r_i = 0,
sum_i y_i = 1, y >= 0, by the simplex method with Bland's rule, which cannot
cycle.  The pivots are integer-preserving (Edmonds 1967; Bareiss 1968, as in
Avis's lrs): the tableau is held as integers over one running denominator d,
the previous pivot, and each update (x * piv - f * y) // d divides exactly; a
row with f = 0 only rescales, and not at all when piv = d.
The ratio test compares the quotients of two rows by cross-multiplying their
integer entries.  At objective 0, y is a basic solution and so a certificate
with at most nvars + 1 nonzero multipliers.  Otherwise the simplex
multipliers pi of the final basis give the witness t = -pi[:nvars], with
r . t >= pi[nvars] > 0 on every row (Farkas); it is read off the final
tableau as integers.

Everything a feasible system touches is integral, the kernel bases included
(`kernel_basis`).  `Fraction` is left to the certificate path, the rational
multipliers and their replay (`verify_certificate`), and to the rational
point `Feasibility.point`, built only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence


class ConeError(ValueError):
    pass


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: Optional[tuple] = None        # integral interior point
    certificate: Optional[tuple] = None    # multipliers over the input rows
    scale: int = 1                         # the simplex's point is witness / scale

    @property
    def point(self) -> Optional[tuple]:
        """The rational interior point the simplex found."""
        if self.witness is None:
            return None
        return tuple(Fraction(x, self.scale) for x in self.witness)


def _normalize(row):
    """The integer row of content 1 on the ray of a row of ints or Fractions."""
    try:
        ints, g = row, gcd(*row)     # ints need no common denominator
    except TypeError:                # gcd takes no Fraction
        denom = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (denom // x.denominator) for x in row]
        g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def feasible_strict(rows: Sequence[Sequence], nvars: int) -> Feasibility:
    """Decide whether a rational t exists with row . t > 0 for all rows."""
    kept = {}          # normalised row -> first original index
    for idx, r in enumerate(rows):
        if len(r) != nvars:
            raise ConeError("row length does not match the variable count")
        kept.setdefault(_normalize(r), idx)
    if not kept:
        return Feasibility(True, witness=(0,) * nvars)

    # Tableau rows: the nvars coordinates of sum_j y_j r_j = 0, then sum_j y_j = 1,
    # then `cost`, the phase-I reduced costs and, last, minus the objective.
    # Columns: y_0..y_{m-1}, one artificial per constraint row (the starting
    # basis), then the right-hand side.  The true tableau is tab / d, with
    # d > 0, so signs read off the integers directly.
    m, n1 = len(kept), nvars + 1
    tab = [*map(list, zip(*kept)), [1] * m]
    for k, row in enumerate(tab):
        row += [0] * (n1 + 1)
        row[m + k] = 1
    tab[-1][-1] = 1
    tab.append([-1 - sum(r) for r in kept] + [0] * n1 + [-1])
    ncols, basis, d = m + n1, list(range(m, m + n1)), 1
    while True:
        # Bland's rule: the lowest entering index, ties in the ratio test to the
        # lowest basic index.  Phase I is bounded below, so a ratio exists; d
        # cancels in it, and the ratios t[-1] / t[enter] of the rows with
        # t[enter] > 0 compare by cross-multiplying.
        cost = tab[-1]
        for enter in range(ncols):
            if cost[enter] < 0:
                break
        else:
            break
        leave = None
        for k in range(n1):
            t = tab[k]
            a = t[enter]
            if a > 0 and (leave is None or t[-1] * den < num * a
                          or t[-1] * den == num * a and basis[k] < basis[leave]):
                leave, num, den = k, t[-1], a
        prow = tab[leave]
        piv = prow[enter]
        for k, row in enumerate(tab):
            f = row[enter]
            if f and k != leave:
                tab[k] = [(x * piv - f * y) // d for x, y in zip(row, prow)]
            elif not f and piv != d:        # (x * piv - 0 * y) // d
                tab[k] = [x * piv // d for x in row]
        basis[leave], d = enter, piv

    if cost[-1] == 0:
        certificate = [Fraction(0)] * len(rows)
        origin = list(kept.items())
        for k, j in enumerate(basis):
            if j < m:
                nrm, idx = origin[j]
                certificate[idx] = Fraction(tab[k][-1], d) / _scale_between(rows[idx], nrm)
        return Feasibility(False, certificate=tuple(certificate))
    # the reduced cost of artificial k is 1 - pi_k, so t_k = v_k / d with
    # v_k = cost[m + k] - d; over g = gcd(d, v), v / g is the least integral
    # multiple of t and d / g the least denominator
    v = [c - d for c in cost[m:m + nvars]]
    g = gcd(d, *v)
    return Feasibility(True, witness=tuple(x // g for x in v), scale=d // g)


def _scale_between(row, normalized):
    """The positive rational s with row = s * normalized (zero rows: s = 1)."""
    for a, b in zip(row, normalized):
        if b != 0:
            return Fraction(a) / b
    return Fraction(1)


def verify_certificate(rows: Sequence[Sequence], certificate: Sequence) -> bool:
    """Replay: nonnegative multipliers, not all zero, combining rows to zero."""
    rows = [tuple(Fraction(x) for x in r) for r in rows]
    cert = [Fraction(c) for c in certificate]
    if len(cert) != len(rows):
        return False
    if any(c < 0 for c in cert) or all(c == 0 for c in cert):
        return False
    n = len(rows[0]) if rows else 0
    total = [Fraction(0)] * n
    for c, r in zip(cert, rows):
        for k in range(n):
            total[k] += c * r[k]
    return all(x == 0 for x in total)


def kernel_basis(equalities: Sequence[Sequence], nvars: int) -> List[tuple]:
    """Integral basis of the rational solution space of eq . x = 0.

    Basis vectors have integer entries with content 1; they span the solution
    space over Q (a finite-index sublattice of the full integral kernel, which
    is enough for witnesses of open conditions).  Gauss-Jordan elimination
    without fractions: each update a * row - f * pivot row stays integral and
    is divided by its content.  For each free column f the vector has x_f > 0,
    0 on the other free columns, and on the pivot columns what the pivot rows
    force; the reduced echelon form is unique up to row scaling, so these are
    the vectors a rational elimination reads off.
    """
    rows = [_normalize(r) for r in equalities]
    piv_cols = []      # the pivot column of rows[0], rows[1], ...
    for c in range(nvars):
        r = len(piv_cols)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        a = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row = [a * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        piv_cols.append(c)
    basis = []
    for fc in range(nvars):
        if fc in piv_cols:
            continue
        forced = [(c, row) for c, row in zip(piv_cols, rows) if row[fc]]
        t = lcm(*(row[c] for c, row in forced))
        v = [0] * nvars
        v[fc] = t
        for c, row in forced:
            v[c] = -row[fc] * t // row[c]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis
