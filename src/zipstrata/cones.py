"""Exact rational feasibility of homogeneous strict-inequality systems by a
phase-I simplex on Gordan's alternative, with integral witnesses and
replayable infeasibility certificates.

A system is a list of coefficient rows r; feasibility asks for a rational
point t with r . t > 0 for every row.  Exactly one of two things exists
(Gordan's alternative): such a point, or a certificate, nonnegative rational
multipliers y, not all zero, combining the rows to the zero form (a positive
combination of strictly positive forms cannot vanish).

The solver minimises the sum of artificial variables for sum_i y_i r_i = 0,
sum_i y_i = 1, y >= 0, by the simplex method in exact Fraction arithmetic with
Bland's rule, which cannot cycle.  At objective 0, y is a basic solution and so
a certificate with at most nvars + 1 nonzero multipliers.  Otherwise the
simplex multipliers pi of the final basis give the witness t = -pi[:nvars],
with r . t >= pi[nvars] > 0 on every row (Farkas).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence


class ConeError(ValueError):
    pass


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    point: Optional[tuple] = None          # rational interior point
    certificate: Optional[tuple] = None    # multipliers over the input rows

    def integral_point(self) -> Optional[tuple]:
        if self.point is None:
            return None
        denoms = [Fraction(x).denominator for x in self.point]
        scale = 1
        for d in denoms:
            scale = scale * d // gcd(scale, d)
        return tuple(int(Fraction(x) * scale) for x in self.point)


def _normalize(row):
    row = tuple(Fraction(x) for x in row)
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def feasible_strict(rows: Sequence[Sequence], nvars: int) -> Feasibility:
    """Decide whether a rational t exists with row . t > 0 for all rows."""
    kept = {}          # normalised row -> (first original index, scale)
    for idx, r in enumerate(rows):
        orig = tuple(Fraction(x) for x in r)
        if len(orig) != nvars:
            raise ConeError("row length does not match the variable count")
        nrm = _normalize(orig)
        if nrm not in kept:
            kept[nrm] = (idx, _scale_between(orig, nrm))
    if not kept:
        return Feasibility(True, point=(Fraction(0),) * nvars)

    # Tableau rows: the nvars coordinates of sum_j y_j r_j = 0, then sum_j y_j = 1.
    # Columns: y_0..y_{m-1}, one artificial per tableau row (the starting
    # basis), then the right-hand side.  `cost` holds the phase-I reduced
    # costs and, last, minus the objective.
    cols = [r + (1,) for r in kept]
    m, n1 = len(cols), nvars + 1
    tab = [[Fraction(c[k]) for c in cols] + [Fraction(int(i == k)) for i in range(n1)]
           + [Fraction(int(k == nvars))] for k in range(n1)]
    cost = [-sum(t[j] for t in tab) for j in range(m)] + [Fraction(0)] * n1 + [Fraction(-1)]
    basis = list(range(m, m + n1))
    while True:
        # Bland's rule: the lowest entering index, ties in the ratio test to the
        # lowest basic index.  Phase I is bounded below, so a ratio exists.
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
                row[:] = [x - f * y if y else x for x, y in zip(row, prow)]
        basis[leave] = enter

    if cost[-1] == 0:
        certificate = [Fraction(0)] * len(rows)
        origin = list(kept.values())
        for k, j in enumerate(basis):
            if j < m:
                idx, scale = origin[j]
                certificate[idx] = tab[k][-1] / scale
        return Feasibility(False, certificate=tuple(certificate))
    # the reduced cost of artificial k is 1 - pi_k
    return Feasibility(True, point=tuple(cost[m + k] - 1 for k in range(nvars)))


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
    is enough for witnesses of open conditions).
    """
    rows = [[Fraction(x) for x in r] for r in equalities]
    piv_cols = []
    r = 0
    for c in range(nvars):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    basis = []
    free = [c for c in range(nvars) if c not in piv_cols]
    for fc in free:
        v = [Fraction(0)] * nvars
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -rows[i][fc]
        basis.append(_normalize(v))
    return basis
