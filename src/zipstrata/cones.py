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

Everything is integral: the rows, the tableau, the witnesses and the kernel
bases (`kernel_basis`).  A certificate's multipliers are exact rationals,
written as text "p/q" (or "p" when q = 1) from the integers of the final
tableau; `verify_certificate` reads that text back and replays it over the
lcm of the denominators.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import List, Optional, Sequence


class ConeError(ValueError):
    pass


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: Optional[tuple] = None        # integral interior point
    certificate: Optional[tuple] = None    # "p/q" multipliers over the input rows


def _normalize(row):
    """The integer row of content 1 on the ray of an integer row."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


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
        # row idx is gcd(row) times its kept normal form, so its multiplier is
        # y_j / gcd(row) = tab[k][-1] / (d * gcd(row)), with 1 for a zero row
        certificate = ["0"] * len(rows)
        origin = list(kept.values())
        for k, j in enumerate(basis):
            if j < m:
                idx = origin[j]
                num, den = tab[k][-1], d * (gcd(*rows[idx]) or 1)
                g = gcd(num, den)
                num, den = num // g, den // g
                certificate[idx] = "%d/%d" % (num, den) if den > 1 else str(num)
        return Feasibility(False, certificate=tuple(certificate))
    # the reduced cost of artificial k is 1 - pi_k, so t_k = v_k / d with
    # v_k = cost[m + k] - d; v / gcd(d, *v) is the least integral multiple of t
    v = [c - d for c in cost[m:m + nvars]]
    g = gcd(d, *v)
    return Feasibility(True, witness=tuple(x // g for x in v))


def verify_certificate(rows: Sequence[Sequence], certificate: Sequence) -> bool:
    """Replay: nonnegative multipliers, not all zero, combining rows to zero.

    A multiplier is an int or the text "p" or "p/q" that `feasible_strict`
    writes; other text, a denominator q <= 0 or ragged rows do not verify.
    """
    try:
        pairs = [(int(p), int(q) if slash else 1)
                 for p, slash, q in (str(c).partition("/") for c in certificate)]
    except ValueError:
        return False
    if (len(pairs) != len(rows) or len(set(map(len, rows))) > 1
            or any(p < 0 or q <= 0 for p, q in pairs) or not any(p for p, _ in pairs)):
        return False
    den = lcm(*(q for _, q in pairs))
    ys = [p * (den // q) for p, q in pairs]
    return all(sum(y * x for y, x in zip(ys, col)) == 0 for col in zip(*rows))


def kernel_basis(equalities: Sequence[Sequence], nvars: int) -> List[tuple]:
    """Integral basis of the rational solution space of eq . x = 0.

    Basis vectors have integer entries with content 1; they span the solution
    space over Q (a finite-index sublattice of the full integral kernel, which
    is enough for witnesses of open conditions).  Gauss-Jordan elimination
    in integers: each update a * row - f * pivot row stays integral and
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
