"""Stratum enumeration, the twisted closure order, Hasse diagrams, coarse
strata, minimal/cominimal classification, projections between flag levels and
the correspondence between the two stratum labelings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from .weyl import WeylElt
from .zipdatum import FlaggedZipDatum, ZipDatum, dims, flag_datum


class StrataError(ValueError):
    pass


class ProjectionError(StrataError):
    """Raised when a stratum label does not project to a single stratum."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True)
class Stratum:
    w: WeylElt
    side: str               # "I" or "J"
    label: str
    length: int
    variety_dim: int
    stack_dim: int


@dataclass(frozen=True)
class CoarseStratum:
    w: WeylElt
    label: str
    length: int
    I_w: tuple
    reference_dim: int      # the classical formula; inconsistent at I0 = (), recorded as stated
    derived_dim: int        # double-cell dimension plus the flag-fiber dimension


@dataclass(frozen=True)
class StrataPoset:
    side: str
    strata: tuple           # Stratum, sorted by (length, label)
    covers: tuple           # pairs of indices into strata, low -> high
    relation: frozenset     # all (low, high) index pairs with low strictly below high

    def leq(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.relation

    def bottom(self) -> Stratum:
        return self.strata[0]

    def top(self) -> Stratum:
        return self.strata[-1]


# -- the twisted conjugation of the closure order --------------------------------

def _psi(Z: ZipDatum, u: WeylElt) -> WeylElt:
    """The Weyl-level Frobenius twist through the frame: z^{-1} gamma^n(u) z."""
    wg = Z.wg
    return wg.compose(wg.compose(wg.inverse(Z.z), wg.galois(u, Z.n)), Z.z)


def _twisted_orbit(Z: ZipDatum, w: WeylElt):
    """Yield the twisted conjugates u w psi(u)^{-1} for u in W_I, in W_I order."""
    wg = Z.wg
    for u in wg.subgroup_elements(Z.I):
        yield wg.compose(wg.compose(u, w), wg.inverse(_psi(Z, u)))


def _closure_below(Z: ZipDatum, lo: WeylElt, hi: WeylElt) -> bool:
    """lo is in the closure of hi: exists u in W_I with u lo psi(u)^{-1} <= hi."""
    return any(Z.wg.bruhat_leq(t, hi) for t in _twisted_orbit(Z, lo))


def closure_leq(Z: ZipDatum, lo: WeylElt, hi: WeylElt) -> bool:
    wg = Z.wg
    for w in (lo, hi):
        if not wg.is_min_left(w, Z.I):
            raise StrataError("labels for the closure order must be minimal "
                              "left coset representatives")
    return _closure_below(Z, lo, hi)


def cross_label(Z: ZipDatum, w: WeylElt) -> WeylElt:
    """The unique twisted conjugate of w that is minimal on the J side.

    Bridges the two stratum parametrizations; uniqueness and length
    preservation are asserted.
    """
    wg = Z.wg
    if not wg.is_min_left(w, Z.I):
        raise StrataError("cross_label expects a label minimal on the I side")
    found = {t for t in _twisted_orbit(Z, w) if wg.is_min_right(t, Z.J)}
    if len(found) != 1:
        raise AssertionError(
            "twisted orbit of %s meets the J-side labels %d times; convention error"
            % (wg.describe(w), len(found)))
    (t,) = found
    if wg.length(t) != wg.length(w):
        raise AssertionError("cross label changed the length; convention error")
    return t


# -- stratum enumeration -----------------------------------------------------------

def _make_stratum(Z: ZipDatum, w: WeylElt, side: str, dim_P: int, dim_G: int) -> Stratum:
    wg = Z.wg
    l = wg.length(w)
    return Stratum(w=w, side=side, label=wg.describe(w), length=l,
                   variety_dim=l + dim_P, stack_dim=l + dim_P - dim_G)


def zip_strata(Z: ZipDatum, side: str = "I") -> List[Stratum]:
    """One stratum per minimal coset representative, ordered by (length, word)."""
    wg = Z.wg
    d = dims(Z)
    if side == "I":
        reps = wg.min_coset_reps(Z.I, "left")
    elif side == "J":
        reps = wg.min_coset_reps(Z.J, "right")
    else:
        raise StrataError("side must be 'I' or 'J'")
    return [_make_stratum(Z, w, side, d.dim_P, d.dim_G) for w in reps]


def fine_strata(FZ: FlaggedZipDatum, side: str = "I") -> List[Stratum]:
    """Strata of the induced datum, with dimensions measured in the base datum."""
    d = dims(FZ)
    wg = FZ.Z0.wg
    if side == "I":
        reps = wg.min_coset_reps(FZ.I0, "left")
    elif side == "J":
        reps = wg.min_coset_reps(FZ.J0, "right")
    else:
        raise StrataError("side must be 'I' or 'J'")
    return [_make_stratum(FZ.Z0, w, side, d.dim_P, d.dim_G) for w in reps]


def coarse_strata(FZ: FlaggedZipDatum) -> List[CoarseStratum]:
    """Double-coset strata with both the classical and the derived dimension."""
    wg = FZ.Z0.wg
    d = dims(FZ)
    out = []
    for w in wg.double_coset_reps(FZ.I0, FZ.J0):
        I_w = wg.double_coset_type(w, FZ.I0, FZ.J0)
        l = wg.length(w)
        l_i0 = wg.length(wg.longest_element(FZ.I0))
        l_j0 = wg.length(wg.longest_element(FZ.J0))
        l_iw = wg.length(wg.longest_element(I_w))
        reference_dim = l + l_j0 - l_iw - d.dim_P0
        derived_dim = l + l_i0 + l_j0 - l_iw + d.dim_B + d.dim_P_over_P0
        out.append(CoarseStratum(w=w, label=wg.describe(w), length=l, I_w=I_w,
                                 reference_dim=reference_dim, derived_dim=derived_dim))
    out.sort(key=lambda s: wg.sort_key(s.w))
    return out


def coarse_poset(FZ: FlaggedZipDatum) -> StrataPoset:
    """Closure order on coarse strata: induced Bruhat order on the reps."""
    wg = FZ.Z0.wg
    cs = coarse_strata(FZ)
    rel = set()
    for i, a in enumerate(cs):
        for j, b in enumerate(cs):
            if i != j and wg.bruhat_leq(a.w, b.w):
                rel.add((i, j))
    covers = _transitive_reduction(rel, len(cs))
    return StrataPoset(side="coarse", strata=tuple(cs), covers=tuple(sorted(covers)),
                       relation=frozenset(rel))


def _transitive_reduction(rel: set, n: int) -> list:
    covers = []
    for (i, j) in sorted(rel):
        if not any((i, k) in rel and (k, j) in rel for k in range(n)):
            covers.append((i, j))
    return covers


def hasse_diagram(Z: ZipDatum, side: str = "I") -> StrataPoset:
    """Closure-order poset with cover edges.

    The order is computed on the I-side labels; the J-side poset carries the
    same order transported through `cross_label`.
    """
    strata_I = zip_strata(Z, "I")
    ws = [s.w for s in strata_I]
    n = len(ws)
    rel = set()
    for i in range(n):
        for j in range(n):
            if i != j and _closure_below(Z, ws[i], ws[j]):
                rel.add((i, j))
    if side == "I":
        strata = strata_I
    elif side == "J":
        wg = Z.wg
        d = dims(Z)
        crossed = [cross_label(Z, w) for w in ws]
        strata = [_make_stratum(Z, w, "J", d.dim_P, d.dim_G) for w in crossed]
        order = sorted(range(n), key=lambda i: (strata[i].length, strata[i].label))
        inv = {old: new for new, old in enumerate(order)}
        strata = [strata[i] for i in order]
        rel = {(inv[i], inv[j]) for (i, j) in rel}
    else:
        raise StrataError("side must be 'I' or 'J'")
    _check_poset(rel, n)
    covers = _transitive_reduction(rel, n)
    return StrataPoset(side=side, strata=tuple(strata), covers=tuple(sorted(covers)),
                       relation=frozenset(rel))


def fine_hasse_diagram(FZ: FlaggedZipDatum, side: str = "I") -> StrataPoset:
    """Closure-order poset of the fine strata (order from the induced datum,
    dimensions from the base)."""
    poset = hasse_diagram(FZ.Z0, side)
    d = dims(FZ)
    strata = tuple(_make_stratum(FZ.Z0, s.w, side, d.dim_P, d.dim_G)
                   for s in poset.strata)
    return StrataPoset(side=side, strata=strata, covers=poset.covers,
                       relation=poset.relation)


def _check_poset(rel: set, n: int):
    for (i, j) in rel:
        if (j, i) in rel:
            raise AssertionError("closure relation is not antisymmetric")
        for k in range(n):
            if (j, k) in rel and (i, k) not in rel:
                raise AssertionError("closure relation is not transitive")


# -- classification and projection ---------------------------------------------

def classify_stratum(FZ: FlaggedZipDatum, w: WeylElt, I0p: Iterable[int]) -> dict:
    """Minimality/cominimality of a fine stratum with respect to a larger type."""
    I0p = tuple(sorted(set(I0p)))
    if not (set(FZ.I0) <= set(I0p) <= set(FZ.base.I)):
        raise StrataError("need I0 <= I0' <= I")
    wg = FZ.Z0.wg
    if not wg.is_min_left(w, FZ.I0):
        raise StrataError("label is not minimal for the base flag type")
    J0p = flag_datum(FZ.base, I0p).J0
    return {"minimal": wg.is_min_left(w, I0p),
            "cominimal": wg.is_min_right(w, J0p)}


def project_stratum(Z: ZipDatum, I1: Iterable[int], I0: Iterable[int],
                    w: WeylElt) -> Stratum:
    """Image of the fine stratum labeled w at level I1 inside level I0.

    Defined when w is I0-minimal or I0-cominimal; then the image is the
    stratum of level I0 with the same label.  Otherwise the image is a union
    of strata and a ProjectionError lists candidate labels.
    """
    I1 = tuple(sorted(set(I1)))
    I0 = tuple(sorted(set(I0)))
    if not (set(I1) <= set(I0) <= set(Z.I)):
        raise StrataError("need I1 <= I0 <= I")
    FZ1 = flag_datum(Z, I1)
    FZ0 = flag_datum(Z, I0)
    wg = Z.wg
    if not wg.is_min_left(w, I1):
        raise StrataError("label is not a stratum label at the source level")
    minimal = wg.is_min_left(w, I0)
    cominimal = wg.is_min_right(w, FZ0.J0)
    if minimal or cominimal:
        d = dims(FZ0)
        side = "I" if minimal else "J"
        return _make_stratum(FZ0.Z0, w, side, d.dim_P, d.dim_G)
    cands = set()
    for t in _twisted_orbit(FZ0.Z0, w):     # FZ0.Z0 has I = I0
        while not wg.is_min_left(t, I0):
            i = next(i for i in I0 if wg.has_left_descent(t, i))
            t = wg.compose(wg.simple_reflection(i), t)
        cands.add(wg.describe(t))
    raise ProjectionError(
        "stratum %s is neither minimal nor cominimal for the target level; "
        "its image is a union of strata (candidates: %s)"
        % (wg.describe(w), ", ".join(sorted(cands))), tuple(sorted(cands)))
