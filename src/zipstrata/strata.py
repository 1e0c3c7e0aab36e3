"""Stratum enumeration, the twisted closure order, Hasse diagrams, coarse
strata, minimal/cominimal classification, projections between flag levels and
the correspondence between the two stratum labelings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from .weyl import _getter, _mul
from .zipdatum import ZipDatum, _flag_base, dims, flag_datum


class StrataError(ValueError):
    pass


class ProjectionError(StrataError):
    """Raised when a stratum label does not project to a single stratum."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True)
class Stratum:
    w: tuple
    side: str               # "I" or "J"
    label: str
    length: int
    variety_dim: int
    stack_dim: int


@dataclass(frozen=True)
class CoarseStratum:
    w: tuple
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
    below: tuple            # per stratum j, the bitset of the strata i <= j (bit i)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)


# -- the twisted conjugation of the closure order --------------------------------

def _twists(Z: ZipDatum) -> list:
    """The pairs (u, psi(u)^{-1}) for u in W_I.  The Frobenius twist through
    the frame is psi(u) = z^{-1} gamma^n(u) z, so psi(u)^{-1} = z^{-1}
    gamma^n(u^{-1}) z, formed once per u."""
    wg, zi = Z.wg, Z.wg.inverse(Z.z)
    return [(u, _mul(_mul(zi, wg.galois(wg.inverse(u), Z.n)), Z.z))
            for u in wg.subgroup_elements(Z.I)]


def _twisted_orbits(Z: ZipDatum, ws):
    """Yield the twisted orbit {u w psi(u)^{-1} : u in W_I} of each w in ws as a
    set, one label at a time."""
    twist = _twists(Z)
    for w in ws:
        yield {_mul(_mul(u, w), v) for u, v in twist}


def _twisted_keys(Z: ZipDatum, ws):
    """Yield the set of keys of each w's twisted orbit, composing no element:
    key(u w v) is u[w[v[alpha_i]]] over the simple indices, so each v =
    psi(u)^{-1} is kept as its m simple images and the key is one getter over u."""
    simple = Z.wg._simple_index
    twist = [(u, tuple(v[i] for i in simple)) for u, v in _twists(Z)]
    for w in ws:
        at = w.__getitem__
        yield {_getter(tuple(map(at, vs)))(u) for u, vs in twist}


def _closure_below(Z: ZipDatum, lo: tuple, hi: tuple) -> bool:
    """lo is in the closure of hi: exists u in W_I with u lo psi(u)^{-1} <= hi."""
    return any(Z.wg.bruhat_leq(t, hi) for t in next(_twisted_orbits(Z, [lo])))


def closure_leq(Z: ZipDatum, lo: tuple, hi: tuple) -> bool:
    if not all(Z.wg.is_min_left(w, Z.I) for w in (lo, hi)):
        raise StrataError("labels for the closure order must be minimal "
                          "left coset representatives")
    return _closure_below(Z, lo, hi)


def _cross_labels(Z: ZipDatum, ws):
    """Yield the one twisted conjugate of each w in ws that is minimal on the J
    side; uniqueness and length preservation are asserted.  As in
    `_twisted_keys`, a conjugate u w v is read from its key u[w[v(alpha_i)]]:
    it is minimal on the J side when the entries at J are positive roots, and
    distinct keys are distinct elements.  Only the conjugate kept is composed."""
    wg, n, simple = Z.wg, Z.wg._npos, Z.wg._simple_index
    twist = [(u, v, tuple(v[i] for i in simple), tuple(v[simple[j]] for j in Z.J))
             for u, v in _twists(Z)]
    for w in ws:
        at, found = w.__getitem__, {}
        for u, v, vs, vJ in twist:
            if not any(map(n.__le__, map(u.__getitem__, map(at, vJ)))):
                found.setdefault(tuple(map(u.__getitem__, map(at, vs))), (u, v))
        if len(found) != 1:
            raise AssertionError(
                "twisted orbit of %s meets the J-side labels %d times; convention error"
                % (wg.describe(w), len(found)))
        (u, v), = found.values()
        t = _mul(_mul(u, w), v)
        if wg.length(t) != wg.length(w):
            raise AssertionError("cross label changed the length; convention error")
        yield t


def cross_label(Z: ZipDatum, w: tuple) -> tuple:
    """The unique twisted conjugate of w that is minimal on the J side.
    Bridges the two stratum parametrizations."""
    if not Z.wg.is_min_left(w, Z.I):
        raise StrataError("cross_label expects a label minimal on the I side")
    return next(_cross_labels(Z, [w]))


# -- stratum enumeration -----------------------------------------------------------

def _make_stratum(Z: ZipDatum, w: tuple, side: str, dim_P: int, dim_G: int) -> Stratum:
    wg = Z.wg
    l = wg.length(w)
    return Stratum(w=w, side=side, label=wg.describe(w), length=l,
                   variety_dim=l + dim_P, stack_dim=l + dim_P - dim_G)


def zip_strata(Z: ZipDatum, side: str = "I") -> List[Stratum]:
    """One stratum per minimal coset representative, ordered by (length, word);
    on a flag level, its fine strata, with dimensions measured over the base."""
    wg = Z.wg
    d = dims(Z)
    if side == "I":
        reps = wg.min_coset_reps(Z.I, "left")
    elif side == "J":
        reps = wg.min_coset_reps(Z.J, "right")
    else:
        raise StrataError("side must be 'I' or 'J'")
    return [_make_stratum(Z, w, side, d.dim_P, d.dim_G) for w in reps]


def coarse_strata(FZ: ZipDatum) -> List[CoarseStratum]:
    """Double-coset strata of a flag level with both the classical and the
    derived dimension."""
    _flag_base(FZ)
    wg = FZ.wg
    d = dims(FZ)
    l_i0 = wg.length(wg.longest_element(FZ.I))
    l_j0 = wg.length(wg.longest_element(FZ.J))
    out = []
    for w in wg.double_coset_reps(FZ.I, FZ.J):
        I_w = wg.double_coset_type(w, FZ.I, FZ.J)
        l = wg.length(w)
        l_iw = wg.length(wg.longest_element(I_w))
        reference_dim = l + l_j0 - l_iw - d.dim_P0
        derived_dim = l + l_i0 + l_j0 - l_iw + d.dim_B + d.dim_P_over_P0
        out.append(CoarseStratum(w=w, label=wg.describe(w), length=l, I_w=I_w,
                                 reference_dim=reference_dim, derived_dim=derived_dim))
    return out


def coarse_poset(FZ: ZipDatum) -> StrataPoset:
    """Closure order on the coarse strata of a flag level: induced Bruhat order
    on the reps."""
    FZ.wg._check_enumerable()
    cs = coarse_strata(FZ)
    ws = [s.w for s in cs]
    below = FZ.wg._down_sets({FZ.wg.key(w): 1 << i for i, w in enumerate(ws)}, ws)
    return StrataPoset(side="coarse", strata=tuple(cs), covers=_covers(below),
                       below=tuple(below))


def _closure_down_sets(Z: ZipDatum, ws) -> list:
    """below[j] has bit i when ws[i] lies in the closure of ws[j]: some twisted
    conjugate of ws[i] is Bruhat-below ws[j].  Every key of the twisted orbit
    of ws[i] carries bit i, so the orbits must be disjoint."""
    label = {}
    for i, keys in enumerate(_twisted_keys(Z, ws)):
        for k in keys:
            if label.setdefault(k, 1 << i) != 1 << i:
                raise AssertionError("twisted orbits of two strata meet; convention error")
    return Z.wg._down_sets(label, ws)


def _covers(below) -> tuple:
    """Sorted cover pairs of the order whose down-sets (each holding its own
    index) are `below`.  Antisymmetry and transitivity are asserted: they are
    theorems about the closure order, not properties of the construction.
    Each column checks the elements it has not yet reached, highest index
    first; the rest lie below a checked one, whose smaller column covers them."""
    covers = []
    for j, down in enumerate(below):
        rest, reached, checked = down & ~(1 << j), 0, []
        while rest:
            i = rest.bit_length() - 1
            if below[i] >> j & 1:
                raise AssertionError("closure relation is not antisymmetric")
            if below[i] & ~down:
                raise AssertionError("closure relation is not transitive")
            reached |= below[i] & ~(1 << i)
            rest &= ~below[i]
            checked.append(i)
        covers.extend((i, j) for i in checked if not reached >> i & 1)
    return tuple(sorted(covers))


def hasse_diagram(Z: ZipDatum, side: str = "I") -> StrataPoset:
    """Closure-order poset with cover edges; on a flag level, the poset of its
    fine strata, with dimensions measured over the base.

    The order is computed on the I-side labels; the J-side poset carries the
    same order moved to the cross labels of one pass over the twisted orbits.
    The order labels all |W| keys, so the size of W is checked before any
    labelling.
    """
    if side not in ("I", "J"):
        raise StrataError("side must be 'I' or 'J'")
    Z.wg._check_enumerable()
    strata = zip_strata(Z, "I")
    ws = [s.w for s in strata]
    if side == "J":
        d = dims(Z)
        strata, ws = zip(*sorted(
            ((_make_stratum(Z, t, "J", d.dim_P, d.dim_G), w)
             for t, w in zip(_cross_labels(Z, ws), ws)),
            key=lambda sw: (sw[0].length, sw[0].label)))
    below = _closure_down_sets(Z, ws)
    return StrataPoset(side=side, strata=tuple(strata), covers=_covers(below),
                       below=tuple(below))


# -- classification and projection ---------------------------------------------

def classify_stratum(FZ: ZipDatum, w: tuple, I0p: Iterable[int]) -> dict:
    """Minimality/cominimality of a fine stratum of a flag level with respect
    to a larger type."""
    base = _flag_base(FZ)
    I0p = tuple(sorted(set(I0p)))
    if not (set(FZ.I) <= set(I0p) <= set(base.I)):
        raise StrataError("need I0 <= I0' <= I")
    wg = FZ.wg
    if not wg.is_min_left(w, FZ.I):
        raise StrataError("label is not minimal for the base flag type")
    J0p = flag_datum(base, I0p).J
    return {"minimal": wg.is_min_left(w, I0p),
            "cominimal": wg.is_min_right(w, J0p)}


def project_stratum(Z: ZipDatum, I1: Iterable[int], I0: Iterable[int],
                    w: tuple) -> Stratum:
    """Image of the fine stratum labeled w at level I1 inside level I0.

    Defined when w is I0-minimal or I0-cominimal; then the image is the
    stratum of level I0 with the same label.  Otherwise the image is a union
    of strata and a ProjectionError lists candidate labels.
    """
    I1 = tuple(sorted(set(I1)))
    I0 = tuple(sorted(set(I0)))
    if not (set(I1) <= set(I0) <= set(Z.I)):
        raise StrataError("need I1 <= I0 <= I")
    FZ0 = flag_datum(Z, I0)
    wg = Z.wg
    if not wg.is_min_left(w, I1):
        raise StrataError("label is not a stratum label at the source level")
    minimal = wg.is_min_left(w, I0)
    cominimal = wg.is_min_right(w, FZ0.J)
    if minimal or cominimal:
        d = dims(FZ0)
        side = "I" if minimal else "J"
        return _make_stratum(FZ0, w, side, d.dim_P, d.dim_G)
    cands = set()
    for t in next(_twisted_orbits(FZ0, [w])):     # FZ0 has I = I0
        while not wg.is_min_left(t, I0):
            i = next(i for i in I0 if wg.has_left_descent(t, i))
            t = wg.compose(wg.simple_reflection(i), t)
        cands.add(wg.describe(t))
    raise ProjectionError(
        "stratum %s is neither minimal nor cominimal for the target level; "
        "its image is a union of strata (candidates: %s)"
        % (wg.describe(w), ", ".join(sorted(cands))), tuple(sorted(cands)))
