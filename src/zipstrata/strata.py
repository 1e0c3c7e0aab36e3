"""Stratum enumeration on either labeling side, the twisted closure order,
Hasse diagrams, coarse strata, minimal/cominimal classification and
projections between flag levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Iterable, List, Optional

from .weyl import _getter, _inverse, _mul
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

    def leq(self, i: int, j: int) -> bool:
        return bool(self._below[j] >> i & 1)

    @cached_property
    def _below(self) -> list:
        """Per stratum j, the bitset of the strata i <= j (bit i): reachability
        over the covers, built on the first `leq` and kept.  A cover raises the
        length, so it runs from a lower index to a higher one, and taking the
        covers by their upper end completes each lower down-set before it is read."""
        below = [1 << j for j in range(len(self.strata))]
        for i, j in sorted(self.covers, key=itemgetter(1)):
            below[j] |= below[i]
        return below


# -- the twisted conjugation of the closure order --------------------------------

def _twist_frame(Z: ZipDatum) -> tuple:
    """The parts of psi(u)^{-1} that do not depend on u.  The Frobenius twist
    through the frame is psi(u) = z^{-1} gamma^n(u) z, so psi(u)^{-1} =
    post o u^{-1} o pre with post = z^{-1} o gamma^n and pre = gamma^{-n} o z,
    as root permutations, formed once per pass over W_I."""
    wg = Z.wg
    return _mul(_inverse(Z.z), wg.galois_perm(Z.n)), _mul(wg.galois_perm(-Z.n), Z.z)


def _psi_inverse(u: tuple, post: tuple, pre: tuple) -> tuple:
    """The whole root permutation psi(u)^{-1} = post o u^{-1} o pre."""
    return _mul(_mul(post, _inverse(u)), pre)


def _simple_twists(Z: ZipDatum) -> list:
    """The pairs (u, psi(u)^{-1}(alpha_i) for each simple i) for u in W_I, as
    root indices, from the frame (post, pre) of `_twist_frame`:
    u^{-1}(pre(alpha_i)) is the position of pre(alpha_i) in u, so each is one
    search of u and one lookup in post, and no u is inverted or composed."""
    post, pre = _twist_frame(Z)
    pre = [pre[i] for i in Z.wg._simple_index]
    return [(u, tuple(post[u.index(j)] for j in pre)) for u in Z.wg.subgroup_elements(Z.I)]


def _twisted_keys(Z: ZipDatum, ws):
    """Yield the set of keys of each w's twisted orbit, composing no element:
    key(u w v) is u[w[v[alpha_i]]] over the simple indices, so each v =
    psi(u)^{-1} is kept as one getter of its m simple images, and the key is
    that getter over w, then one over u."""
    twist = [(u, _getter(vs)) for u, vs in _simple_twists(Z)]
    for w in ws:
        yield {_getter(vs(w))(u) for u, vs in twist}


# -- stratum enumeration -----------------------------------------------------------

def _make_stratum(Z: ZipDatum, w: tuple, side: str, dim_P: int, dim_G: int,
                  label: Optional[str] = None, l: Optional[int] = None) -> Stratum:
    wg = Z.wg
    l = wg.length(w) if l is None else l
    return Stratum(w=w, side=side, label=wg.describe(w) if label is None else label,
                   length=l, variety_dim=l + dim_P, stack_dim=l + dim_P - dim_G)


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
    wg, levi_positive = FZ.wg, FZ.rd.levi_positive
    d = dims(FZ)
    # l(w0_K) is the number of positive roots of the Levi of K
    l_i0, l_j0 = len(levi_positive(FZ.I)), len(levi_positive(FZ.J))
    out = []
    for w in wg.double_coset_reps(FZ.I, FZ.J):
        I_w = wg.double_coset_type(w, FZ.I, FZ.J)
        l = wg.length(w)
        l_iw = len(levi_positive(I_w))
        reference_dim = l + l_j0 - l_iw - d.dim_P0
        derived_dim = l + l_i0 + l_j0 - l_iw + d.dim_B + d.dim_P_over_P0
        out.append(CoarseStratum(w=w, label=wg.describe(w), length=l, I_w=I_w,
                                 reference_dim=reference_dim, derived_dim=derived_dim))
    return out


def _closure_down_sets(Z: ZipDatum, ws, others=()) -> list:
    """below[j] has bit i when ws[i] lies in the closure of ws[j]: some twisted
    conjugate of ws[i] is Bruhat-below ws[j].  Every key of the twisted orbit
    of ws[i] carries bit i, so the orbits must be disjoint.  `others`, the
    labels of the other side, must lie one in each orbit, each at the length
    of the label whose orbit holds it."""
    wg, label = Z.wg, {}
    for i, keys in enumerate(_twisted_keys(Z, ws)):
        for k in keys:
            if label.setdefault(k, 1 << i) != 1 << i:
                raise AssertionError("twisted orbits of two strata meet; convention error")
    if others:
        hits = [label.get(wg.key(x), 0) for x in others]
        if sorted(hits) != [1 << i for i in range(len(ws))] or any(
                wg.length(x) != wg.length(ws[b.bit_length() - 1]) for x, b in zip(others, hits)):
            raise AssertionError("the other side's labels do not lie one in each twisted "
                                 "orbit at its label's length; convention error")
    return wg._down_sets(label, ws)


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


def _bruhat_poset(Z: ZipDatum, side: str) -> StrataPoset:
    """The poset of a datum with I = (): W_I is trivial, so every twisted orbit
    is one element, both sides label the strata by all of W, and the closure
    order is the Bruhat order on W.  One level walk gives the strata, their
    labels and their covers (`WeylGroup._bruhat_levels`); the J side sorts
    each level by label.  A level's covers are written once the next level
    has its indices, lower index first, so they come out sorted."""
    wg, d = Z.wg, dims(Z)
    strata, covers, upper = [], [], ()
    for l, (level, labels, ups) in enumerate(wg._bruhat_levels()):
        order = range(len(level)) if side == "I" else sorted(range(len(level)),
                                                              key=labels.__getitem__)
        at = [0] * len(level)
        for k, p in enumerate(order, len(strata)):
            at[p] = k
        index = at.__getitem__
        for i, js in enumerate(upper, len(strata) - len(upper)):
            covers.extend(zip(repeat(i), sorted(map(index, js))))
        upper = [ups[p] for p in order]
        strata.extend(_make_stratum(Z, level[p], side, d.dim_P, d.dim_G, labels[p], l)
                      for p in order)
    if len(strata) != wg.order():
        raise AssertionError("the level walk reached %d of the %d elements of W; "
                             "convention error" % (len(strata), wg.order()))
    return StrataPoset(side=side, strata=tuple(strata), covers=tuple(covers))


def hasse_diagram(Z: ZipDatum, side: str = "I") -> StrataPoset:
    """Closure-order poset with cover edges; on a flag level, the poset of its
    fine strata, with dimensions measured over the base.

    With I = () the poset is read off one walk of W (`_bruhat_poset`).
    Otherwise each side's order is computed on that side's own labels, from
    their twisted orbits, which are the same sets whichever label they are
    read from; the J side checks that the I-side labels lie one in each of
    its orbits.  Both walk or label all of W, so the size of W is checked
    before any walk.
    """
    if side not in ("I", "J"):
        raise StrataError("side must be 'I' or 'J'")
    Z.wg._check_enumerable()
    if Z.I == ():
        return _bruhat_poset(Z, side)
    # the I-side labels are walked first, so that a J label among them is
    # described from the words that walk records
    others = Z.wg.min_coset_reps(Z.I, "left") if side == "J" else ()
    strata = zip_strata(Z, side)
    if side == "J":
        strata.sort(key=lambda s: (s.length, s.label))
    return StrataPoset(side=side, strata=tuple(strata), covers=_covers(
        _closure_down_sets(Z, [s.w for s in strata], others)))


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
    cands, (post, pre) = set(), _twist_frame(FZ0)
    for t in {_mul(_mul(u, w), _psi_inverse(u, post, pre))
              for u in wg.subgroup_elements(I0)}:           # FZ0 has I = I0
        while not wg.is_min_left(t, I0):
            i = next(i for i in I0 if wg.has_left_descent(t, i))
            t = wg.compose(wg.simple_reflection(i), t)
        cands.add(wg.describe(t))
    raise ProjectionError(
        "stratum %s is neither minimal nor cominimal for the target level; "
        "its image is a union of strata (candidates: %s)"
        % (wg.describe(w), ", ".join(sorted(cands))), tuple(sorted(cands)))
