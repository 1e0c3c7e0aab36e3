"""Weyl group elements as permutations of the indexed root set, with Bruhat
order, coset combinatorics and the bracket notation for types B/C.

The roots are indexed positive roots first, in ``rd.positive`` order, then
their negatives in the same order, so index j + N is -(root j) when N roots
are positive.  An element w is stored as ``perm`` with ``perm[j]`` the index of
w(root j); W acts faithfully on its roots, so this determines w.  Composition
is an index lookup, the inverse is the inverse permutation, and the length
counts positive indices sent to negative ones.  The action on arbitrary
characters and cocharacters applies the simple reflections of the canonical
reduced word, the lexicographically least one, found by greedy left descents.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence

from .rootsystem import RootDatum, RootDatumError, Vec, reflect, vneg


class WeylError(ValueError):
    pass


def _mul(p: tuple, q: tuple) -> tuple:
    """The permutation p o q (apply q first)."""
    return tuple([p[j] for j in q])


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for j, k in enumerate(p):
        inv[k] = j
    return tuple(inv)


@dataclass(frozen=True)
class WeylElt:
    group: "WeylGroup"
    perm: tuple

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.perm == other.perm \
            and self.group is other.group

    def __hash__(self):
        return hash(self.perm)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return self.group.compose(self, other)

    def __repr__(self):
        return "WeylElt(%s)" % (self.group.describe(self),)


class WeylGroup:
    """All Weyl-group combinatorics for one root datum.

    Memo tables only ever insert values that are functions of their key, so
    concurrent readers behave as if every operation were pure.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self._roots = tuple(rd.positive) + tuple(vneg(a) for a in rd.positive)
        self._index = {a: j for j, a in enumerate(self._roots)}
        self._npos = len(rd.positive)
        # s_a for the positive roots a, in rd.positive order
        self._reflections = tuple(self._perm_of(partial(reflect, rd, a))
                                  for a in rd.positive)
        self._simple_index = tuple(self._index[a] for a in rd.simple_roots)
        self.simple = [self._reflections[j] for j in self._simple_index]
        self._gamma = self._perm_of(rd.galois.char)
        self._gamma_inv = _inverse(self._gamma)
        self.e = WeylElt(self, tuple(range(len(self._roots))))
        self._word: dict = {}
        self._subgroups: dict = {}

    # -- basics ---------------------------------------------------------------
    def _perm_of(self, f) -> tuple:
        """The root permutation of a lattice map f that permutes the roots."""
        return tuple(self._index[f(a)] for a in self._roots)

    def simple_reflection(self, i: int) -> WeylElt:
        return WeylElt(self, self.simple[i])

    def reflection(self, alpha) -> WeylElt:
        if alpha not in self._index:
            raise RootDatumError("%r is not a root" % (alpha,))
        return WeylElt(self, self._reflections[self._index[alpha] % self._npos])

    def compose(self, a: WeylElt, b: WeylElt) -> WeylElt:
        if a.group is not self or b.group is not self:
            raise WeylError("elements belong to a different root datum")
        return WeylElt(self, _mul(a.perm, b.perm))

    def inverse(self, a: WeylElt) -> WeylElt:
        return WeylElt(self, _inverse(a.perm))

    def act(self, w: WeylElt, v: Vec, side: str = "char") -> Vec:
        if side not in ("char", "cochar"):
            raise WeylError("side must be 'char' or 'cochar'")
        v = tuple(v)
        for i in reversed(self.canonical_word(w)):
            v = reflect(self.rd, self.rd.simple_roots[i], v, side)
        return v

    def length(self, w: WeylElt) -> int:
        n = self._npos
        return sum(1 for k in w.perm[:n] if k >= n)

    def galois(self, w: WeylElt, k: int = 1) -> WeylElt:
        """gamma^k(w) = gamma^k w gamma^-k, conjugating by gamma's root permutation."""
        p = w.perm
        for _ in range(k % self.rd.galois.order):
            p = _mul(self._gamma, _mul(p, self._gamma_inv))
        return WeylElt(self, p)

    # -- words ----------------------------------------------------------------
    def from_word(self, word: Sequence[int]) -> WeylElt:
        p = self.e.perm
        for i in word:
            if not 0 <= i < self.rd.num_simple:
                raise WeylError("letter %d out of range" % i)
            p = _mul(p, self.simple[i])
        return WeylElt(self, p)

    def canonical_word(self, w: WeylElt) -> tuple:
        cached = self._word.get(w.perm)
        if cached is not None:
            return cached
        # the left descents of w are the right descents of x = w^{-1}
        n = self._npos
        word = []
        x = _inverse(w.perm)
        while x != self.e.perm:
            for i, s in enumerate(self._simple_index):
                if x[s] >= n:
                    word.append(i)
                    x = _mul(x, self.simple[i])
                    break
            else:
                raise WeylError("no descent found; not a Weyl element")
        word = tuple(word)
        self._word[w.perm] = word
        return word

    def describe(self, w: WeylElt) -> str:
        """Deterministic display label: bracket for pure B/C presets, else word."""
        if self.supports_bracket():
            return self.to_bracket(w)
        word = self.canonical_word(w)
        return "e" if not word else ".".join(str(i + 1) for i in word)

    # -- enumeration ----------------------------------------------------------
    def elements(self) -> tuple:
        return self.subgroup_elements(range(self.rd.num_simple))

    def sort_key(self, w: WeylElt):
        return (self.length(w), self.canonical_word(w))

    def order(self) -> int:
        return len(self.elements())

    def subgroup_elements(self, K: Iterable[int]) -> tuple:
        K = tuple(sorted(set(K)))
        cached = self._subgroups.get(K)
        if cached is not None:
            return cached
        gens = [self.simple[i] for i in K]
        els = {self.e.perm}
        frontier = {self.e.perm}
        while frontier:
            new = set()
            for g in frontier:
                for s in gens:
                    h = _mul(g, s)
                    if h not in els:
                        els.add(h)
                        new.add(h)
            frontier = new
        out = tuple(sorted((WeylElt(self, p) for p in els), key=self.sort_key))
        self._subgroups[K] = out
        return out

    def longest_element(self, K: Optional[Iterable[int]] = None) -> WeylElt:
        K = tuple(range(self.rd.num_simple)) if K is None else tuple(sorted(set(K)))
        w = self.e
        while True:
            i = next((i for i in K if not self.has_right_descent(w, i)), None)
            if i is None:
                return w
            w = WeylElt(self, _mul(w.perm, self.simple[i]))

    # -- descents and coset representatives ------------------------------------
    def has_left_descent(self, w: WeylElt, i: int) -> bool:
        """l(s_i w) < l(w), i.e. w^{-1}(alpha_i) is negative."""
        return w.perm.index(self._simple_index[i]) >= self._npos

    def has_right_descent(self, w: WeylElt, i: int) -> bool:
        """l(w s_i) < l(w), i.e. w(alpha_i) is negative."""
        return w.perm[self._simple_index[i]] >= self._npos

    def is_min_left(self, w: WeylElt, K: Iterable[int]) -> bool:
        """w in K\\W minimal: no left descent in K."""
        return not any(self.has_left_descent(w, i) for i in K)

    def is_min_right(self, w: WeylElt, K: Iterable[int]) -> bool:
        return not any(self.has_right_descent(w, i) for i in K)

    def min_coset_reps(self, K: Iterable[int], side: str = "left") -> tuple:
        """Minimal coset representatives: 'left' is K\\W (labels ᴷW), 'right' W/K.

        BFS on descent-free extensions; the sets are prefix-closed in weak order.
        """
        K = tuple(sorted(set(K)))
        if side == "right":
            return tuple(self.inverse(w)
                         for w in self.min_coset_reps(K, "left"))
        if side != "left":
            raise WeylError("side must be 'left' or 'right'")
        out = [self.e]
        level = [self.e]
        seen = {self.e}
        while level:
            nxt = []
            for w in level:
                for i in range(self.rd.num_simple):
                    if self.has_right_descent(w, i):
                        continue
                    ws = WeylElt(self, _mul(w.perm, self.simple[i]))
                    if ws not in seen and self.is_min_left(ws, K):
                        seen.add(ws)
                        nxt.append(ws)
                        out.append(ws)
            level = nxt
        return tuple(sorted(out, key=self.sort_key))

    def double_coset_reps(self, I0: Iterable[int], J0: Iterable[int]) -> tuple:
        """Minimal representatives of W_{I0}\\W/W_{J0} = ᴵ⁰W ∩ Wᴶ⁰."""
        J0 = tuple(sorted(set(J0)))
        return tuple(w for w in self.min_coset_reps(I0, "left")
                     if self.is_min_right(w, J0))

    def double_coset_type(self, w: WeylElt, I0: Iterable[int], J0: Iterable[int]) -> tuple:
        """I_w = J0 ∩ w^{-1} I0 w: simple roots of J0 mapped by w into the I0-Levi."""
        levi = self.rd.levi_roots(I0)
        return tuple(j for j in sorted(set(J0))
                     if self._roots[w.perm[self._simple_index[j]]] in levi)

    # -- Bruhat order -----------------------------------------------------------
    def bruhat_leq(self, u: WeylElt, w: WeylElt) -> bool:
        """Recursive descent criterion: for a left descent s of w,
        u <= w iff min(u, su) <= sw."""
        lu = self.length(u)
        if lu > self.length(w):
            return False
        if u == w or lu == 0:
            return True
        i = next(i for i in range(self.rd.num_simple) if self.has_left_descent(w, i))
        sw = WeylElt(self, _mul(self.simple[i], w.perm))
        su = WeylElt(self, _mul(self.simple[i], u.perm))
        return self.bruhat_leq(su if self.length(su) < lu else u, sw)

    # -- lower reflections (the wall set of a stratum) ---------------------------
    def lower_reflections(self, w: WeylElt) -> tuple:
        """Positive roots a with w s_a < w of length exactly l(w) - 1, sorted.

        w s_a < w exactly when w(a) is negative.
        """
        n, lower = self._npos, self.length(w) - 1
        return tuple(a for j, a in enumerate(self.rd.positive) if w.perm[j] >= n
                     and self.length(WeylElt(self, _mul(w.perm, self._reflections[j]))) == lower)

    # -- bracket notation (hyperoctahedral presets) -------------------------------
    def supports_bracket(self) -> bool:
        p = self.rd.preset
        return bool(p) and "x" not in p and p[0] in ("B", "C") and p[1:].isdigit()

    def to_bracket(self, w: WeylElt) -> str:
        """Signed-permutation notation [d1..dn]; value 2n+1-k encodes -e_k."""
        if not self.supports_bracket():
            raise WeylError("bracket notation requires a pure B/C preset")
        n = self.rd.rank
        scale = 2 if self.rd.preset[0] == "C" else 1   # the root e_j in B, 2e_j in C
        digits = []
        for j in range(n):
            axis = tuple(scale * (i == j) for i in range(n))
            img = self._roots[w.perm[self._index[axis]]]
            k = next(i for i in range(n) if img[i] != 0)
            digits.append(k + 1 if img[k] > 0 else 2 * n - k)
        sep = " " if 2 * n > 9 else ""
        return "[" + sep.join(str(d) for d in digits) + "]"

    def from_bracket(self, text: str) -> WeylElt:
        if not self.supports_bracket():
            raise WeylError("bracket notation requires a pure B/C preset")
        n = self.rd.rank
        body = text.strip().strip("[]").replace(",", " ")
        if " " in body:
            vals = [int(t) for t in body.split()]
        else:
            vals = [int(c) for c in body]
        if len(vals) != n or any(not 1 <= v <= 2 * n for v in vals):
            raise WeylError("bracket %r is not valid for rank %d" % (text, n))
        if len({min(v, 2 * n + 1 - v) for v in vals}) != n:
            raise WeylError("bracket %r repeats a letter" % text)
        # e_j goes to +e_{v-1} for v <= n and to -e_{2n-v} otherwise
        images = [(v - 1, 1) if v <= n else (2 * n - v, -1) for v in vals]

        def act(a):
            out = [0] * n
            for j, (k, sign) in enumerate(images):
                out[k] += sign * a[j]
            return tuple(out)

        return WeylElt(self, self._perm_of(act))
