"""Weyl group elements as integral lattice automorphisms, with Bruhat order,
coset combinatorics and the bracket notation for types B/C.

Elements are normalized by their action matrix on X*(T); the canonical reduced
word is the lexicographically least one, found by greedy left descents.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .rootsystem import (RootDatum, Vec, _identity, _inverse_transpose,
                         _mat_mul, _mat_vec)


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class WeylElt:
    group: "WeylGroup"
    mat: tuple

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.mat == other.mat \
            and self.group is other.group

    def __hash__(self):
        return hash(self.mat)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return self.group.compose(self, other)

    def __repr__(self):
        return "WeylElt(%s)" % (self.group.describe(self),)

    @property
    def length(self) -> int:
        return self.group.length(self)

    @property
    def word(self) -> tuple:
        return self.group.canonical_word(self)

    def inverse(self) -> "WeylElt":
        return self.group.inverse(self)


class WeylGroup:
    """All Weyl-group combinatorics for one root datum.

    Memo tables only ever insert values that are functions of their key, so
    concurrent readers behave as if every operation were pure.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        n = rd.rank
        self._id = _identity(n)
        self.simple = [self._reflection_matrix(a) for a in rd.simple_roots]
        self.e = WeylElt(self, self._id)
        self._len: dict = {}
        self._inv: dict = {}
        self._invT: dict = {}
        self._word: dict = {}
        self._subgroups: dict = {}
        self._bruhat: dict = {}
        self._posset = frozenset(rd.positive)

    # -- basics ---------------------------------------------------------------
    def _reflection_matrix(self, alpha):
        rd = self.rd
        ac = rd.coroot(alpha)
        cols = []
        for j in range(rd.rank):
            e = tuple(1 if i == j else 0 for i in range(rd.rank))
            c = sum(e[i] * ac[i] for i in range(rd.rank))
            cols.append(tuple(e[i] - c * alpha[i] for i in range(rd.rank)))
        return tuple(tuple(cols[j][i] for j in range(rd.rank)) for i in range(rd.rank))

    def elt(self, mat) -> WeylElt:
        return WeylElt(self, mat)

    def simple_reflection(self, i: int) -> WeylElt:
        return WeylElt(self, self.simple[i])

    def reflection(self, alpha) -> WeylElt:
        return WeylElt(self, self._reflection_matrix(alpha))

    def compose(self, a: WeylElt, b: WeylElt) -> WeylElt:
        if a.group is not self or b.group is not self:
            raise WeylError("elements belong to a different root datum")
        return WeylElt(self, _mat_mul(a.mat, b.mat))

    def inverse(self, a: WeylElt) -> WeylElt:
        m = self._inv.get(a.mat)
        if m is None:
            # transpose of the inverse-transpose
            it = _inverse_transpose(a.mat)
            m = tuple(tuple(it[j][i] for j in range(self.rd.rank))
                      for i in range(self.rd.rank))
            self._inv[a.mat] = m
            self._invT[a.mat] = it
        return WeylElt(self, m)

    def act(self, w: WeylElt, v: Vec, side: str = "char") -> Vec:
        if side == "char":
            return _mat_vec(w.mat, v)
        if side == "cochar":
            it = self._invT.get(w.mat)
            if it is None:
                self.inverse(w)
                it = self._invT[w.mat]
            return _mat_vec(it, v)
        raise WeylError("side must be 'char' or 'cochar'")

    def length(self, w: WeylElt) -> int:
        l = self._len.get(w.mat)
        if l is None:
            l = sum(1 for a in self.rd.positive
                    if _mat_vec(w.mat, a) not in self._posset)
            self._len[w.mat] = l
        return l

    def galois(self, w: WeylElt, k: int = 1) -> WeylElt:
        """gamma^k(w) as a lattice automorphism (conjugation by the galois matrix)."""
        g = self.rd.galois
        inv = g.char_matrix
        for _ in range(g.order - 2):
            inv = _mat_mul(inv, g.char_matrix)
        if g.order == 1:
            inv = self._id
        m = w.mat
        for _ in range(k % g.order):
            m = _mat_mul(_mat_mul(g.char_matrix, m), inv)
        return WeylElt(self, m)

    # -- words ----------------------------------------------------------------
    def from_word(self, word: Sequence[int]) -> WeylElt:
        m = self._id
        for i in word:
            if not 0 <= i < self.rd.num_simple:
                raise WeylError("letter %d out of range" % i)
            m = _mat_mul(m, self.simple[i])
        return WeylElt(self, m)

    def canonical_word(self, w: WeylElt) -> tuple:
        cached = self._word.get(w.mat)
        if cached is not None:
            return cached
        word = []
        g = w.mat
        while g != self._id:
            for i in range(self.rd.num_simple):
                # left descent: w^{-1}(alpha_i) < 0
                sw = _mat_mul(self.simple[i], g)
                if self.length(WeylElt(self, sw)) < self.length(WeylElt(self, g)):
                    word.append(i)
                    g = sw
                    break
            else:
                raise WeylError("no descent found; matrix is not a Weyl element")
        word = tuple(word)
        self._word[w.mat] = word
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
        els = {self._id}
        frontier = {self._id}
        while frontier:
            new = set()
            for g in frontier:
                for s in gens:
                    h = _mat_mul(g, s)
                    if h not in els:
                        els.add(h)
                        new.add(h)
            frontier = new
        out = tuple(sorted((WeylElt(self, m) for m in els), key=self.sort_key))
        self._subgroups[K] = out
        return out

    def longest_element(self, K: Optional[Iterable[int]] = None) -> WeylElt:
        K = tuple(range(self.rd.num_simple)) if K is None else tuple(sorted(set(K)))
        w = self.e
        while True:
            for i in K:
                ws = WeylElt(self, _mat_mul(w.mat, self.simple[i]))
                if self.length(ws) > self.length(w):
                    w = ws
                    break
            else:
                return w

    # -- descents and coset representatives ------------------------------------
    def has_left_descent(self, w: WeylElt, i: int) -> bool:
        """l(s_i w) < l(w), i.e. w^{-1}(alpha_i) is negative."""
        v = self.act(self.inverse(w), self.rd.simple_roots[i])
        return v not in self._posset

    def has_right_descent(self, w: WeylElt, i: int) -> bool:
        """l(w s_i) < l(w), i.e. w(alpha_i) is negative."""
        return _mat_vec(w.mat, self.rd.simple_roots[i]) not in self._posset

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
        seen = {self.e.mat}
        while level:
            nxt = []
            for w in level:
                for i in range(self.rd.num_simple):
                    ws = WeylElt(self, _mat_mul(w.mat, self.simple[i]))
                    if ws.mat in seen or self.length(ws) != self.length(w) + 1:
                        continue
                    if self.is_min_left(ws, K):
                        seen.add(ws.mat)
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
                     if _mat_vec(w.mat, self.rd.simple_roots[j]) in levi)

    # -- Bruhat order -----------------------------------------------------------
    def bruhat_leq(self, u: WeylElt, w: WeylElt) -> bool:
        """Recursive descent criterion with memoization."""
        key = (u.mat, w.mat)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        lu, lw = self.length(u), self.length(w)
        if lu > lw:
            res = False
        elif u.mat == w.mat or lu == 0:
            res = True
        else:
            i = next(i for i in range(self.rd.num_simple) if self.has_left_descent(w, i))
            sw = WeylElt(self, _mat_mul(self.simple[i], w.mat))
            su = WeylElt(self, _mat_mul(self.simple[i], u.mat))
            if self.length(su) < lu:
                res = self.bruhat_leq(su, sw)
            else:
                res = self.bruhat_leq(u, sw)
        self._bruhat[key] = res
        return res

    # -- lower reflections (the wall set of a stratum) ---------------------------
    def lower_reflections(self, w: WeylElt) -> tuple:
        """Positive roots a with w s_a < w of length exactly l(w) - 1, sorted."""
        out = []
        for a in self.rd.positive:
            ws = WeylElt(self, _mat_mul(w.mat, self._reflection_matrix(a)))
            if self.length(ws) == self.length(w) - 1:
                out.append(a)
        return tuple(out)

    # -- bracket notation (hyperoctahedral presets) -------------------------------
    def supports_bracket(self) -> bool:
        p = self.rd.preset
        return bool(p) and "x" not in p and p[0] in ("B", "C") and p[1:].isdigit()

    def to_bracket(self, w: WeylElt) -> str:
        """Signed-permutation notation [d1..dn]; value 2n+1-k encodes -e_k."""
        if not self.supports_bracket():
            raise WeylError("bracket notation requires a pure B/C preset")
        n = self.rd.rank
        digits = []
        for j in range(n):
            col = tuple(w.mat[i][j] for i in range(n))
            k = next(i for i in range(n) if col[i] != 0)
            digits.append(k + 1 if col[k] == 1 else 2 * n + 1 - (k + 1))
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
        cols = []
        for v in vals:
            if v <= n:
                cols.append(tuple(1 if i == v - 1 else 0 for i in range(n)))
            else:
                k = 2 * n + 1 - v
                cols.append(tuple(-1 if i == k - 1 else 0 for i in range(n)))
        mat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        return WeylElt(self, mat)
