"""Weyl group elements as permutations of the indexed root set, with Bruhat
order, coset combinatorics and the bracket notation for types B/C.

The roots are indexed positive roots first, in ``rd.positive`` order, then
their negatives in the same order, so index j + N is -(root j) when N roots
are positive.  An element w is its root permutation, the tuple whose entry j
is the index of w(root j); W acts faithfully on its roots, so the tuple
determines w, and every ``WeylGroup`` method takes and returns such tuples.
Composition is an index lookup, the inverse is the inverse permutation, and
the length counts positive indices sent to negative ones.  w is already
determined by the images of the m simple roots, so the walks over W key
elements by ``key(w)``, those m entries, and read the key of a product x s_a
off x.  A group holds its m simple reflections from the start; the other
positive reflections, the key getters of x s_a and the reflections'
inversion sets are each built whole on first use and kept.  The canonical
reduced word of w is the lexicographically least one.  The level walks
reach each element first from the element its canonical word extends, so
they record every word they reach, keyed by ``key(w)``, and ``describe``
reads the label from there; ``canonical_word`` finds the word by greedy
left descents for an element no walk has reached, and for the action on
arbitrary characters and cocharacters, which applies the word's simple
reflections.

Group orders come from root heights and never from enumeration, so the
enumerating methods check the size they would build against
``ENUMERATION_CAP`` before they start.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .rootsystem import RootDatum, RootDatumError, Vec, reflect

# the largest group, subgroup or coset set the enumerating methods will build
ENUMERATION_CAP = 100_000


class WeylError(ValueError):
    pass


def _order_from_heights(rd: RootDatum, positive) -> int:
    """The order of the Weyl group of a closed set of positive roots, prod (m_i + 1):
    the exponents m_i are the dual partition of the counts of the roots by
    height (Kostant; Humphreys, Reflection Groups and Coxeter Groups, 3.20)."""
    counts = Counter(sum(rd.coeffs_of[a]) for a in positive).values()
    order = 1
    for k in range(1, max(counts, default=0) + 1):
        order *= 1 + sum(1 for c in counts if c >= k)
    return order


def _check_size(what: str, K: tuple, size: int):
    if size > ENUMERATION_CAP:
        raise WeylError("%s for K = %s has %d elements, more than the enumeration "
                        "cap %d" % (what, [i + 1 for i in K], size, ENUMERATION_CAP))


def _mul(p: tuple, q: tuple) -> tuple:
    """The permutation p o q (apply q first); itemgetter wants at least one index."""
    return itemgetter(*q)(p) if q else ()


def _getter(idx: tuple):
    """p -> (p[j] for j in idx) as a tuple at every length, in C for a tuple
    p.  itemgetter gives the bare entry for one index and wants at least one,
    so one index is a one-entry slice and none gives ()."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx) if idx else lambda p: ()


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for j, k in enumerate(p):
        inv[k] = j
    return tuple(inv)


class WeylGroup:
    """All Weyl-group combinatorics for one root datum.

    Memo tables only ever insert values that are functions of their key, so
    concurrent readers behave as if every operation were pure.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        # the roots as rd's own key objects, which rd.images_of holds as images,
        # so that the image table is read by identity and no vector is hashed
        self._roots = rd.positive + rd.negative
        self._index = {a: j for j, a in enumerate(self._roots)}
        self._npos = len(rd.positive)
        self._simple_index = tuple(self._index[a] for a in rd.simple_roots)
        # s_i and gamma as root permutations, read off the columns of rd.images_of
        at = {id(a): j for j, a in enumerate(self._roots)}.__getitem__
        images = [None] * len(self._roots)
        for a, row in rd.images_of.items():
            images[at(id(a))] = tuple(map(at, map(id, row)))

        def column(i):
            return tuple(map(itemgetter(i), images))
        self.simple = [column(i) for i in range(rd.num_simple)]
        self.key = _getter(self._simple_index)
        self.e = tuple(range(len(self._roots)))
        # the root permutations of gamma^k, keyed by k mod the galois order
        self._gamma_pow = {0: self.e, 1: column(-1)}
        self._subgroups: dict = {}
        self._longest: dict = {}
        self._words: dict = {}   # key -> the label of its canonical word (`_levels`)
        self._bracket = None     # (axis-root getter, digit of each axis root, separator)

    # -- tables built on first use ----------------------------------------------
    @cached_property
    def _reflections(self) -> tuple:
        """s_b for the positive roots b, in rd.positive order, by increasing height:
        s_b = s_i s_c s_i for a simple s_i taking b to c = s_i(b) of lower height."""
        n, rd = self._npos, self.rd
        height = [sum(rd.coeffs_of[a]) for a in rd.positive]
        refl = dict(zip(self._simple_index, self.simple))
        for j in sorted(range(n), key=height.__getitem__):
            if j not in refl:
                s = next(s for s in self.simple if s[j] < n and height[s[j]] < height[j])
                refl[j] = _mul(_mul(s, refl[s[j]]), s)
        return tuple(refl[j] for j in range(n))

    @cached_property
    def _reflection_keys(self) -> tuple:
        """key(x s_b) = x[s_b(alpha_1)], ..., x[s_b(alpha_m)], one getter per
        positive b, from s_b(alpha_i) = alpha_i - <alpha_i, b^vee> b: m roots
        per b and no permutation.  The pairing reads the nonzero entries of
        alpha_i, and a zero pairing leaves alpha_i fixed."""
        rd, index, simple = self.rd, self._index, self._simple_index
        support = [tuple((j, x) for j, x in enumerate(a) if x) for a in rd.simple_roots]
        keys = []
        for b in rd.positive:
            bc, idx = rd.coroot_of[b], list(simple)
            for i, a in enumerate(rd.simple_roots):
                k = sum(x * bc[j] for j, x in support[i])
                if k:
                    idx[i] = index[tuple(x - k * y for x, y in zip(a, b))]
            keys.append(_getter(tuple(idx)))
        return tuple(keys)

    @cached_property
    def _simple_keys(self) -> tuple:
        """key(x s_i), one getter per simple s_i, for the walks that step by
        simple reflections only: m getters, where `_reflection_keys` pairs
        every positive root with every simple root (4,950 by 99 on GL100)."""
        return tuple(_getter(tuple(s[i] for i in self._simple_index)) for s in self.simple)

    @cached_property
    def _reflection_inversions(self) -> tuple:
        """N(s_b) = {c > 0 : s_b(c) < 0} for each positive b, as an int whose
        byte j is 1 when positive root j is in the set (`_inversion_bytes`)."""
        return tuple(int.from_bytes(self._inversion_bytes(s), "little")
                     for s in self._reflections)

    def _inversion_bytes(self, w: tuple) -> bytes:
        """Byte j is 1 when w sends positive root j negative, else 0."""
        n = self._npos
        return bytes(map(n.__le__, w[:n]))

    # -- basics ---------------------------------------------------------------
    def _perm_of(self, f) -> tuple:
        """The root permutation of a lattice map f that permutes the roots."""
        return tuple(self._index[f(a)] for a in self._roots)

    def simple_reflection(self, i: int) -> tuple:
        return self.simple[i]

    def _root_index(self, alpha) -> int:
        if alpha not in self._index:
            raise RootDatumError("%r is not a root" % (alpha,))
        return self._index[alpha]

    def reflection(self, alpha) -> tuple:
        return self._reflections[self._root_index(alpha) % self._npos]

    def root_image(self, w: tuple, alpha) -> Vec:
        """The root w(alpha), read from the permutation."""
        return self._roots[w[self._root_index(alpha)]]

    def compose(self, a: tuple, b: tuple) -> tuple:
        return _mul(a, b)

    def inverse(self, a: tuple) -> tuple:
        return _inverse(a)

    def act(self, w: tuple, v: Vec, side: str = "char") -> Vec:
        if side not in ("char", "cochar"):
            raise WeylError("side must be 'char' or 'cochar'")
        v = tuple(v)
        for i in reversed(self.canonical_word(w)):
            v = reflect(self.rd, self.rd.simple_roots[i], v, side)
        return v

    def length(self, w: tuple) -> int:
        n = self._npos
        return sum(map(n.__le__, w[:n]))

    def galois(self, w: tuple, k: int = 1) -> tuple:
        """gamma^k(w) = gamma^k w gamma^-k, conjugating by gamma's root permutation."""
        return _mul(self.galois_perm(k), _mul(w, self.galois_perm(-k)))

    def galois_perm(self, k: int = 1) -> tuple:
        """The root permutation of gamma^k itself, which W need not contain."""
        k %= self.rd.galois.order
        if k not in self._gamma_pow:
            # gamma^k = (gamma^(k // 2))^2 gamma^(k % 2): O(log order) compositions
            half = self.galois_perm(k // 2)
            self._gamma_pow[k] = _mul(_mul(half, half), self._gamma_pow[k % 2])
        return self._gamma_pow[k]

    # -- words ----------------------------------------------------------------
    def from_word(self, word: Sequence[int]) -> tuple:
        p = self.e
        for i in word:
            if not 0 <= i < self.rd.num_simple:
                raise WeylError("letter %d out of range" % i)
            p = _mul(p, self.simple[i])
        return p

    def canonical_word(self, w: tuple) -> tuple:
        # the left descents of w are the right descents of x = w^{-1}
        n = self._npos
        word = []
        x = _inverse(w)
        while x != self.e:
            for i, s in enumerate(self._simple_index):
                if x[s] >= n:
                    word.append(i)
                    x = _mul(x, self.simple[i])
                    break
            else:
                raise WeylError("no descent found; not a Weyl element")
        return tuple(word)

    def describe(self, w: tuple) -> str:
        """Deterministic display label: bracket for pure B/C presets, else the
        canonical word, read from the table of the walks (`_levels`) and
        derived by `canonical_word` only for an element no walk has reached."""
        if self.supports_bracket():
            return self.to_bracket(w)
        word = self._words.get(self.key(w))
        if word is None:
            word = ".".join(str(i + 1) for i in self.canonical_word(w)) or "e"
        return word

    # -- enumeration ----------------------------------------------------------
    def elements(self) -> tuple:
        return self.subgroup_elements(range(self.rd.num_simple))

    def order(self) -> int:
        return _order_from_heights(self.rd, self.rd.positive)

    def _subgroup_order(self, K: tuple) -> int:
        return _order_from_heights(self.rd, self.rd.levi_positive(K))

    def subgroup_elements(self, K: Iterable[int]) -> tuple:
        K = tuple(sorted(set(K)))
        if K not in self._subgroups:
            _check_size("the subgroup W_K", K, self._subgroup_order(K))
            self._subgroups[K] = self._sorted(self._levels(K))
        return self._subgroups[K]

    def _check_enumerable(self):
        """Refuse a walk over all of W beyond the cap, as `elements()` would."""
        _check_size("the subgroup W_K", tuple(range(self.rd.num_simple)), self.order())

    def _levels(self, gens, K=None):
        """Yield the root permutations generated by the simple reflections
        `gens`, given in ascending order, one length level at a time, as a dict
        from key(x) to x: level l + 1 is {x s_i : x at level l, i in gens not a
        right descent of x}.  With K, only the minimal representatives ᴷW of
        K\\W: for x in ᴷW with x(alpha_i) > 0, x s_i is in ᴷW exactly when
        x(alpha_i) is not a simple root of K (Deodhar, Invent. Math. 39, 1977),
        so a step is refused by one lookup before anything is composed.  x s_i
        is deduplicated by its key, read from x, and composed only the first
        time that key is seen.

        Outside the bracket presets each element's word label goes into the
        group's table `_words`, keyed like the levels: an element is first
        reached from the element its canonical word extends (`_sorted`), so
        its word is that parent's word and the letter stepped by."""
        key, words, record = self.key, self._words, not self.supports_bracket()
        # step[r] is 1 when x s_i is taken for r = x(alpha_i): r is a positive
        # root and not a simple root of K
        stop = {self._simple_index[i] for i in K or ()}
        step = bytes(r < self._npos and r not in stop for r in range(len(self.e)))
        steps = [(self._simple_index[i], self.simple[i], self._simple_keys[i], str(i + 1))
                 for i in gens]
        level, spelt = {key(self.e): self.e}, [""]     # spelt: the level's words, "" for e
        if record:
            words[key(self.e)] = "e"
        while level:
            yield level
            nxt, below = {}, []
            for x, u in zip(level.values(), spelt if record else repeat("")):
                u = u + "." if u else u
                for j, s, key_xs, letter in steps:
                    if step[x[j]]:
                        k = key_xs(x)
                        if k not in nxt:
                            nxt[k] = _mul(x, s)
                            if record:
                                below.append(u + letter)
            if record:
                words.update(zip(nxt, below))
            level, spelt = nxt, below

    def _bruhat_levels(self):
        """Yield W one length level at a time, in the order of `_levels`, as
        (elements, labels, upper): labels[p] is describe(elements[p]), read
        from the table the walk fills, and upper[p] lists the positions in the
        next level of the Bruhat upper covers of elements[p].  x s_a is one
        exactly when x(a) is positive and its key, read from x
        (`_reflection_keys`), lies in the next level."""
        n, getters = self._npos, self._reflection_keys
        bracket = self.to_bracket if self.supports_bracket() else None
        levels = self._levels(range(self.rd.num_simple))
        level = next(levels)
        for nxt in chain(levels, [{}]):
            at = dict(zip(nxt, range(len(nxt))))
            has, pos = at.__contains__, at.__getitem__
            elements = list(level.values())
            upper = [list(map(pos, filter(has, [g(x) for g in
                                                compress(getters, map(n.__gt__, x[:n]))])))
                     for x in elements]
            yield elements, (list(map(bracket, elements)) if bracket
                             else list(map(self._words.__getitem__, level))), upper
            level = nxt

    @staticmethod
    def _sorted(levels) -> tuple:
        """The walk's levels joined, which is (length, canonical word) order
        already.  By induction each level is in canonical-word order: a prefix
        of a least reduced word is a least reduced word, so y with canonical
        word u i is first reached from the x with canonical word u, by s_i, and
        the walk takes each level's x in order and their letters ascending."""
        return tuple(p for level in levels for p in level.values())

    def longest_element(self, K: Optional[Iterable[int]] = None) -> tuple:
        """w0 of W_K (of W when K is None), by right ascents from e; kept per K."""
        K = tuple(range(self.rd.num_simple)) if K is None else tuple(sorted(set(K)))
        if K not in self._longest:
            n, w = self._npos, self.e
            steps = [(self._simple_index[i], self.simple[i]) for i in K]
            while True:
                s = next((s for j, s in steps if w[j] < n), None)
                if s is None:
                    break
                w = _mul(w, s)
            self._longest[K] = w
        return self._longest[K]

    # -- descents and coset representatives ------------------------------------
    def has_left_descent(self, w: tuple, i: int) -> bool:
        """l(s_i w) < l(w), i.e. w^{-1}(alpha_i) is negative."""
        return w.index(self._simple_index[i]) >= self._npos

    def has_right_descent(self, w: tuple, i: int) -> bool:
        """l(w s_i) < l(w), i.e. w(alpha_i) is negative."""
        return w[self._simple_index[i]] >= self._npos

    def is_min_left(self, w: tuple, K: Iterable[int]) -> bool:
        """w in K\\W minimal: no left descent in K."""
        return not any(self.has_left_descent(w, i) for i in K)

    def is_min_right(self, w: tuple, K: Iterable[int]) -> bool:
        return not any(self.has_right_descent(w, i) for i in K)

    def min_coset_reps(self, K: Iterable[int], side: str = "left") -> tuple:
        """Minimal coset representatives: 'left' is K\\W (labels ᴷW), 'right' W/K.
        The left ones are prefix-closed in weak order, so the level walk prunes."""
        K = tuple(sorted(set(K)))
        if side == "right":
            return tuple(map(_inverse, self.min_coset_reps(K, "left")))
        if side != "left":
            raise WeylError("side must be 'left' or 'right'")
        _check_size("the coset set K\\W", K, self.order() // self._subgroup_order(K))
        return self._sorted(self._levels(range(self.rd.num_simple), K))

    def double_coset_reps(self, I0: Iterable[int], J0: Iterable[int]) -> tuple:
        """Minimal representatives of W_{I0}\\W/W_{J0} = ᴵ⁰W ∩ Wᴶ⁰."""
        J0 = tuple(sorted(set(J0)))
        return tuple(w for w in self.min_coset_reps(I0, "left")
                     if self.is_min_right(w, J0))

    def double_coset_type(self, w: tuple, I0: Iterable[int], J0: Iterable[int]) -> tuple:
        """I_w = J0 ∩ w^{-1} I0 w: simple roots of J0 mapped by w into the I0-Levi."""
        levi = self.rd.levi_roots(I0)
        return tuple(j for j in sorted(set(J0))
                     if self.root_image(w, self.rd.simple_roots[j]) in levi)

    # -- Bruhat order -----------------------------------------------------------
    def bruhat_leq(self, u: tuple, w: tuple) -> bool:
        """Descent criterion: for a left descent s of w, u <= w iff
        min(u, su) <= sw, applied in a loop that strips one descent of w per
        step, so no recursion depth grows with l(w)."""
        lu, lw = self.length(u), self.length(w)
        while lu <= lw:
            if u == w or lu == 0:
                return True
            s = self.simple[next(i for i in range(self.rd.num_simple)
                                 if self.has_left_descent(w, i))]
            w, lw, su = _mul(s, w), lw - 1, _mul(s, u)
            lsu = self.length(su)
            if lsu < lu:
                u, lu = su, lsu
        return False

    # -- lower reflections and Bruhat down-sets -----------------------------------
    def lower_reflections(self, w: tuple) -> tuple:
        """Positive roots a with w s_a < w of length exactly l(w) - 1, sorted.
        w s_a < w exactly when w(a) is negative, and l(w s_a) = |N(w) Δ N(s_a)|
        for the inversion sets N(x) = {b > 0 : x(b) < 0} (Björner-Brenti,
        Combinatorics of Coxeter Groups, ch. 1 and 4): N(w s_a) is
        N(s_a) Δ s_a N(w) up to sign, and b -> ±s_a(b) permutes the positive
        roots and maps N(s_a) onto itself.  So no w s_a is composed; each test
        is one XOR and a popcount of byte masks."""
        inv = self._inversion_bytes(w)
        nw, lower, masks = int.from_bytes(inv, "little"), sum(inv) - 1, self._reflection_inversions
        return tuple(a for j, a in compress(enumerate(self.rd.positive), inv)
                     if (nw ^ masks[j]).bit_count() == lower)

    def _ideal_levels(self, ws):
        """Yield the Bruhat ideal {x : x <= w for some w in ws} one length level
        at a time.  Each w of ws not yet in the ideal adds [e, w], the products
        of the subwords of a reduced word of w, one letter s at a time: P_k is
        P_{k-1} with x s for each x in it (Björner-Brenti, Combinatorics of
        Coxeter Groups, ch. 2).  An x s with x(alpha_s) negative is skipped,
        since P_{k-1} is down-closed and holds it already.  x s is keyed from
        x and composed only the first time its key is met.  ws is read from
        its end, longest first for labels in (length, word) order, so a
        shorter label is mostly found in the ideal already; any order gives
        the same ideal."""
        if not ws:
            return
        levels = self._ideal(reversed(ws))
        levels.reverse()
        while levels:           # each level is dropped once it has been walked
            yield levels.pop()

    def _ideal(self, ws) -> list:
        """The ideal of `_ideal_levels` below the elements ws, as lists of
        elements by length; the lifting dicts die on return."""
        n, key, e = self._npos, self.key, self.e
        steps = list(zip(self._simple_index, self.simple, self._simple_keys))
        bottom = {key(e): (e, 0)}
        met = dict(bottom)          # key -> (element, length), over all of ws
        for w in ws:
            k = key(w)
            if k in met:
                continue
            # a reduced word of w, last letter first, by stripping one right
            # descent at a time; the elements passed lie in [e, w] and are kept
            l = self.length(w)
            met[k], x, word = (w, l), w, []
            while l:
                step = next(t for t in steps if x[t[0]] >= n)
                word.append(step)
                k = step[2](x)
                if k not in met:
                    met[k] = (_mul(x, step[1]), l - 1)
                x, l = met[k]
            down = dict(bottom)     # P_k, for the first k letters of the word
            for j, s, key_xs in reversed(word):
                for x, l in list(down.values()):
                    if x[j] < n:
                        k = key_xs(x)
                        if k not in down:
                            y = met.get(k)
                            if y is None:
                                y = met[k] = (_mul(x, s), l + 1)
                            down[k] = y
        levels = [[] for _ in range(max(l for x, l in met.values()) + 1)]
        for x, l in met.values():
            levels[l].append(x)
        return levels

    def _down_sets(self, label: dict, ws) -> list:
        """For each element w of ws, the OR of label.get(key(x), 0) over all
        x <= w in Bruhat order (Björner-Brenti, ch. 2).  Only the ideal below
        ws is walked, by levels (`_ideal_levels`); x s_a is a lower cover of x
        exactly when it lies in the previous level, which the ideal holds whole
        since it is down-closed, so only two levels of down-sets stay alive and
        those of ws are copied out on the way.  Down-sets are keyed by key(x),
        and the key of each x s_a is read from x, never composed.  Only the
        inversions a of x, x(a) negative, are followed: x s_a is longer than x
        otherwise."""
        self._check_enumerable()
        n, key, prev = self._npos, self.key, {}
        keys = [key(w) for w in ws]
        out, covers = dict.fromkeys(keys), tuple(enumerate(self._reflection_keys))
        for level in self._ideal_levels(ws):
            cur, below = {}, prev.get
            for x in level:
                k = key(x)
                d = label.get(k, 0)
                for j, cover in covers:
                    if x[j] >= n:
                        d |= below(cover(x), 0)
                cur[k] = d
                if k in out:
                    out[k] = d
            prev = cur
        return [out[k] for k in keys]

    # -- bracket notation (hyperoctahedral presets) -------------------------------
    def supports_bracket(self) -> bool:
        p = self.rd.preset
        return bool(p) and "x" not in p and p[0] in ("B", "C") and p[1:].isdigit()

    def to_bracket(self, w: tuple) -> str:
        """Signed-permutation notation [d1..dn]; value 2n+1-k encodes -e_k."""
        if self._bracket is None:
            if not self.supports_bracket():
                raise WeylError("bracket notation requires a pure B/C preset")
            n = self.rd.rank
            scale = 2 if self.rd.preset[0] == "C" else 1   # the root e_j in B, 2e_j in C
            axes = [self._index[tuple(scale * (i == k) for i in range(n))] for k in range(n)]
            digit = {j: str(k + 1) for k, j in enumerate(axes)}
            digit.update((j + self._npos, str(2 * n - k)) for k, j in enumerate(axes))
            self._bracket = (itemgetter(*axes), digit, " " if 2 * n > 9 else "")
        axes, digit, sep = self._bracket
        return "[" + sep.join(map(digit.__getitem__, axes(w))) + "]"

    def from_bracket(self, text: str) -> tuple:
        if not self.supports_bracket():
            raise WeylError("bracket notation requires a pure B/C preset")
        n = self.rd.rank
        body = text.strip().strip("[]").replace(",", " ")
        digits = body.split() if " " in body else body
        vals = [int(t) for t in digits] if all(t.isdecimal() for t in digits) else ()
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

        return self._perm_of(act)
