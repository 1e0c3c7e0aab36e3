"""Based root data: explicit integral root/coroot vectors plus a finite-order
diagram automorphism.

Vectors are plain tuples of ints in the character lattice X*(T) (resp. the
cocharacter lattice X_*(T)); the pairing is the standard dot product between
the two mutually dual lattices.  Presets are realized in e_i coordinates so
that pairings and Weyl actions are signed-permutation arithmetic.

Every galois spec (split, "flip", "dswap" or an explicit matrix) becomes one
integer matrix M acting on characters and one order d with M^d = I; the
permutation of the simple roots is read off M.  The action on cocharacters is
the inverse transpose of M, which only validation needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import mul, neg, or_
from typing import Iterable, Optional

Vec = tuple  # integer lattice vector

ROOT_ENUMERATION_CAP = 10_000
# the largest lattice rank built; A99 and GL100, the largest single-factor
# presets under the root cap, reach it
RANK_CAP = 100
# the largest bit length of an explicit simple root or coroot entry
ENTRY_BIT_CAP = 64


class RootDatumError(ValueError):
    pass


def dot(a: Vec, b: Vec) -> int:
    if len(a) != len(b):
        raise RootDatumError("rank mismatch: %d vs %d" % (len(a), len(b)))
    return sum(map(mul, a, b))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(map(neg, a))


def _join(labels, a, b):
    """Merge the class of index a into that of b; labels[i] names the class of i."""
    old, to = labels[a], labels[b]
    labels[:] = [to if x == old else x for x in labels]


def _mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _mat_mul(a, b):
    """a b, each row the sum of the rows of b at that row's nonzero entries of a;
    a row with one nonzero entry, as in a permutation matrix, is that row of b,
    scaled."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        terms = [(x, brow) for x, brow in zip(row, b) if x]
        if len(terms) == 1:
            x, brow = terms[0]
            out.append(tuple(brow) if x == 1 else tuple(x * v for v in brow))
            continue
        acc = [0] * width
        for x, brow in terms:
            acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_pow(m, k):
    """m^k by repeated squaring."""
    out = _identity(len(m))
    while k:
        if k & 1:
            out = _mat_mul(out, m)
        m, k = _mat_mul(m, m), k >> 1
    return out


@dataclass(frozen=True)
class GaloisAction:
    """Finite-order lattice automorphism permuting the simple roots.  The char
    matrix M acts on characters and its inverse transpose on cocharacters;
    `RootDatum` checks M^order = I and that gamma sends alpha_i to
    alpha_{perm[i]} and alpha_i^vee to alpha_{perm[i]}^vee."""

    char_matrix: tuple
    order: int
    simple_perm: tuple  # 0-based: gamma(alpha_i) = alpha_{perm[i]}

    @cached_property
    def _columns(self) -> tuple:
        """Each column j of M as its nonzero entries (i, M[i][j])."""
        m = self.char_matrix
        return tuple(tuple((i, row[j]) for i, row in enumerate(m) if row[j])
                     for j in range(len(m)))

    def char(self, v: Vec, k: int = 1) -> Vec:
        """gamma^k(v); each step adds up the columns of M at the nonzero entries
        of v, reading only the nonzero entries of M."""
        cols = self._columns
        for _ in range(k % self.order):
            out = [0] * len(v)
            for j in compress(range(len(v)), v):
                for i, x in cols[j]:
                    out[i] += x * v[j]
            v = tuple(out)
        return v

    def perm(self, i: int, k: int = 1) -> int:
        cycle = [i]     # i's cycle, no longer than the simple roots whatever the order
        while self.simple_perm[cycle[-1]] != i:
            cycle.append(self.simple_perm[cycle[-1]])
        return cycle[k % len(cycle)]


@dataclass(frozen=True, eq=False)
class RootDatum:
    rank: int
    simple_roots: tuple
    simple_coroots: tuple
    cartan: tuple          # cartan[i][j] = <alpha_j, alpha_i^vee>
    galois: GaloisAction
    preset: Optional[str] = None
    # derived, filled in __post_init__
    roots: frozenset = field(default=frozenset())
    positive: tuple = field(default=())
    negative: tuple = field(default=())     # -a for each a of positive, in its order
    coroot_of: dict = field(default_factory=dict)
    coeffs_of: dict = field(default_factory=dict)  # root -> simple-root coefficients
    images_of: dict = field(default_factory=dict)  # root -> (s_1(a), ..., s_m(a), gamma(a))
    coroot_orbits: tuple = field(default=())   # sorted orbits under W and galois
    # frozenset(K) -> (levi_positive(K), levi_roots(K)), filled on first use
    _levi: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self._validate_base()
        found, negative_of, seed_of, rep = self._enumerate_roots()
        object.__setattr__(self, "coroot_of", {a: ac for a, (_, ac, _, _) in found.items()})
        object.__setattr__(self, "coeffs_of", {a: c for a, (_, _, c, _) in found.items()})
        object.__setattr__(self, "roots", frozenset(found))
        pos = sorted(negative_of)
        object.__setattr__(self, "positive", tuple(pos))
        object.__setattr__(self, "negative", tuple(map(negative_of.__getitem__, pos)))
        self._validate_galois()
        # gamma(sum c_i alpha_i) = sum c_i alpha_gamma(i): gamma permutes the
        # coefficients, and gamma(-a) = -gamma(a)
        perm = self.galois.simple_perm
        root_of = {self.coeffs_of[a]: a for a in pos}
        inv = sorted(range(self.num_simple), key=perm.__getitem__)
        gamma = {a: root_of[tuple(map(self.coeffs_of[a].__getitem__, inv))] for a in pos}
        gamma.update([(negative_of[a], negative_of[g]) for a, g in gamma.items()])
        object.__setattr__(self, "images_of", {a: (*imgs, gamma[a])
                                               for a, (_, _, _, imgs) in found.items()})
        object.__setattr__(self, "coroot_orbits", self._coroot_orbits(negative_of, seed_of, rep))

    # -- construction checks -------------------------------------------------
    def _validate_base(self):
        for i, row in enumerate(self.cartan):
            for j, c in enumerate(row):
                if i == j and c != 2:
                    raise RootDatumError("diagonal Cartan entry must be 2")
                if i != j and c > 0:
                    raise RootDatumError("off-diagonal Cartan entries must be <= 0")

    def _enumerate_roots(self):
        """Close the simple roots under the simple reflections: root a -> (a, coroot,
        coefficients over the simple roots, [s_1(a), ..., s_m(a)] as key objects);
        each positive root -> its negative; each positive root -> the simple
        index it was first met from; and a list naming the W-orbit class of each
        simple index (joined by `_join`).

        The closure runs on coefficient vectors (Casselman, "Computation in
        Coxeter groups I", Electron. J. Combin. 9, 2002), each root with its m
        pairings k_i = <a, alpha_i^vee> and kc_i = <alpha_i, a^vee>.  s_i
        changes only the i-th coefficient of a, by -k_i, and b = s_i(a) has the
        pairings of a less k_i times those of alpha_i (a column of the Cartan
        matrix), and kc_i times those of alpha_i^vee (a row), over their nonzero
        entries; s_i(a) = a wherever k_i and kc_i are 0, and s_i(b) = a is
        recorded with b.  Root and coroot vectors are built only for new
        coefficient vectors; each is the linear image of its coefficients, so
        the checks below are those of a closure on the vectors themselves.

        Only the positive roots are paired: s_i(-a) = -s_i(a), so a negative
        root takes its positive's images, negated.  s_i permutes the positive
        roots other than alpha_i (Humphreys, Reflection Groups and Coxeter
        Groups, 1.4), so -alpha_i is the one negative root met from a positive
        one, and a reflection taking any other positive root out of them
        raises.  Every other negative root is first met as -s_i(a) from -a,
        after s_i(a) itself was met from a, so a's images are known when -a is
        reached; the roots are met in the order of the closure on all of them."""
        m, cartan = len(self.simple_roots), self.cartan
        # column i of the Cartan matrix, <alpha_i, alpha_j^vee> over j, and row i,
        # <alpha_j, alpha_i^vee> over j, each as its nonzero entries (j, x)
        cols = [tuple((j, row[i]) for j, row in enumerate(cartan) if row[i]) for i in range(m)]
        rows = [tuple((j, x) for j, x in enumerate(row) if x) for row in cartan]

        def step(v, k, sparse):
            """v - k * (a vector given by its nonzero entries)."""
            out = list(v)
            for j, x in sparse:
                out[j] -= k * x
            return out

        def clash(b):
            return RootDatumError(
                "root %r is reached with two coefficient vectors or coroots; "
                "the simple roots are not linearly independent" % (b,))

        simple, simple_co = ([tuple((j, x) for j, x in enumerate(v) if x) for v in vectors]
                             for vectors in (self.simple_roots, self.simple_coroots))
        units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        found = {a: (a, ac, units[i], [a] * m)
                 for i, (a, ac) in enumerate(zip(self.simple_roots, self.simple_coroots))}
        # positive coefficients -> (root, its pairings k, its pairings kc, the
        # simple index it was first met from); the W-orbits of the positive roots
        # are the classes of those indices under rep, joined along every s_i
        by_coeffs = {units[i]: (a, [row[i] for row in cartan], list(cartan[i]), i)
                     for i, a in enumerate(self.simple_roots)}
        rep = list(range(m))
        negative_of, positive_of = {}, {}
        frontier = list(found)
        while frontier:
            new = []
            for a in frontier:
                _, ac, c, images = found[a]
                p = positive_of.get(a)
                if p is not None:       # a = -p
                    for i, b in enumerate(found[p][3]):
                        if b is p:
                            continue
                        nb = p if b is a else negative_of.get(b)   # s_i(-alpha_i) = alpha_i
                        if nb is None:
                            nb = vneg(b)
                            if nb in found:
                                raise clash(nb)
                            _, bc, cb, _ = found[b]
                            found[nb] = (nb, vneg(bc), vneg(cb), [nb] * m)
                            negative_of[b], positive_of[nb] = nb, b
                            new.append(nb)
                        images[i] = nb
                    continue
                _, ks, kcs, seed = by_coeffs[c]
                for i in compress(range(m), map(or_, ks, kcs)):
                    if images[i] is not a:      # recorded as a was met from s_i(a)
                        continue
                    k, kc = ks[i], kcs[i]
                    coeffs = c[:i] + (c[i] - k,) + c[i + 1:]
                    bc = tuple(step(ac, kc, simple_co[i]))
                    seen = by_coeffs.get(coeffs)
                    if seen is None:
                        b = tuple(step(a, k, simple[i]))
                        if b in found:      # reached before with other coefficients
                            raise clash(b)
                        found[b] = (b, bc, coeffs, [b] * m)
                        if coeffs[i] >= 0:
                            by_coeffs[coeffs] = (b, step(ks, k, cols[i]), step(kcs, kc, rows[i]),
                                                 seed)
                        elif c == units[i]:
                            negative_of[a], positive_of[b] = b, a
                        else:
                            raise RootDatumError(
                                "positive roots do not split the root set in half: s_%d "
                                "takes the positive root %r to %r" % (i + 1, a, b))
                        new.append(b)
                    else:
                        b, _, _, other = seen
                        if found[b][1] != bc:
                            raise clash(b)
                        if rep[other] != rep[seed]:
                            _join(rep, other, seed)
                    images[i] = b
                    if coeffs[i] >= 0:
                        found[b][3][i] = a
            if len(found) > ROOT_ENUMERATION_CAP:
                raise RootDatumError(
                    "root enumeration exceeded %d; Cartan data do not define a "
                    "finite Weyl group" % ROOT_ENUMERATION_CAP)
            frontier = new
        return found, negative_of, {b: seed for b, _, _, seed in by_coeffs.values()}, rep

    def _validate_galois(self):
        g = self.galois
        if _mat_pow(g.char_matrix, g.order) != _identity(self.rank):
            raise RootDatumError("galois matrix does not have the declared order")
        # gamma acts on cocharacters by the inverse transpose of M, so it sends
        # alpha_i^vee to alpha_j^vee exactly when transpose(M) alpha_j^vee = alpha_i^vee
        transpose = tuple(zip(*g.char_matrix))
        for i, a in enumerate(self.simple_roots):
            j = g.simple_perm[i]
            if g.char(a) != self.simple_roots[j]:
                raise RootDatumError("galois action does not permute the simple roots as declared")
            if _mat_vec(transpose, self.simple_coroots[j]) != self.simple_coroots[i]:
                raise RootDatumError("galois action does not permute the simple coroots compatibly")

    def _coroot_orbits(self, negative_of, seed_of, rep):
        """Orbits of the coroots under the simple reflections and the galois action:
        the coroots of the root orbits, as s_i(a)^vee = s_i(a^vee) and so for gamma.
        A W-orbit holds -a with each root a (s_a(a) = -a), and the closure names
        the W-orbit of each positive root by the class under `rep` of the simple
        index it was met from (`seed_of`); gamma joins the classes of i and gamma(i)."""
        for i, j in enumerate(self.galois.simple_perm):
            _join(rep, j, i)
        orbits = {}
        for a, o in seed_of.items():
            orbits.setdefault(rep[o], []).extend((self.coroot_of[a],
                                                  self.coroot_of[negative_of[a]]))
        return tuple(sorted(tuple(sorted(o)) for o in orbits.values()))

    # -- queries --------------------------------------------------------------
    @property
    def num_simple(self) -> int:
        return len(self.simple_roots)

    def coroot(self, a: Vec) -> Vec:
        try:
            return self.coroot_of[a]
        except KeyError:
            raise RootDatumError("%r is not a root" % (a,))

    def simple_index(self, a: Vec) -> Optional[int]:
        try:
            return self.simple_roots.index(a)
        except ValueError:
            return None

    def dim_group(self) -> int:
        return self.rank + len(self.roots)

    def dim_borel(self) -> int:
        return self.rank + len(self.positive)

    def _levi_pair(self, K: Iterable[int]) -> tuple:
        K = frozenset(K)
        pair = self._levi.get(K)
        if pair is None:
            outside = [i not in K for i in range(self.num_simple)]
            inside = [j for j, a in enumerate(self.positive)
                      if not any(compress(self.coeffs_of[a], outside))]
            pos = frozenset(map(self.positive.__getitem__, inside))
            pair = self._levi[K] = (pos, pos | frozenset(map(self.negative.__getitem__, inside)))
        return pair

    def levi_positive(self, K: Iterable[int]) -> frozenset:
        """Positive roots lying in the span of the simple roots indexed by K."""
        return self._levi_pair(K)[0]

    def levi_roots(self, K: Iterable[int]) -> frozenset:
        return self._levi_pair(K)[1]


def reflect(rd: RootDatum, alpha: Vec, v: Vec, side: str = "char") -> Vec:
    """Reflection s_alpha on a character (v - <v,a^vee>a) or cocharacter."""
    ac = rd.coroot(alpha)
    if side == "char":
        c = dot(v, ac)
        return tuple(v[i] - c * alpha[i] for i in range(rd.rank))
    if side == "cochar":
        c = dot(alpha, v)
        return tuple(v[i] - c * ac[i] for i in range(rd.rank))
    raise RootDatumError("side must be 'char' or 'cochar'")


# -- presets ------------------------------------------------------------------

def _e(rank, i):
    return tuple(1 if k == i else 0 for k in range(rank))


def _preset_simples(family: str, n: int):
    """Simple roots/coroots in e_i coordinates; returns (rank, roots, coroots)."""
    if family in ("A", "GL"):
        rank = n + 1 if family == "A" else n
        m = rank - 1
        roots = [vadd(_e(rank, i), vneg(_e(rank, i + 1))) for i in range(m)]
        return rank, roots, list(roots)
    if family == "B":
        if n < 2:
            raise RootDatumError("B_n requires n >= 2")
        roots = [vadd(_e(n, i), vneg(_e(n, i + 1))) for i in range(n - 1)] + [_e(n, n - 1)]
        coroots = list(roots[:-1]) + [tuple(2 * x for x in _e(n, n - 1))]
        return n, roots, coroots
    if family == "C":
        if n < 2:
            raise RootDatumError("C_n requires n >= 2")
        roots = [vadd(_e(n, i), vneg(_e(n, i + 1))) for i in range(n - 1)] \
            + [tuple(2 * x for x in _e(n, n - 1))]
        coroots = [vadd(_e(n, i), vneg(_e(n, i + 1))) for i in range(n - 1)] + [_e(n, n - 1)]
        return n, roots, coroots
    if family == "D":
        if n < 3:
            raise RootDatumError("D_n requires n >= 3")
        roots = [vadd(_e(n, i), vneg(_e(n, i + 1))) for i in range(n - 1)] \
            + [vadd(_e(n, n - 2), _e(n, n - 1))]
        return n, roots, list(roots)
    raise RootDatumError("unknown preset family %r" % family)


def _parse_preset(name: str):
    for fam in ("GL", "A", "B", "C", "D"):
        if name.startswith(fam) and name[len(fam):].isdigit():
            try:
                n = int(name[len(fam):])
            except ValueError:      # a digit int() cannot read, or more than 4300 digits
                break
            if fam == "GL" and n < 1:
                raise RootDatumError("GL_n requires n >= 1")
            if fam == "A" and n < 1:
                raise RootDatumError("A_n requires n >= 1")
            return fam, n
    raise RootDatumError("unknown preset %r" % name)


def _root_count(family: str, n: int) -> int:
    """The number of roots of a preset factor, read from its type alone."""
    return {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n,
            "D": 2 * n * (n - 1), "GL": n * (n - 1)}[family]


def _flip_matrix(rank: int) -> tuple:
    """The order-2 diagram flip for A/GL presets: e_i -> -e_{rank+1-i}."""
    return tuple(tuple(-1 if j == rank - 1 - i else 0 for j in range(rank)) for i in range(rank))


def _dswap_matrix(rank: int) -> tuple:
    """The order-2 swap of the two fork nodes for D presets: e_n -> -e_n."""
    return tuple(tuple((-1 if i == rank - 1 else 1) if i == j else 0 for j in range(rank))
                 for i in range(rank))


def _integer(x, what: str) -> int:
    if type(x) is not int:      # JSON true is a bool
        raise RootDatumError("%s must be an integer, got %r" % (what, x))
    return x


def _entries(vectors, what: str) -> list:
    """Explicit vectors as tuples of plain ints of at most ENTRY_BIT_CAP bits."""
    out = [tuple(_integer(x, what + " entry") for x in a) for a in vectors]
    bits = max((x.bit_length() for a in out for x in a), default=0)
    if bits > ENTRY_BIT_CAP:
        raise RootDatumError("a %s entry has %d bits, more than the cap %d"
                             % (what, bits, ENTRY_BIT_CAP))
    return out


def _check_rank(rank: int, what: str):
    if rank > RANK_CAP:
        raise RootDatumError("%s has rank %d, more than the cap %d" % (what, rank, RANK_CAP))


def _finite_order_bound(n: int) -> int:
    """lcm{p^k : phi(p^k) <= n}.  A finite-order integer n x n matrix has root
    of unity eigenvalues of orders d with phi(d) <= n, so its order divides this."""
    bound = 1
    for p in range(2, n + 2):
        if all(p % d for d in range(2, p)):
            pk = p
            while pk * (p - 1) <= n:        # phi(p * pk) = pk * (p - 1)
                pk *= p
            bound *= pk
    return bound


def build_root_datum(spec, galois=None, order=None) -> RootDatum:
    """Construct a root datum.

    `spec` is a preset name ("A<n>", "B<n>", "C<n>", "D<n>", "GL<n>", products
    like "C3xGL1") or a dict {rank, simple_roots, simple_coroots}.
    `galois` is None (split), the string "flip"/"dswap" for preset diagram
    automorphisms, or a dict {matrix, order} (explicit lattice automorphism).
    Each becomes a matrix M and an order d, and the permutation of the simple
    roots is read off M.  `order`, when given, is the declared d in place of
    the spec's own (1 when split, 2 for "flip" and "dswap", the dict's
    "order"), checked like any other.
    """
    if isinstance(spec, str):
        factors = [_parse_preset(part) for part in spec.split("x")]
        count = sum(_root_count(fam, n) for fam, n in factors)
        if count > ROOT_ENUMERATION_CAP:
            raise RootDatumError("preset %s has %d roots, more than the cap %d"
                                 % (spec, count, ROOT_ENUMERATION_CAP))
        _check_rank(sum(n + (fam == "A") for fam, n in factors), "preset " + spec)
        rank = 0
        roots, coroots = [], []
        for fam, n in factors:
            r, rs, cs = _preset_simples(fam, n)
            roots += [tuple([0] * rank + list(a)) for a in rs]
            coroots += [tuple([0] * rank + list(a)) for a in cs]
            rank += r
        roots = [tuple(list(a) + [0] * (rank - len(a))) for a in roots]
        coroots = [tuple(list(a) + [0] * (rank - len(a))) for a in coroots]
        preset = spec
    else:
        rank = _integer(spec["rank"], "rank")
        if rank < 0:
            raise RootDatumError("rank must be a non-negative integer, got %d" % rank)
        _check_rank(rank, "the explicit datum")
        roots = _entries(spec["simple_roots"], "simple root")
        coroots = _entries(spec["simple_coroots"], "simple coroot")
        if len(coroots) != len(roots):
            raise RootDatumError("simple roots and coroots differ in number")
        if any(len(a) != rank for a in roots + coroots):
            raise RootDatumError("vector length does not match rank")
        preset = None

    nsimple = len(roots)
    cartan = tuple(tuple(dot(roots[j], coroots[i]) for j in range(nsimple))
                   for i in range(nsimple))

    if galois is None:
        m, own = _identity(rank), 1
    elif galois == "flip":
        if preset is None or "x" in preset or _parse_preset(preset)[0] not in ("A", "GL"):
            raise RootDatumError("'flip' is available for single-factor A/GL presets only")
        m, own = _flip_matrix(rank), 2
    elif galois == "dswap":
        if preset is None or not preset.startswith("D") or "x" in preset:
            raise RootDatumError("'dswap' is available for single-factor D presets only")
        m, own = _dswap_matrix(rank), 2
    elif isinstance(galois, dict):
        m = tuple(tuple(_integer(x, "galois matrix entry") for x in row)
                  for row in galois["matrix"])
        if len(m) != rank or any(len(row) != rank for row in m):
            raise RootDatumError("galois matrix must be %d x %d" % (rank, rank))
        own = galois["order"]
    else:
        raise RootDatumError("unsupported galois spec %r" % (galois,))
    order = _integer(own if order is None else order, "galois order")
    if order < 1:
        raise RootDatumError("galois order must be a positive integer, got %d" % order)
    bound = _finite_order_bound(rank)
    if order > bound:
        raise RootDatumError("galois order %d exceeds %d, which every finite order of "
                             "an invertible integer %d x %d matrix divides"
                             % (order, bound, rank, rank))
    # read the permutation of the simple roots off M; validation checks the rest
    perm = []
    for a in roots:
        img = _mat_vec(m, a)
        if img not in roots:
            raise RootDatumError("galois matrix is not a diagram automorphism")
        perm.append(roots.index(img))

    return RootDatum(rank=rank, simple_roots=tuple(roots), simple_coroots=tuple(coroots),
                     cartan=cartan, galois=GaloisAction(m, order, tuple(perm)),
                     preset=preset)
