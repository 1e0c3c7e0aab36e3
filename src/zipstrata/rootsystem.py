"""Based root data: explicit integral root/coroot vectors plus a finite-order
diagram automorphism.

Vectors are plain tuples of ints in the character lattice X*(T) (resp. the
cocharacter lattice X_*(T)); the pairing is the standard dot product between
the two mutually dual lattices.  Presets are realized in e_i coordinates so
that pairings and Weyl actions are signed-permutation arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

Vec = tuple  # integer lattice vector

ROOT_ENUMERATION_CAP = 10_000


class RootDatumError(ValueError):
    pass


def dot(a: Vec, b: Vec) -> int:
    if len(a) != len(b):
        raise RootDatumError("rank mismatch: %d vs %d" % (len(a), len(b)))
    return sum(x * y for x, y in zip(a, b))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def _mat_vec(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_pow(m, k):
    out = _identity(len(m))
    for _ in range(k):
        out = _mat_mul(out, m)
    return out


@dataclass(frozen=True)
class GaloisAction:
    """Finite-order lattice automorphism permuting the simple roots."""

    char_matrix: tuple
    cochar_matrix: tuple
    order: int
    simple_perm: tuple  # 0-based: gamma(alpha_i) = alpha_{perm[i]}

    def char(self, v: Vec, k: int = 1) -> Vec:
        for _ in range(k % self.order):
            v = _mat_vec(self.char_matrix, v)
        return v

    def cochar(self, v: Vec, k: int = 1) -> Vec:
        for _ in range(k % self.order):
            v = _mat_vec(self.cochar_matrix, v)
        return v

    def perm(self, i: int, k: int = 1) -> int:
        for _ in range(k % self.order):
            i = self.simple_perm[i]
        return i


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
    coroot_of: dict = field(default_factory=dict)
    coeffs_of: dict = field(default_factory=dict)  # root -> simple-root coefficients
    coroot_orbits: tuple = field(default=())   # sorted orbits under W and galois

    def __post_init__(self):
        self._validate_base()
        found = self._enumerate_roots()
        object.__setattr__(self, "coroot_of", {a: ac for a, (ac, _) in found.items()})
        object.__setattr__(self, "coeffs_of", {a: c for a, (_, c) in found.items()})
        object.__setattr__(self, "roots", frozenset(found))
        pos = sorted(a for a, c in self.coeffs_of.items() if min(c) >= 0)
        object.__setattr__(self, "positive", tuple(pos))
        if 2 * len(pos) != len(self.roots):
            raise RootDatumError("positive roots do not split the root set in half")
        self._validate_galois()
        object.__setattr__(self, "coroot_orbits", self._coroot_orbits())

    # -- construction checks -------------------------------------------------
    def _validate_base(self):
        m = len(self.simple_roots)
        if len(self.simple_coroots) != m:
            raise RootDatumError("simple roots and coroots differ in number")
        for a in list(self.simple_roots) + list(self.simple_coroots):
            if len(a) != self.rank:
                raise RootDatumError("vector length does not match rank")
        for i in range(m):
            for j in range(m):
                c = dot(self.simple_roots[j], self.simple_coroots[i])
                if c != self.cartan[i][j]:
                    raise RootDatumError("Cartan matrix inconsistent with pairings")
                if i == j and c != 2:
                    raise RootDatumError("diagonal Cartan entry must be 2")
                if i != j and c > 0:
                    raise RootDatumError("off-diagonal Cartan entries must be <= 0")

    def _enumerate_roots(self):
        """Close the simple roots under the simple reflections: root -> (coroot,
        coefficients over the simple roots).  s_i changes only the i-th
        coefficient of a root a, by -<a, alpha_i^vee>."""
        m = len(self.simple_roots)
        found = {a: (ac, tuple(int(i == j) for j in range(m)))
                 for i, (a, ac) in enumerate(zip(self.simple_roots, self.simple_coroots))}
        frontier = list(found)
        while frontier:
            new = []
            for a in frontier:
                ac, c = found[a]
                for i in range(m):
                    si, sic = self.simple_roots[i], self.simple_coroots[i]
                    k = dot(a, sic)
                    b = tuple(a[j] - k * si[j] for j in range(self.rank))
                    bc = tuple(ac[j] - dot(si, ac) * sic[j] for j in range(self.rank))
                    entry = (bc, c[:i] + (c[i] - k,) + c[i + 1:])
                    seen = found.get(b)
                    if seen is None:
                        found[b] = entry
                        new.append(b)
                    elif seen != entry:
                        raise RootDatumError(
                            "root %r is reached with two coefficient vectors or coroots; "
                            "the simple roots are not linearly independent" % (b,))
            if len(found) > ROOT_ENUMERATION_CAP:
                raise RootDatumError(
                    "root enumeration exceeded %d; Cartan data do not define a "
                    "finite Weyl group" % ROOT_ENUMERATION_CAP)
            frontier = new
        return found

    def _validate_galois(self):
        g = self.galois
        if _mat_pow(g.char_matrix, g.order) != _identity(self.rank):
            raise RootDatumError("galois matrix does not have the declared order")
        for i, a in enumerate(self.simple_roots):
            img = g.char(a)
            j = g.simple_perm[i]
            if img != self.simple_roots[j]:
                raise RootDatumError("galois action does not permute the simple roots as declared")
            if g.cochar(self.simple_coroots[i]) != self.simple_coroots[j]:
                raise RootDatumError("galois action does not permute the simple coroots compatibly")

    def _coroot_orbits(self):
        """Orbits of the coroots under the simple reflections and the galois action."""
        seen = set()
        orbits = []
        for c in sorted(self.coroot_of.values()):
            if c in seen:
                continue
            orbit = {c}
            frontier = [c]
            while frontier:
                u = frontier.pop()
                images = [reflect(self, a, u, "cochar") for a in self.simple_roots]
                images.append(self.galois.cochar(u))
                for v in images:
                    if v not in orbit:
                        orbit.add(v)
                        frontier.append(v)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)

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

    def levi_positive(self, K: Iterable[int]) -> frozenset:
        """Positive roots lying in the span of the simple roots indexed by K."""
        K = set(K)
        return frozenset(a for a in self.positive
                         if all(i in K for i, x in enumerate(self.coeffs_of[a]) if x))

    def levi_roots(self, K: Iterable[int]) -> frozenset:
        pos = self.levi_positive(K)
        return pos | frozenset(vneg(a) for a in pos)


def reflect(rd: RootDatum, alpha: Vec, v: Vec, side: str = "char") -> Vec:
    """Reflection s_alpha on a character (v - <v,a^vee>a) or cocharacter."""
    if alpha not in rd.roots:
        raise RootDatumError("%r is not a root" % (alpha,))
    ac = rd.coroot(alpha)
    if side == "char":
        c = dot(v, ac)
        return tuple(v[i] - c * alpha[i] for i in range(rd.rank))
    if side == "cochar":
        c = dot(alpha, v)
        return tuple(v[i] - c * ac[i] for i in range(rd.rank))
    raise RootDatumError("side must be 'char' or 'cochar'")


# -- presets ------------------------------------------------------------------

def _identity_galois(rank: int, nsimple: int) -> GaloisAction:
    m = _identity(rank)
    return GaloisAction(m, m, 1, tuple(range(nsimple)))


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
            n = int(name[len(fam):])
            if fam == "GL" and n < 1:
                raise RootDatumError("GL_n requires n >= 1")
            if fam == "A" and n < 1:
                raise RootDatumError("A_n requires n >= 1")
            return fam, n
    raise RootDatumError("unknown preset %r" % name)


def _flip_galois(preset: str, rank: int, nsimple: int) -> GaloisAction:
    """The order-2 diagram flip for A/GL presets: e_i -> -e_{rank+1-i}."""
    m = tuple(tuple(-1 if j == rank - 1 - i else 0 for j in range(rank)) for i in range(rank))
    perm = tuple(nsimple - 1 - i for i in range(nsimple))
    return GaloisAction(m, m, 2, perm)


def _dswap_galois(rank: int, nsimple: int) -> GaloisAction:
    """The order-2 swap of the two fork nodes for D presets: e_n -> -e_n."""
    m = tuple(tuple((-1 if i == rank - 1 else 1) if i == j else 0 for j in range(rank))
              for i in range(rank))
    perm = tuple(range(nsimple - 2)) + (nsimple - 1, nsimple - 2)
    return GaloisAction(m, m, 2, perm)


def _integer(x, what: str) -> int:
    if not isinstance(x, int):
        raise RootDatumError("%s must be an integer, got %r" % (what, x))
    return x


def build_root_datum(spec, galois=None) -> RootDatum:
    """Construct a root datum.

    `spec` is a preset name ("A<n>", "B<n>", "C<n>", "D<n>", "GL<n>", products
    like "C3xGL1") or a dict {rank, simple_roots, simple_coroots, cartan?}.
    `galois` is None (split), the string "flip"/"dswap" for preset diagram
    automorphisms, or a dict {matrix, order} (explicit lattice automorphism).
    """
    if isinstance(spec, str):
        factors = [_parse_preset(part) for part in spec.split("x")]
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
        rank = spec["rank"]
        roots = [tuple(a) for a in spec["simple_roots"]]
        coroots = [tuple(a) for a in spec["simple_coroots"]]
        preset = None

    nsimple = len(roots)
    cartan = tuple(tuple(dot(roots[j], coroots[i]) for j in range(nsimple))
                   for i in range(nsimple))

    if galois is None:
        ga = _identity_galois(rank, nsimple)
    elif galois == "flip":
        if preset is None or _parse_preset(preset.split("x")[0])[0] not in ("A", "GL") \
                or "x" in (preset or ""):
            raise RootDatumError("'flip' is available for single-factor A/GL presets only")
        ga = _flip_galois(preset, rank, nsimple)
    elif galois == "dswap":
        if preset is None or not preset.startswith("D") or "x" in preset:
            raise RootDatumError("'dswap' is available for single-factor D presets only")
        ga = _dswap_galois(rank, nsimple)
    elif isinstance(galois, dict):
        m = tuple(tuple(_integer(x, "galois matrix entry") for x in row)
                  for row in galois["matrix"])
        if len(m) != rank or any(len(row) != rank for row in m):
            raise RootDatumError("galois matrix must be %d x %d" % (rank, rank))
        order = _integer(galois["order"], "galois order")
        if order < 1:
            raise RootDatumError("galois order must be a positive integer, got %d" % order)
        # recover the permutation of the simple roots before full validation
        perm = []
        for a in roots:
            img = _mat_vec(m, a)
            if img not in roots:
                raise RootDatumError("galois matrix is not a diagram automorphism")
            perm.append(roots.index(img))
        # M^order = I (checked in validation), so M^(order-1) inverts M
        cochar = tuple(zip(*_mat_pow(m, order - 1)))
        ga = GaloisAction(m, cochar, order, tuple(perm))
    else:
        raise RootDatumError("unsupported galois spec %r" % (galois,))

    return RootDatum(rank=rank, simple_roots=tuple(roots), simple_coroots=tuple(coroots),
                     cartan=cartan, galois=ga, preset=preset)
