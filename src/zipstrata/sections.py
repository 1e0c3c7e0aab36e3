"""Character tests, Frobenius-twisted Weyl powers, the section multiplicities
n_alpha, per-stratum section cones and purity reports.

Convention note.  The multiplicity of a stratum section along the wall of a
lower neighbor w s_alpha is

    n_alpha(chi) = sum_{i=0}^{T-1}  q^i * < L^i chi, (w s_alpha)(alpha^vee) >

where L is the character-side loop operator gamma^n o z o w^{-1} (the
Frobenius acts on characters as q times gamma^n), q = p^n, and T is the order
of L.  Only `_wall_rows` builds it: chi paired with the adjoint row
sum_{i<T} q^i (L^t)^i c, where c = w(-alpha^vee) is the coroot of the root
`_wall_root` gives; n_alpha, the verdicts, cones and purity reports read these
rows.  This is the calibrated reading: on the Sp(6) reference stratum the
values at the Levi-character lattice generator equal (q^3-1)(q+1) times the
reference table (an alpha-independent positive factor, so verdicts, vanishing
walls and cones agree exactly), and positivity holds on every ample,
orbitally q-close Levi character across zip-level, flag-level, twisted and
GL_n data.  The transport reading with w(alpha^vee) in place of the wall
transport (w s_alpha)(alpha^vee) = -w(alpha^vee) fails the positivity
theorem.  The convention tag below is emitted in all reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from . import cones
from .rootsystem import RootDatum, Vec, build_root_datum, dot
from .weyl import _inverse, _mul
from .zipdatum import ZipDatum, _flag_base, prime_power, zip_from_cochar

CONVENTION = "loop(z*w^-1)/wall-transport/base(q)"

# the cap on T times the bit length of q: a wall row sums T terms q^i c, so its
# integers have about that many bits; like q itself, they then print in about
# 3011 decimal digits, under the 4300 that int-to-str conversion allows
ROW_BIT_CAP = 10_000
# the most section-cone witnesses `purity_verdict` tries on a stratum before it
# solves the stratum's cone: each stratum costs at most this many replays, where
# an unbounded list would cost quadratically many on Borel types
WITNESS_LIST = 4


class SectionError(ValueError):
    pass


@dataclass(frozen=True)
class CharacterVerdict:
    chi: tuple
    q: int
    q_small: bool
    orbitally_q_close: bool
    zip_ample: Optional[bool] = None
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SectionVerdict:
    stratum: str
    chi: tuple
    multiplicities: tuple    # ((alpha, n_alpha), ...) over the wall set, sorted
    verdict: bool
    r_w: int
    m: int
    period: int
    convention: str = CONVENTION


@dataclass(frozen=True)
class SectionCone:
    stratum: str
    lattice: str
    basis: tuple             # ambient integer vectors spanning the lattice
    walls: tuple             # the roots indexing the inequalities
    ambient_rows: tuple      # n_alpha coefficient rows over ambient coordinates
    reduced_rows: tuple      # rows over the basis coordinates
    feasible: bool
    witness: Optional[tuple]          # ambient integral character
    certificate: Optional[tuple]      # multipliers over reduced_rows


@dataclass(frozen=True)
class PurityVerdict:
    """The verdicts that `purity` and every `scan` cell print alike."""
    principally_pure: bool
    uniformly_pure: bool
    uniform_witness: Optional[tuple]
    uniform_certificate: Optional[tuple]
    failing_strata: tuple    # the labels of the strata whose section cone is infeasible


@dataclass(frozen=True)
class PurityReport(PurityVerdict):
    """A `PurityVerdict` with every stratum's section cone behind it."""
    datum: dict
    lattice: str
    strata: tuple            # SectionCone per stratum
    ample_close_char: Optional[tuple]
    convention: str = CONVENTION


# -- character tests ---------------------------------------------------------------

def character_tests(rd: RootDatum, chi: Vec, q: int) -> CharacterVerdict:
    """q-smallness and orbital q-closeness with explicit witnesses."""
    if q < 2:
        raise SectionError("q must be at least 2")
    chi = tuple(chi)
    witnesses = {}
    q_small = True
    for a in sorted(rd.roots):
        v = abs(dot(chi, rd.coroot(a)))
        if v > q - 1:
            q_small = False
            witnesses["q_small"] = {"root": a, "pairing": dot(chi, rd.coroot(a))}
            break
    far = _far_orbit(rd, chi, q)
    if far is not None:
        witnesses["orbitally_q_close"] = far
    return CharacterVerdict(chi=chi, q=q, q_small=q_small,
                            orbitally_q_close=far is None, witnesses=witnesses)


def _far_orbit(rd: RootDatum, chi: tuple, q: int) -> Optional[dict]:
    """The witness of the first coroot orbit on which chi is not q-close, its
    largest pairing above q - 1 times its least nonzero one, or None when
    chi is orbitally q-close."""
    for orbit in rd.coroot_orbits:
        vals = [(abs(dot(chi, u)), u) for u in orbit]
        nonzero = [t for t in vals if t[0] != 0]
        if not nonzero:
            continue
        hi = max(vals)
        lo = min(nonzero)
        if hi[0] > (q - 1) * lo[0]:
            return {"coroot_max": hi[1], "pairing_max": hi[0],
                    "coroot_min": lo[1], "pairing_min": lo[0]}
    return None


def _ample_transports(Z: ZipDatum) -> tuple:
    """The pairs (i, gamma^{-n}(z)(alpha_i^vee)) over the simple roots alpha_i
    outside gamma^{-n}(J), sorted by i."""
    rd, wg = Z.rd, Z.wg
    zt = wg.galois(Z.z, -Z.n)
    outside = set(range(rd.num_simple)) - {rd.galois.perm(j, -Z.n) for j in Z.J}
    return tuple((i, rd.coroot(wg.root_image(zt, rd.simple_roots[i])))
                 for i in sorted(outside))


def ampleness(Z: ZipDatum, chi: Vec) -> Tuple[bool, dict]:
    """Strict negativity of chi against the z-transported coroots of the simple
    roots outside gamma^{-n}(J)."""
    chi = tuple(chi)
    for i, t in _ample_transports(Z):
        v = dot(chi, t)
        if v >= 0:
            return False, {"simple_root": i + 1, "pairing": v}
    return True, {}


def flag_ampleness(FZ: ZipDatum, chi: Vec) -> Tuple[bool, dict]:
    """Positivity on I \\ I0 and negativity on the positive roots outside the
    Levi of P (the cocharacter-type characterization), for a flag level of
    type I0 over a base of type I."""
    Z = _flag_base(FZ)
    rd = Z.rd
    chi = tuple(chi)
    for i in sorted(set(Z.I) - set(FZ.I)):
        v = dot(chi, rd.coroot(rd.simple_roots[i]))
        if v <= 0:
            return False, {"simple_root": i + 1, "pairing": v}
    levi_pos = rd.levi_positive(Z.I)
    for a in rd.positive:
        if a in levi_pos:
            continue
        v = dot(chi, rd.coroot(a))
        if v >= 0:
            return False, {"root": a, "pairing": v}
    return True, {}


# -- twisted powers and the multiplicity sum -----------------------------------------

def r_w(Z: ZipDatum, w: tuple) -> Tuple[int, int]:
    """Least r >= 1 with (w gamma^n(z))^(r) = e, and m = the galois order; the
    sigma-twisted power is v^(0) = e, v^(r) = gamma^{-1}(v^(r-1) v)."""
    wg = Z.wg
    v = wg.compose(w, wg.galois(Z.z, Z.n))
    acc = wg.e
    for r in range(1, wg.order() * Z.rd.galois.order + 2):
        acc = wg.galois(wg.compose(acc, v), -1)     # v^(r) from v^(r-1)
        if acc == wg.e:
            return r, Z.rd.galois.order
    raise AssertionError("twisted power recursion failed to close")


class _ConeData:
    """The part of a datum's cone data that p does not change, so that every
    prime of a scan shares it: the loop tail z^{-1} o gamma^{-n}, the root
    permutation that ends the loop sigma of every stratum; the radical order;
    the coroot of each indexed root; the Levi lattice basis (`levi`, the
    `cones.kernel_basis` of the coroots of I); `columns`, each root's coroot
    followed by its pairings with the Levi basis (the coroot alone when the
    Levi basis is the standard one); and, each built on first use, each
    stratum's entry (`stratum`) and the ample cone's rows.  The stratum
    labels are the group's, `min_coset_reps(I)`.

    The radical order is the order of gamma^n on X_0, the characters that
    vanish on every coroot.  gamma permutes the coroots, so gamma^n maps X_0 to
    itself; a linear map fixes X_0 exactly when it fixes each vector of a
    rational basis, so the order is the lcm of the periods of the
    `cones.kernel_basis` vectors under gamma^n.  A vector of period P under
    gamma has period P / gcd(P, n) under gamma^n, so each P is found one gamma
    step at a time, whatever n is.  On split data the order is 1.
    """

    def __init__(self, Z: ZipDatum):
        g, order = Z.rd.galois, 1
        for v in cones.kernel_basis(Z.rd.simple_coroots, Z.rd.rank):
            u, period = g.char(v), 1
            while u != v:
                u, period = g.char(u), period + 1
            order = lcm(order, period // gcd(period, Z.n))
        self.tail = _mul(_inverse(Z.z), Z.wg.galois_perm(-Z.n))
        self.radical_order = order
        self.coroots = tuple(map(Z.rd.coroot, Z.wg._roots))
        self.levi = levi = tuple(cones.kernel_basis(_lattice_equations(Z, "levi"), Z.rd.rank))
        self.columns = self.coroots if len(levi) == Z.rd.rank else tuple(
            c + tuple(dot(c, b) for b in levi) for c in self.coroots)
        self.ample = None
        self.strata = {}

    def stratum(self, Z: ZipDatum, w: tuple) -> tuple:
        """The entry (label, walls, T, starts) of the stratum w, built once,
        whole, and never changed: its display label, its walls
        (`lower_reflections`), its loop order T and the root index of each
        wall's start w(-alpha) (`_wall_root`), in the order of the walls.  A w
        that is not a stratum label of the datum raises SectionError.

        T is the order of the root permutation sigma = w o z^{-1} o gamma^{-n},
        the adjoint L^t of the character-side loop operator
        L = gamma^n o z o w^{-1}: L^t sends the coroot of b to the coroot of
        sigma(b).  L acts on the root span through sigma^{-1} and on X_0 as
        gamma^n (W fixes X_0 pointwise), so T = lcm(the cycle order of sigma,
        the order of gamma^n on X_0).  sigma is linear, so it maps the negative
        of a cycle to a cycle of the same length, and the cycles through the
        positive roots, the first half of the indices, give every length.
        """
        found = self.strata.get(w)
        if found is None:
            wg = Z.wg
            if not (wg.is_min_left(w, Z.I) or wg.is_min_right(w, Z.J)):
                raise SectionError("w is not a stratum label for this datum")
            sigma, T, seen = _mul(w, self.tail), self.radical_order, set()
            for start in range(len(sigma) // 2):
                j, length = start, 0
                while j not in seen:
                    seen.add(j)
                    j, length = sigma[j], length + 1
                T = lcm(T, length) if length else T
            walls = wg.lower_reflections(w)
            found = self.strata[w] = (wg.describe(w), walls, T,
                                      tuple(_wall_root(Z, w, alpha) for alpha in walls))
        return found


def _cone_data(Z: ZipDatum) -> _ConeData:
    """The `_ConeData` of Z, built once per Weyl group and (I, J, n, z), in
    the group's `_memo`."""
    key = ("cone", Z.I, Z.J, Z.n, Z.z)
    data = Z.wg._memo.get(key)
    if data is None:
        data = Z.wg._memo[key] = _ConeData(Z)
    return data


def _wall_root(Z: ZipDatum, w: tuple, alpha: Vec) -> int:
    """The root index of w(-alpha), whose coroot is the wall transport
    (w s_alpha)(alpha^vee) = w(-alpha^vee) of the wall coroot: -alpha has
    index j + N for the positive index j of alpha and N positive roots."""
    wg = Z.wg
    return w[wg._index[alpha] + wg._npos]


def n_alpha(Z: ZipDatum, w: tuple, chi: Vec, alpha: Vec) -> int:
    """The wall multiplicity for the stratum w and wall alpha (in E_w): chi
    paired with the wall's row from `_wall_rows`.  Linear in chi; exact integer."""
    if alpha not in _cone_data(Z).stratum(Z, w)[1]:
        raise SectionError("alpha is not a wall of the stratum")
    (row,), _T = _wall_rows(Z, w, (alpha,))
    return dot(row, chi)


def _wall_rows(Z: ZipDatum, w: tuple, walls: Optional[Sequence] = None,
               levi: bool = False) -> Tuple[tuple, int]:
    """The n_alpha coefficient rows over ambient coordinates, one per wall, and
    the loop order T.  Each row is the adjoint form sum_{i<T} q^i (L^t)^i c of
    the sum in n_alpha, where c, the wall transport, is the coroot of the root
    `_wall_root` gives.  L^t = w o z^{-1} o gamma^{-n} sends coroots to coroots
    through the root permutation sigma of `_ConeData.stratum`, so the row is
    sum_{i<T} q^i coroot(sigma^i(w(-alpha))): a walk over root indices from
    each wall's start.  T and the starts come from the stratum's entry
    (`_ConeData.stratum`): all its walls', or those of `walls`, a sequence of
    its walls.  Only the q-powers, the walks and the simplex depend on p, and
    rows past `ROW_BIT_CAP` are refused before any orbit is walked.

    With `levi`, each row goes on with its pairings with the Levi basis: the
    walk sums `_ConeData.columns`, so one walk gives both rows, exactly, since
    a row's pairing is linear in it."""
    q, data = Z.q, _cone_data(Z)
    label, own, T, starts = data.stratum(Z, w)
    if walls is not None and walls != own:
        starts = tuple(starts[own.index(alpha)] for alpha in walls)
    if not starts:
        return (), T
    if T * q.bit_length() > ROW_BIT_CAP:
        raise SectionError("the loop order T = %d of stratum %s times the bit length %d "
                           "of q is %d, more than the cap %d on wall-row bits"
                           % (T, label, q.bit_length(), T * q.bit_length(), ROW_BIT_CAP))
    sigma, columns = _mul(w, data.tail), data.columns if levi else data.coroots
    powers, rows = [q ** i for i in range(T)], []
    for j in starts:
        orbit = []
        for _ in range(T):
            orbit.append(columns[j])
            j = sigma[j]
        rows.append(tuple([sum(map(mul, powers, col)) for col in zip(*orbit)]))
    return tuple(rows), T


def char_section_verdict(Z: ZipDatum, w: tuple, chi: Vec) -> SectionVerdict:
    """All wall multiplicities of the stratum, and their joint positivity."""
    label, walls, _T, _starts = _cone_data(Z).stratum(Z, w)
    rows, T = _wall_rows(Z, w)
    mults = tuple((a, dot(row, chi)) for a, row in zip(walls, rows))
    r, m = r_w(Z, w)
    return SectionVerdict(stratum=label, chi=tuple(chi),
                          multiplicities=mults,
                          verdict=all(v > 0 for _a, v in mults),
                          r_w=r, m=m, period=T)


# -- cones and purity ------------------------------------------------------------------

def _lattice_equations(Z: ZipDatum, lattice: str) -> List[tuple]:
    """The coroots a character of the lattice pairs to zero with."""
    if lattice == "torus":
        return []
    if lattice == "levi":
        return [Z.rd.coroot(Z.rd.simple_roots[i]) for i in Z.I]
    raise SectionError("lattice must be 'torus' or 'levi'")


def _lattice_basis(Z: ZipDatum, lattice: str) -> tuple:
    """The `cones.kernel_basis` of the lattice; the Levi one is the datum's
    `_ConeData.levi`.  With no equations (always under 'torus', and under
    'levi' when I is empty) it is the standard basis, and only then does it
    have rank-many vectors."""
    eqs = _lattice_equations(Z, lattice)
    return _cone_data(Z).levi if lattice == "levi" else tuple(cones.kernel_basis(eqs, Z.rd.rank))


def _expand(t: tuple, basis: tuple, rank: int) -> tuple:
    """The ambient character sum_k t_k b_k; over the standard basis, t itself."""
    if len(basis) == rank:
        return t
    return tuple(sum(t[k] * basis[k][j] for k in range(len(basis))) for j in range(rank))


def _stratum_rows(Z: ZipDatum, w: tuple, basis: tuple) -> tuple:
    """w and the rows of all its walls, over ambient coordinates and over the
    basis; over the standard basis they are the same, and otherwise the basis
    is the Levi one, whose rows the same walk gives."""
    rank = Z.rd.rank
    if len(basis) == rank:
        ambient, _T = _wall_rows(Z, w)
        return w, ambient, ambient
    rows, _T = _wall_rows(Z, w, None, True)
    return w, tuple([r[:rank] for r in rows]), tuple([r[rank:] for r in rows])


def _solve_cone(Z: ZipDatum, lattice: str, basis: tuple,
                w: tuple, ambient: tuple, reduced: tuple) -> SectionCone:
    """The section cone of one stratum's rows; its witness is replayed on them."""
    label, walls, _T, _starts = _cone_data(Z).stratum(Z, w)
    res = cones.feasible_strict(reduced, len(basis))
    witness = None
    if res.feasible:
        witness = _expand(res.witness, basis, Z.rd.rank)
        if not _positive_on(ambient, witness):
            raise AssertionError("cone witness fails its own inequalities")
    return SectionCone(stratum=label, lattice=lattice, basis=basis,
                       walls=walls, ambient_rows=ambient, reduced_rows=reduced,
                       feasible=res.feasible, witness=witness,
                       certificate=res.certificate)


def section_cone(Z: ZipDatum, w: tuple, lattice: str = "levi") -> SectionCone:
    """Exact feasibility of {n_alpha(chi) > 0} over the chosen character lattice."""
    basis = _lattice_basis(Z, lattice)
    return _solve_cone(Z, lattice, basis, *_stratum_rows(Z, w, basis))


def _positive_on(rows, chi) -> bool:
    """chi is strictly positive on every row: the stratum verdicts of
    `char_section_verdict`, from rows already built."""
    return all(sum(map(mul, row, chi)) > 0 for row in rows)


def _ample_close_char(Z: ZipDatum, data: _ConeData, ambient: list) -> Optional[tuple]:
    """An ample, orbitally q-close Levi character chi = sum_k c_k b_k, or None
    when there is none: the point of one cone, replayed on the ample rows,
    through the orbit test of `character_tests` (`_far_orbit`) and on every
    stratum's `ambient` rows, or the cone's verified Motzkin certificate.
    chi is ample when c is positive on the strict rows (-<b_k, t>)_k over the
    transports t of `_ample_transports`, and then orbitally q-close when
    (q - 1) r_u - r_v >= 0 at c over each coroot orbit, for its coroots u and
    those v with zt^{-1}(v) dominant, where r_u = s_u (<b_k, u>)_k is nonzero.
    Without ample rows every Levi character is ample and kills every coroot,
    and chi = -sum_k b_k; a Levi lattice of rank 0 has none.

    The sign rule: with zt = gamma^{-n}(z) and J' = gamma^{-n}(J), on the
    ample cone s_u = sign <chi, u> is 0 when the root beta = zt^{-1}(u) has
    its support in J', and otherwise minus the sign of beta.  Proof:
    mu = -zt^{-1}(chi) has <mu, alpha_i^vee> = -<chi, zt(alpha_i^vee)>, > 0 for
    i outside J' and 0 for i in J', where zt(alpha_i^vee) is a Levi coroot
    (the assertion below checks this).  So the ample cone is -zt of an open
    face of type J' of the dominant chamber, which no root hyperplane crosses:
    <chi, u> = -<mu, beta^vee> sums the <mu, alpha_i^vee> with coefficients of
    the sign of beta.  On an orbit under W and gamma, which zt^{-1} maps onto
    itself, |<mu, beta^vee>| is largest at a dominant beta^vee: the dominant x
    in the W-orbit of a coroot y has x - y >= 0 on simple coroots.
    """
    levi, rd, wg = data.levi, Z.rd, Z.wg
    if not levi:
        return None
    if data.ample is None:
        pairs = _ample_transports(Z)
        outside, zt_inverse = {i for i, _t in pairs}, _inverse(wg.galois(Z.z, -Z.n))
        index, npos, orbits = {c: j for j, c in enumerate(data.coroots)}, len(rd.positive), []
        for orbit in rd.coroot_orbits:
            close, high = {}, {}
            for j in map(index.__getitem__, orbit):
                b, row = zt_inverse[j], data.columns[j][rd.rank:] or data.coroots[j]  # Levi row
                sign = ((-1 if b < npos else 1)
                        if any(rd.coeffs_of[wg._roots[b]][i] for i in outside) else 0)
                if (sign == 0) == any(row):
                    raise AssertionError("a coroot's Levi row and ample-cone sign disagree")
                if sign:
                    close[row := tuple(sign * x for x in row)] = None
                    if b < npos and all(dot(a, data.coroots[b]) >= 0 for a in rd.simple_roots):
                        high[row] = None
            orbits.append((tuple(close), tuple(high)))
        data.ample = pairs, tuple(tuple(-dot(b, t) for b in levi) for _i, t in pairs), orbits
    pairs, strict, orbits = data.ample
    c = (-1,) * len(levi)
    if strict:
        weak = [tuple((Z.q - 1) * x - y for x, y in zip(u, v))
                for close, high in orbits for u in close for v in high]
        res = cones.feasible_strict(strict, len(levi), weak)
        if not res.feasible:
            if not cones.verify_certificate(strict, res.certificate, weak):
                raise AssertionError("the ample cone's certificate does not verify")
            return None
        c = res.witness
    chi = _expand(c, levi, rd.rank)
    if not (all(dot(chi, t) < 0 for _i, t in pairs) and _positive_on(ambient, chi)
            and _far_orbit(rd, chi, Z.q) is None):
        raise AssertionError("the ample cone's point is not ample, orbitally q-close and "
                             "positive on every stratum; convention error")
    return chi


def _uniform_purity(Z: ZipDatum, lattice: str, candidates: Sequence):
    """What `purity_report` and `purity_verdict` share: every stratum's rows
    (`_stratum_rows`), the uniform cone over all of them, the candidates, and
    the ample, orbitally q-close character (`_ample_close_char`).  Returns the
    basis, the rows per stratum, the uniform cone's `Feasibility`, the uniform witness
    and the ample, orbitally q-close character.  The uniform witness, whichever
    it is, has been replayed on every stratum's ambient rows."""
    rd, data = Z.rd, _cone_data(Z)
    basis = _lattice_basis(Z, lattice)
    per = [_stratum_rows(Z, w, basis) for w in Z.wg.min_coset_reps(Z.I, "left")]
    ambient = [row for s in per for row in s[1]]
    res = cones.feasible_strict(ambient if len(basis) == rd.rank
                                else [row for s in per for row in s[2]], len(basis))
    uniform_witness = None
    if res.feasible:
        uniform_witness = _expand(res.witness, basis, rd.rank)
        if not _positive_on(ambient, uniform_witness):
            raise AssertionError("uniform witness fails a stratum's inequalities")

    # verified candidate characters take precedence as the uniform witness
    eqs = _lattice_equations(Z, lattice)
    for cand in candidates:
        cand = tuple(cand)
        if any(dot(cand, e) != 0 for e in eqs):
            continue
        if _positive_on(ambient, cand):
            if not res.feasible:
                raise AssertionError("candidate witness contradicts cone infeasibility")
            uniform_witness = cand
            break

    # the sufficient condition covers Levi characters only, whatever the lattice
    ample_close = _ample_close_char(Z, data, ambient)
    if ample_close is not None and not res.feasible:
        raise AssertionError("sufficient condition met but the uniform cone "
                             "is infeasible; convention error")
    return basis, per, res, uniform_witness, ample_close


def purity_report(Z: ZipDatum, lattice: str = "levi",
                  candidates: Sequence = ()) -> PurityReport:
    """Every stratum's section cone, the uniform intersection cone, and an
    ample, orbitally q-close character, or None when there is none.

    Every section cone is solved, and each witness it finds is replayed on its
    stratum's rows.  On a flag level the lattice 'levi' means characters of
    its own, small Levi.
    """
    basis, per, res, uniform_witness, ample_close = _uniform_purity(Z, lattice, candidates)
    strata = tuple(_solve_cone(Z, lattice, basis, *s) for s in per)
    failing = tuple(c.stratum for c in strata if not c.feasible)
    return PurityReport(principally_pure=not failing, uniformly_pure=res.feasible,
                        uniform_witness=uniform_witness,
                        uniform_certificate=res.certificate, failing_strata=failing,
                        datum=Z.describe(), lattice=lattice, strata=strata,
                        ample_close_char=ample_close)


def purity_verdict(Z: ZipDatum, lattice: str = "levi",
                   candidates: Sequence = ()) -> PurityVerdict:
    """The verdicts of `purity_report`, solving only what they need.

    A uniform witness is positive on every stratum's walls, so when the uniform
    cone is feasible every section cone is too: its witness, replayed on every
    stratum's rows, certifies principal purity, and no per-stratum simplex
    runs.  Only an infeasible uniform cone can leave a stratum failing.  Then
    a stratum is certified feasible, with no simplex, by any of the last
    `WITNESS_LIST` section-cone witnesses that is strictly positive on its
    ambient rows: every witness lies in the chosen lattice, so it is a point
    of the stratum's cone.  The list is kept move-to-front, and only the
    strata that none of its witnesses certifies have their cone solved.
    """
    basis, per, res, uniform_witness, _ample = _uniform_purity(Z, lattice, candidates)
    failing, witnesses = [], []
    for s in () if res.feasible else per:
        k = next((k for k, chi in enumerate(witnesses) if _positive_on(s[1], chi)), None)
        if k is not None:
            witnesses.insert(0, witnesses.pop(k))
            continue
        cone = _solve_cone(Z, lattice, basis, *s)
        if cone.feasible:
            witnesses.insert(0, cone.witness)
            del witnesses[WITNESS_LIST:]
        else:
            failing.append(cone.stratum)
    return PurityVerdict(principally_pure=not failing, uniformly_pure=res.feasible,
                         uniform_witness=uniform_witness,
                         uniform_certificate=res.certificate, failing_strata=tuple(failing))


# -- the GL_n block certificate ---------------------------------------------------------

@dataclass(frozen=True)
class GlnCertificate:
    blocks: tuple
    q: int
    lam: tuple
    verdict: CharacterVerdict
    datum: ZipDatum


def gln_certificate(blocks: Sequence[int], q: int) -> GlnCertificate:
    """The staircase block character (r, r-1, ..., 1) for a GL_N block Levi.

    Always zip-ample; orbitally q-close exactly when q is at least the number
    of blocks.
    """
    blocks = tuple(int(b) for b in blocks)
    if not blocks or any(b < 1 for b in blocks):
        raise SectionError("blocks must be positive integers")
    N = sum(blocks)
    p, n = prime_power(q)
    rd = build_root_datum("GL%d" % N)
    boundaries = set()
    acc = 0
    for b in blocks[:-1]:
        acc += b
        boundaries.add(acc - 1)   # 0-based index of the simple root cut there
    I = tuple(i for i in range(N - 1) if i not in boundaries)
    Z = zip_from_cochar(rd, I=I, n=n, p=p)
    r = len(blocks)
    lam = []
    for k, b in enumerate(blocks):
        lam += [r - k] * b
    lam = tuple(lam)
    base = character_tests(rd, lam, q)
    amp, wit = ampleness(Z, lam)
    witnesses = dict(base.witnesses)
    if not amp:
        witnesses["zip_ample"] = wit
    verdict = CharacterVerdict(chi=lam, q=q, q_small=base.q_small,
                               orbitally_q_close=base.orbitally_q_close,
                               zip_ample=amp, witnesses=witnesses)
    return GlnCertificate(blocks=blocks, q=q, lam=lam, verdict=verdict, datum=Z)
