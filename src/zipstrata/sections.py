"""Character tests, Frobenius-twisted Weyl powers, the section multiplicities
n_alpha, per-stratum section cones and purity reports.

Convention note.  The multiplicity of a stratum section along the wall of a
lower neighbor w s_alpha is computed as

    n_alpha(chi) = sum_{i=0}^{T-1}  q^i * < L^i chi, (w s_alpha)(alpha^vee) >

where L is the character-side loop operator gamma^n o z o w^{-1} (the
Frobenius acts on characters as q times gamma^n), q = p^n, and T is the order
of L.  This is the calibrated reading: on the Sp(6) reference stratum the
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
from itertools import product as iproduct
from typing import List, Optional, Sequence, Tuple

from . import cones
from .rootsystem import RootDatum, Vec, _identity, _mat_mul, _mat_vec, dot
from .weyl import WeylElt
from .zipdatum import (FlaggedZipDatum, ZipDatum, prime_power,
                       zip_from_cochar)

CONVENTION = "loop(z*w^-1)/wall-transport/base(q)"


class SectionError(ValueError):
    pass


@dataclass(frozen=True)
class CharacterVerdict:
    chi: tuple
    q: int
    q_small: bool
    orbitally_q_close: bool
    zip_ample: Optional[bool] = None
    flag_ample: Optional[bool] = None
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
class PurityReport:
    datum: dict
    lattice: str
    strata: tuple            # SectionCone per stratum
    principally_pure: bool
    uniformly_pure: bool
    uniform_witness: Optional[tuple]
    uniform_certificate: Optional[tuple]
    ample_close_char: Optional[tuple]
    box_radius: int
    convention: str = CONVENTION

    def failing_strata(self) -> tuple:
        return tuple(c.stratum for c in self.strata if not c.feasible)


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
    close = True
    for orbit in rd.coroot_orbits:
        vals = [(abs(dot(chi, u)), u) for u in orbit]
        nonzero = [t for t in vals if t[0] != 0]
        if not nonzero:
            continue
        hi = max(vals)
        lo = min(nonzero)
        if hi[0] > (q - 1) * lo[0]:
            close = False
            witnesses["orbitally_q_close"] = {
                "coroot_max": hi[1], "pairing_max": hi[0],
                "coroot_min": lo[1], "pairing_min": lo[0],
            }
            break
    return CharacterVerdict(chi=chi, q=q, q_small=q_small,
                            orbitally_q_close=close, witnesses=witnesses)


def ampleness(Z: ZipDatum, chi: Vec) -> Tuple[bool, dict]:
    """Strict negativity of chi against the z-transported coroots of the simple
    roots outside gamma^{-n}(J)."""
    rd, wg = Z.rd, Z.wg
    chi = tuple(chi)
    zt = wg.galois(Z.z, -Z.n)
    outside = set(range(rd.num_simple)) - {rd.galois.perm(j, -Z.n) for j in Z.J}
    for i in sorted(outside):
        t = wg.act(zt, rd.coroot(rd.simple_roots[i]), "cochar")
        v = dot(chi, t)
        if v >= 0:
            return False, {"simple_root": i + 1, "pairing": v}
    return True, {}


def flag_ampleness(FZ: FlaggedZipDatum, chi: Vec) -> Tuple[bool, dict]:
    """Positivity on I \\ I0 and negativity on the positive roots outside the
    Levi of P (the cocharacter-type characterization)."""
    Z = FZ.base
    rd = Z.rd
    chi = tuple(chi)
    for i in sorted(set(Z.I) - set(FZ.I0)):
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

def twist_power(Z: ZipDatum, w: WeylElt, r: int) -> WeylElt:
    """The sigma-twisted power w^(r): w^(0) = e, w^(r) = gamma^{-1}(w^(r-1) w)."""
    if r < 0:
        raise SectionError("twist power needs r >= 0")
    wg = Z.wg
    out = wg.e
    for _ in range(r):
        out = wg.galois(wg.compose(out, w), -1)
    return out


def r_w(Z: ZipDatum, w: WeylElt) -> Tuple[int, int]:
    """Least r >= 1 with (w gamma^n(z))^(r) = e, and m = the galois order."""
    wg = Z.wg
    v = wg.compose(w, wg.galois(Z.z, Z.n))
    r = 1
    acc = twist_power(Z, v, 1)
    bound = wg.order() * Z.rd.galois.order + 1
    while acc != wg.e:
        r += 1
        acc = twist_power(Z, v, r)
        if r > bound:
            raise AssertionError("twisted power recursion failed to close")
    return r, Z.rd.galois.order


def _loop_matrix(Z: ZipDatum, w: WeylElt) -> tuple:
    """Matrix of the character-side loop operator gamma^n o z o w^{-1}.

    This is the transport forced by the stratum equivariance (the Frobenius
    acts on characters as q times gamma^n); on split data it is plain z w^{-1}.
    """
    wg = Z.wg
    m = _mat_mul(Z.z.mat, wg.inverse(w).mat)
    g = Z.rd.galois
    for _ in range(Z.n % g.order):
        m = _mat_mul(g.char_matrix, m)
    return m


def _loop_period(Z: ZipDatum, loop_mat: tuple) -> int:
    """Least T with the loop operator to the T-th power equal to the identity."""
    ident = _identity(Z.rd.rank)
    acc = loop_mat
    T = 1
    bound = Z.wg.order() * Z.rd.galois.order + 1
    while acc != ident:
        acc = _mat_mul(acc, loop_mat)
        T += 1
        if T > bound:
            raise AssertionError("loop operator failed to close")
    return T


def _wall_transport(Z: ZipDatum, w: WeylElt, alpha: Vec) -> Vec:
    """The wall-element image (w s_alpha)(alpha^vee) of the wall coroot."""
    wg = Z.wg
    ws = wg.compose(w, wg.reflection(alpha))
    return wg.act(ws, Z.rd.coroot(alpha), "cochar")


def _stratum_label_ok(Z: ZipDatum, w: WeylElt) -> bool:
    wg = Z.wg
    return wg.is_min_left(w, Z.I) or wg.is_min_right(w, Z.J)


def n_alpha(Z: ZipDatum, w: WeylElt, chi: Vec, alpha: Vec, periods: int = 1) -> int:
    """The wall multiplicity for the stratum w and wall alpha (in E_w).

    Linear in chi; exact integer.  `periods` repeats the summation window and
    multiplies the result by a positive geometric factor (used by the period
    stability checks).
    """
    wg = Z.wg
    if not _stratum_label_ok(Z, w):
        raise SectionError("w is not a stratum label for this datum")
    if alpha not in set(wg.lower_reflections(w)):
        raise SectionError("alpha is not a wall of the stratum")
    if periods < 1:
        raise SectionError("periods must be >= 1")
    loop = _loop_matrix(Z, w)
    T = _loop_period(Z, loop)
    target = _wall_transport(Z, w, alpha)
    q = Z.q
    total = 0
    v = tuple(chi)
    for i in range(T * periods):
        total += dot(v, target) * q ** i
        v = _mat_vec(loop, v)
    return total


def char_section_verdict(Z: ZipDatum, w: WeylElt, chi: Vec) -> SectionVerdict:
    """All wall multiplicities of the stratum, and their joint positivity."""
    wg = Z.wg
    if not _stratum_label_ok(Z, w):
        raise SectionError("w is not a stratum label for this datum")
    walls = wg.lower_reflections(w)
    mults = tuple((a, n_alpha(Z, w, chi, a)) for a in walls)
    r, m = r_w(Z, w)
    T = _loop_period(Z, _loop_matrix(Z, w))
    return SectionVerdict(stratum=wg.describe(w), chi=tuple(chi),
                          multiplicities=mults,
                          verdict=all(v > 0 for _a, v in mults),
                          r_w=r, m=m, period=T)


# -- cones and purity ------------------------------------------------------------------

def _lattice_basis(Z: ZipDatum, lattice: str) -> List[tuple]:
    rd = Z.rd
    n = rd.rank
    if lattice == "torus":
        eqs = []
    elif lattice == "levi":
        eqs = [rd.coroot(rd.simple_roots[i]) for i in Z.I]
    else:
        raise SectionError("lattice must be 'torus' or 'levi'")
    basis = cones.kernel_basis(eqs, n)
    return basis


def section_cone(Z: ZipDatum, w: WeylElt, lattice: str = "levi") -> SectionCone:
    """Exact feasibility of {n_alpha(chi) > 0} over the chosen character lattice."""
    wg, rd = Z.wg, Z.rd
    if not _stratum_label_ok(Z, w):
        raise SectionError("w is not a stratum label for this datum")
    walls = wg.lower_reflections(w)
    unit = [tuple(1 if k == j else 0 for k in range(rd.rank)) for j in range(rd.rank)]
    ambient = tuple(tuple(n_alpha(Z, w, unit[j], a) for j in range(rd.rank))
                    for a in walls)
    basis = _lattice_basis(Z, lattice)
    reduced = tuple(tuple(dot(row, b) for b in basis) for row in ambient)
    res = cones.feasible_strict(reduced, len(basis))
    witness = None
    if res.feasible:
        t = res.integral_point()
        witness = tuple(sum(t[k] * basis[k][j] for k in range(len(basis)))
                        for j in range(rd.rank))
        for row in ambient:
            if walls and dot(row, witness) <= 0:
                raise AssertionError("cone witness fails its own inequalities")
    return SectionCone(stratum=wg.describe(w), lattice=lattice, basis=tuple(basis),
                       walls=walls, ambient_rows=ambient, reduced_rows=reduced,
                       feasible=res.feasible, witness=witness,
                       certificate=res.certificate)


def _box_points(basis, radius):
    """Nonzero lattice points in the box, ordered by (sup-norm, lex)."""
    m = len(basis)
    pts = []
    for coeffs in iproduct(range(-radius, radius + 1), repeat=m):
        if all(c == 0 for c in coeffs):
            continue
        pts.append(coeffs)
    pts.sort(key=lambda c: (max(abs(x) for x in c), c))
    n = len(basis[0]) if basis else 0
    for coeffs in pts:
        yield tuple(sum(coeffs[k] * basis[k][j] for k in range(m)) for j in range(n))


def purity_report(obj, lattice: str = "levi", box: int = 2,
                  candidates: Sequence = ()) -> PurityReport:
    """Per-stratum section cones, the uniform intersection cone, and the
    sufficient-condition search for an ample, orbitally q-close character.

    For a flagged datum the cones are taken over the induced datum, so the
    lattice 'levi' means characters of the small Levi.
    """
    if isinstance(obj, FlaggedZipDatum):
        Z = obj.Z0
    elif isinstance(obj, ZipDatum):
        Z = obj
    else:
        raise SectionError("purity_report expects a ZipDatum or FlaggedZipDatum")
    wg, rd = Z.wg, Z.rd
    reps = wg.min_coset_reps(Z.I, "left")
    per = [section_cone(Z, w, lattice) for w in reps]

    basis = _lattice_basis(Z, lattice)
    all_rows = [row for c in per for row in c.reduced_rows]
    res = cones.feasible_strict(all_rows, len(basis))
    uniform_witness = None
    if res.feasible:
        t = res.integral_point()
        uniform_witness = tuple(sum(t[k] * basis[k][j] for k in range(len(basis)))
                                for j in range(rd.rank))

    # verified candidate characters take precedence as the uniform witness
    for cand in candidates:
        cand = tuple(cand)
        eqs = [rd.coroot(rd.simple_roots[i]) for i in Z.I] if lattice == "levi" else []
        if any(dot(cand, e) != 0 for e in eqs):
            continue
        if all(char_section_verdict(Z, w, cand).verdict for w in reps):
            if not res.feasible:
                raise AssertionError("candidate witness contradicts cone infeasibility")
            uniform_witness = cand
            break

    ample_close = None
    for chi in _box_points(basis, box):
        amp, _w1 = ampleness(Z, chi)
        if not amp:
            continue
        if not character_tests(rd, chi, Z.q).orbitally_q_close:
            continue
        ample_close = chi
        break
    if ample_close is not None:
        for w in reps:
            if not char_section_verdict(Z, w, ample_close).verdict:
                raise AssertionError(
                    "ample orbitally q-close character fails a stratum verdict; "
                    "convention error")
        if not res.feasible:
            raise AssertionError("sufficient condition met but the uniform cone "
                                 "is infeasible; convention error")
        if uniform_witness is None:
            uniform_witness = ample_close

    return PurityReport(datum=Z.describe(), lattice=lattice, strata=tuple(per),
                        principally_pure=all(c.feasible for c in per),
                        uniformly_pure=res.feasible,
                        uniform_witness=uniform_witness,
                        uniform_certificate=res.certificate,
                        ample_close_char=ample_close, box_radius=box)


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
    from .rootsystem import build_root_datum
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
