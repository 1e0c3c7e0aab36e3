"""Combinatorial zip data: parabolic types I and J, the frame element z, the
induced sub-datum attached to a smaller parabolic type, and dimension counts.

A datum records the roots of the second parabolic explicitly (`q_roots`), so
frame validation can check the containment axiom and induced data can inherit
the correct parabolic position.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .rootsystem import RootDatum, Vec, dot, vneg
from .weyl import WeylElt, WeylGroup


class ZipDatumError(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for the sizes used here (< 3.3e24)."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_power(q: int):
    """Decompose q = p^n with p prime; raises if q is not a prime power."""
    if q < 2:
        raise ZipDatumError("q must be >= 2")
    p = q
    d = 2
    while d * d <= q:
        if q % d == 0:
            p = d
            break
        d += 1
    n, m = 0, q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1 or not is_prime(p):
        raise ZipDatumError("%d is not a prime power" % q)
    return p, n


@dataclass(frozen=True, eq=False)
class ZipDatum:
    """Shadow (I, J, z, gamma, n, p) of a zip datum, plus the roots of Q."""

    rd: RootDatum
    wg: WeylGroup
    n: int
    p: int
    I: tuple                 # sorted 0-based indices into the simple roots
    J: tuple
    z: WeylElt
    q_roots: frozenset       # root set of the second parabolic

    @property
    def q(self) -> int:
        return self.p ** self.n

    def gal_type(self, K: Sequence[int], k: Optional[int] = None) -> tuple:
        """gamma^k image of a subset of the simple-root indices (default k = n)."""
        k = self.n if k is None else k
        return tuple(sorted(self.rd.galois.perm(i, k) for i in K))

    def describe(self) -> dict:
        wg = self.wg
        return {
            "preset": self.rd.preset,
            "rank": self.rd.rank,
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "I": [i + 1 for i in self.I],
            "J": [j + 1 for j in self.J],
            "z": wg.describe(self.z),
            "galois_order": self.rd.galois.order,
        }


@dataclass(frozen=True, eq=False)
class FlaggedZipDatum:
    base: ZipDatum
    I0: tuple
    J0: tuple
    Z0: ZipDatum


@dataclass(frozen=True)
class DimReport:
    dim_G: int
    dim_B: int
    dim_P: int
    dim_Q: int
    dim_E: int
    dim_P0: Optional[int] = None
    dim_Q0: Optional[int] = None
    dim_E0: Optional[int] = None
    dim_E_hat: Optional[int] = None
    dim_P_over_P0: Optional[int] = None
    dim_M_cap_V0: Optional[int] = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


# -- construction ---------------------------------------------------------------

def _opposition(rd: RootDatum, wg: WeylGroup, K: Iterable[int]) -> tuple:
    """K -> -w0(K) on simple-root indices."""
    w0 = wg.longest_element()
    out = []
    for i in K:
        img = vneg(wg.act(w0, rd.simple_roots[i]))
        j = rd.simple_index(img)
        if j is None:
            raise ZipDatumError("opposition image of a simple root is not simple")
        out.append(j)
    return tuple(sorted(out))


def type_from_cocharacter(rd: RootDatum, mu: Vec) -> tuple:
    """I = {simple roots pairing to 0}; mu must be anti-dominant (pairings <= 0)."""
    I = []
    for i, a in enumerate(rd.simple_roots):
        c = dot(a, mu)
        if c > 0:
            raise ZipDatumError(
                "cocharacter is not anti-dominant: <alpha_%d, mu> = %d > 0" % (i + 1, c))
        if c == 0:
            I.append(i)
    return tuple(I)


def zip_from_cochar(rd: RootDatum, I=None, mu=None, n: int = 1, p: int = 2,
                    wg: Optional[WeylGroup] = None) -> ZipDatum:
    """Build the framed zip datum of exponent n for a parabolic type I (or an
    anti-dominant cocharacter mu): J = -w0(gamma^n(I)), z = w0 * w0_J, and the
    second parabolic in the anti-standard position."""
    if not is_prime(p):
        raise ZipDatumError("p = %d is not prime" % p)
    if n < 1:
        raise ZipDatumError("exponent n must be >= 1")
    if (I is None) == (mu is None):
        raise ZipDatumError("give exactly one of I and mu")
    if mu is not None:
        I = type_from_cocharacter(rd, tuple(mu))
    I = tuple(sorted(set(I)))
    if any(not 0 <= i < rd.num_simple for i in I):
        raise ZipDatumError("I contains an invalid simple-root index")
    wg = wg or WeylGroup(rd)

    gI = tuple(sorted(rd.galois.perm(i, n) for i in I))
    J = _opposition(rd, wg, gI)
    z = wg.compose(wg.longest_element(), wg.longest_element(J))
    levi = rd.levi_roots(gI)
    q_roots = frozenset(vneg(a) for a in rd.positive) | levi
    Z = ZipDatum(rd=rd, wg=wg, n=n, p=p, I=I, J=J, z=z, q_roots=q_roots)
    bad = validate_frame(Z)
    if bad:
        raise ZipDatumError("constructed datum fails frame validation: %s" % "; ".join(bad))
    return Z


def validate_frame(Z: ZipDatum) -> list:
    """Check the frame axioms; returns a list of violations (empty = ok)."""
    rd, wg, z = Z.rd, Z.wg, Z.z
    gI = Z.gal_type(Z.I)
    pos = set(rd.positive)
    levi = rd.levi_roots(gI)
    levi_pos = rd.levi_positive(gI)
    z_pos = {wg.act(z, a) for a in rd.positive}
    bad = []
    if not all(wg.act(z, rd.simple_roots[j]) in pos for j in Z.J):
        bad.append("z is not minimal in its coset z W_J (z not in W^J)")
    if z_pos & levi != levi_pos:
        bad.append("frame axiom fails: z(Phi+) meets the Levi of the image "
                   "parabolic outside its positive part")
    if not z_pos <= Z.q_roots:
        bad.append("z-translate of the Borel is not contained in the second parabolic")
    zi = wg.inverse(z)
    img = set()
    for i in gI:
        b = wg.act(zi, rd.simple_roots[i])
        j = rd.simple_index(b)
        if j is None:
            bad.append("z^{-1} does not carry the image type back into the simple roots")
            break
        img.add(j)
    else:
        if tuple(sorted(img)) != tuple(Z.J):
            bad.append("declared J does not match z^{-1}(gamma^n(I))")
    return bad


def flag_datum(Z: ZipDatum, I0: Iterable[int]) -> FlaggedZipDatum:
    """Induced datum for a sub-type I0 of I: J0 = z^{-1}(gamma^n(I0)) and the
    second parabolic generated by the twisted Levi part together with the
    unipotent radical inherited from Z."""
    I0 = tuple(sorted(set(I0)))
    if not set(I0) <= set(Z.I):
        raise ZipDatumError("I0 must be a subset of I")
    rd, wg = Z.rd, Z.wg
    zi = wg.inverse(Z.z)
    J0 = []
    for i in Z.gal_type(I0):
        b = wg.act(zi, rd.simple_roots[i])
        j = rd.simple_index(b)
        if j is None:
            raise ZipDatumError("internal inconsistency: induced type escapes the simple roots")
        J0.append(j)
    J0 = tuple(sorted(J0))

    gI = Z.gal_type(Z.I)
    gI0 = Z.gal_type(I0)
    q0_roots = (rd.levi_positive(gI)
                | rd.levi_roots(gI0)
                | (Z.q_roots - rd.levi_roots(gI)))
    Z0 = ZipDatum(rd=rd, wg=wg, n=Z.n, p=Z.p, I=I0, J=J0, z=Z.z,
                  q_roots=frozenset(q0_roots))
    bad = validate_frame(Z0)
    if bad:
        raise ZipDatumError("induced datum fails frame validation: %s" % "; ".join(bad))
    return FlaggedZipDatum(base=Z, I0=I0, J0=J0, Z0=Z0)


def dims(obj) -> DimReport:
    """All dimension bookkeeping for a datum or a flagged datum."""
    if isinstance(obj, FlaggedZipDatum):
        Z, Z0 = obj.base, obj.Z0
    elif isinstance(obj, ZipDatum):
        Z, Z0 = obj, None
    else:
        raise ZipDatumError("dims expects a ZipDatum or FlaggedZipDatum")
    rd = Z.rd
    dim_G = rd.dim_group()
    dim_B = rd.dim_borel()
    pos_I = len(rd.levi_positive(Z.I))
    dim_P = dim_B + pos_I
    dim_Q = rd.rank + len(Z.q_roots)
    dim_V = dim_G - dim_Q
    dim_E = dim_P + dim_V
    if Z0 is None:
        return DimReport(dim_G=dim_G, dim_B=dim_B, dim_P=dim_P, dim_Q=dim_Q, dim_E=dim_E)
    pos_I0 = len(rd.levi_positive(Z0.I))
    dim_P0 = dim_B + pos_I0
    dim_Q0 = rd.rank + len(Z0.q_roots)
    dim_E0 = dim_P0 + (dim_G - dim_Q0)
    dim_E_hat = dim_P0 + dim_V
    gI = Z.gal_type(Z.I)
    gI0 = Z.gal_type(Z0.I)
    m_cap_v0 = len(rd.levi_roots(gI) & (Z0.q_roots - rd.levi_roots(gI0)))
    return DimReport(dim_G=dim_G, dim_B=dim_B, dim_P=dim_P, dim_Q=dim_Q, dim_E=dim_E,
                     dim_P0=dim_P0, dim_Q0=dim_Q0, dim_E0=dim_E0, dim_E_hat=dim_E_hat,
                     dim_P_over_P0=pos_I - pos_I0,
                     dim_M_cap_V0=m_cap_v0)

