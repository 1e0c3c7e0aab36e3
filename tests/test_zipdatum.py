import dataclasses
import itertools

import pytest

from conftest import PSI_12, PSI_13, datum, group
from zipstrata import sections, strata, zipdatum
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import (ZipDatumError, dims, flag_datum, is_prime,
                                prime_power, validate_frame, zip_from_cochar)


def test_prime_helpers():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(9) == (3, 2)
    with pytest.raises(ZipDatumError):
        prime_power(12)


def test_is_prime_on_strong_pseudoprimes():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)
    with pytest.raises(ZipDatumError, match="deterministic only below %d" % PSI_13):
        is_prime(PSI_13)
    sympy = pytest.importorskip("sympy")
    # below the bound the answers agree with sympy, here on the integers just
    # below psi_12 and psi_13 and a window of Carmichael-rich small integers
    sample = list(range(PSI_12 - 300, PSI_12)) + list(range(PSI_13 - 300, PSI_13)) \
        + [561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751, 2 ** 61 - 1, 2 ** 31 - 1]
    assert [is_prime(p) for p in sample] == [sympy.isprime(p) for p in sample]


def test_c3_frame(c3_datum):
    Z = c3_datum
    wg = Z.wg
    assert wg.to_bracket(Z.z) == "[563]"
    assert Z.J == (0, 2)
    assert validate_frame(Z) == []


def test_frame_from_mu():
    rd, wg = group("C3")
    Z = zip_from_cochar(rd, mu=(-1, -1, 0), n=1, p=2, wg=wg)
    assert Z.I == (0, 2)
    with pytest.raises(ZipDatumError):
        zip_from_cochar(rd, mu=(1, 1, 0), n=1, p=2, wg=wg)


def test_gl4_regular_frame():
    rd, wg = group("GL4")
    Z = zip_from_cochar(rd, I=(), n=1, p=2, wg=wg)
    assert Z.J == ()
    assert Z.z == wg.longest_element()


def test_a3_flip_frame():
    rd, wg = group("A3", "flip")
    Z = zip_from_cochar(rd, I=(0,), n=1, p=3, wg=wg)
    assert Z.J == (0,)
    assert validate_frame(Z) == []


def test_validate_rejects_identity_frame(c3_datum):
    bad = dataclasses.replace(c3_datum, z=c3_datum.wg.e)
    violations = validate_frame(bad)
    assert violations
    assert any("not contained" in v for v in violations)


def test_validation_is_axiomatic_not_formula_based():
    # an induced datum whose J differs from the opposition formula still validates
    rd, wg = group("GL4")
    w0 = wg.longest_element()
    found = False
    for I in itertools.combinations(range(3), 2):
        Z = zip_from_cochar(rd, I=I, n=1, p=2, wg=wg)
        for r in range(len(I)):
            for I0 in itertools.combinations(I, r):
                FZ = flag_datum(Z, I0)
                opp = tuple(sorted(
                    rd.simple_index(tuple(-x for x in wg.act(w0, rd.simple_roots[i])))
                    for i in I0))
                if FZ.J != opp:
                    assert validate_frame(FZ) == []
                    found = True
    assert found


def test_invalid_prime_and_exponent():
    rd, wg = group("A2")
    with pytest.raises(ZipDatumError):
        zip_from_cochar(rd, I=(), n=1, p=4, wg=wg)
    with pytest.raises(ZipDatumError):
        zip_from_cochar(rd, I=(), n=0, p=2, wg=wg)
    with pytest.raises(ZipDatumError):
        zip_from_cochar(rd, I=(5,), n=1, p=2, wg=wg)


def test_flag_datum_basic(c3_datum):
    Z = c3_datum
    full = flag_datum(Z, Z.I)
    assert full.J == Z.J and full.I == Z.I
    assert full.q_roots == Z.q_roots
    empty = flag_datum(Z, ())
    assert empty.J == ()
    single = flag_datum(Z, (0,))
    assert single.J == (0,)
    with pytest.raises(ZipDatumError):
        flag_datum(Z, (1,))  # alpha_2 is not in I


def test_a_flag_level_is_the_induced_datum_with_its_base(c3_datum):
    Z = c3_datum
    FZ = flag_datum(Z, (0,))
    assert type(FZ) is zipdatum.ZipDatum and Z.base is None and FZ.base is Z
    assert (FZ.rd, FZ.wg, FZ.n, FZ.p, FZ.z) == (Z.rd, Z.wg, Z.n, Z.p, Z.z)
    assert [f.name for f in dataclasses.fields(FZ)] == \
        ["rd", "wg", "n", "p", "I", "J", "z", "q_roots", "base"]
    assert flag_datum(FZ, ()).base is FZ


@pytest.mark.parametrize("needs_flag", [
    strata.coarse_strata,
    strata.coarse_poset,
    lambda Z: strata.classify_stratum(Z, Z.wg.e, Z.I),
    lambda Z: sections.flag_ampleness(Z, (-2, -3, 1)),
], ids=["coarse_strata", "coarse_poset", "classify_stratum", "flag_ampleness"])
def test_functions_of_a_flag_level_refuse_a_datum_with_no_base(c3_datum, needs_flag):
    with pytest.raises(ZipDatumError, match="needs a flag level"):
        needs_flag(c3_datum)
    needs_flag(flag_datum(c3_datum, ()))


def test_dims_c3(c3_datum):
    d = dims(c3_datum)
    assert (d.dim_G, d.dim_B, d.dim_P) == (21, 12, 14)
    dd = dims(flag_datum(c3_datum, ()))
    assert dd.dim_P_over_P0 == 2
    assert dd.dim_P0 == 12


def test_dim_identity_battery():
    # dim(P/P0) = dim E_{Z0} - dim E_hat = dim(M cap V0) over many (I, I0)
    for preset, p in (("C3", 2), ("GL4", 3), ("B2", 2), ("A2", 5)):
        rd, wg = group(preset)
        for r in range(rd.num_simple + 1):
            for I in itertools.combinations(range(rd.num_simple), r):
                Z = zip_from_cochar(rd, I=I, n=1, p=p, wg=wg)
                for r0 in range(len(I) + 1):
                    for I0 in itertools.combinations(I, r0):
                        d = dims(flag_datum(Z, I0))
                        assert d.dim_P_over_P0 == d.dim_E0 - d.dim_E_hat
                        assert d.dim_P_over_P0 == d.dim_M_cap_V0


def test_tower_coherence():
    for preset in ("C3", "GL4", "B2"):
        rd, wg = group(preset)
        full = tuple(range(rd.num_simple))
        Z = zip_from_cochar(rd, I=full, n=1, p=2, wg=wg)
        for r0 in range(len(full) + 1):
            for I0 in itertools.combinations(full, r0):
                FZ0 = flag_datum(Z, I0)
                for r1 in range(len(I0) + 1):
                    for I1 in itertools.combinations(I0, r1):
                        via = flag_datum(FZ0, I1)
                        direct = flag_datum(Z, I1)
                        assert via.I == direct.I and via.J == direct.J
                        assert via.z == direct.z
                        assert via.q_roots == direct.q_roots


def test_frame_length_identity():
    for preset in ("A2", "B2", "C3", "GL4"):
        rd, wg = group(preset)
        w0 = wg.longest_element()
        for r in range(rd.num_simple + 1):
            for I in itertools.combinations(range(rd.num_simple), r):
                Z = zip_from_cochar(rd, I=I, n=1, p=2, wg=wg)
                assert wg.length(Z.z) == wg.length(w0) - \
                    wg.length(wg.longest_element(Z.J))
                # induced types shrink with I0, and the same z frames every
                # induced datum: W^J is contained in W^{J0}
                WJ = wg.min_coset_reps(Z.J, "right")
                for r0 in range(len(I) + 1):
                    for I0 in itertools.combinations(I, r0):
                        J0 = flag_datum(Z, I0).J
                        assert set(J0) <= set(Z.J)
                        assert all(wg.is_min_right(w, J0) for w in WJ)


def test_open_stratum_length():
    for preset in ("B2", "C3", "GL4"):
        rd, wg = group(preset)
        w0 = wg.longest_element()
        for r in range(rd.num_simple + 1):
            for I in itertools.combinations(range(rd.num_simple), r):
                Z = zip_from_cochar(rd, I=I, n=1, p=2, wg=wg)
                reps = wg.min_coset_reps(I, "left")
                lmax = max(wg.length(w) for w in reps)
                assert lmax == wg.length(w0) - wg.length(wg.longest_element(I))
                d = dims(Z)
                assert lmax + d.dim_P == d.dim_G


def test_induced_second_parabolic_is_parabolic_subset():
    # q_roots of every induced datum is a parabolic subset of the roots whose
    # Levi part is exactly the twisted image of the small Levi
    for preset, galois in (("C3", None), ("GL4", None), ("A3", "flip")):
        rd, wg = group(preset, galois)
        full = tuple(range(rd.num_simple))
        for r in range(rd.num_simple + 1):
            for I in itertools.combinations(full, r):
                Z = zip_from_cochar(rd, I=I, n=1, p=2, wg=wg)
                for r0 in range(len(I) + 1):
                    for I0 in itertools.combinations(I, r0):
                        Z0 = flag_datum(Z, I0)
                        qr = Z0.q_roots
                        neg = {tuple(-x for x in a) for a in qr}
                        assert qr | neg == rd.roots
                        assert qr & neg == rd.levi_roots(Z0.gal_type(Z0.I))
                        for a in qr:
                            for b in qr:
                                s = tuple(x + y for x, y in zip(a, b))
                                if s in rd.roots:
                                    assert s in qr


def test_the_frame_is_built_once_per_type_and_every_call_checks_p_and_n(monkeypatch):
    rd, _ = group("A3", "flip")
    wg, calls = WeylGroup(rd), []
    monkeypatch.setattr(zipdatum, "validate_frame",
                        lambda Z, _fn=validate_frame: calls.append((Z.I, Z.n)) or _fn(Z))
    data = [zip_from_cochar(rd, I=(1, 2), n=n, p=p, wg=wg) for n in (1, 2) for p in (2, 3, 5)]
    assert calls == [((1, 2), 1), ((1, 2), 2)]
    for Z in data:
        fresh = zip_from_cochar(rd, I=(1, 2), n=Z.n, p=Z.p)
        assert (Z.J, Z.z, Z.q_roots, Z.q) == (fresh.J, fresh.z, fresh.q_roots, Z.p ** Z.n)
    for kwargs, message in (({"p": 4}, "p = 4 is not prime"), ({"n": 0}, "exponent n"),
                            ({"p": 3, "n": 6000}, "q = p.n is too large")):
        with pytest.raises(ZipDatumError, match=message):
            zip_from_cochar(rd, I=(1, 2), wg=wg, **{"n": 1, **kwargs})
