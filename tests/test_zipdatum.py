import dataclasses
import itertools

import pytest

from conftest import datum, group
from zipstrata.zipdatum import (ZipDatumError, dims, flag_datum, is_prime,
                                prime_power, validate_frame, zip_from_cochar)


def test_prime_helpers():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(9) == (3, 2)
    with pytest.raises(ZipDatumError):
        prime_power(12)


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
                if FZ.J0 != opp:
                    assert validate_frame(FZ.Z0) == []
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
    assert full.J0 == Z.J and full.Z0.I == Z.I
    assert full.Z0.q_roots == Z.q_roots
    empty = flag_datum(Z, ())
    assert empty.J0 == ()
    single = flag_datum(Z, (0,))
    assert single.J0 == (0,)
    with pytest.raises(ZipDatumError):
        flag_datum(Z, (1,))  # alpha_2 is not in I


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
                        via = flag_datum(FZ0.Z0, I1).Z0
                        direct = flag_datum(Z, I1).Z0
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
                        J0 = flag_datum(Z, I0).J0
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
                        Z0 = flag_datum(Z, I0).Z0
                        qr = Z0.q_roots
                        neg = {tuple(-x for x in a) for a in qr}
                        assert qr | neg == rd.roots
                        assert qr & neg == rd.levi_roots(Z0.gal_type(Z0.I))
                        for a in qr:
                            for b in qr:
                                s = tuple(x + y for x, y in zip(a, b))
                                if s in rd.roots:
                                    assert s in qr
