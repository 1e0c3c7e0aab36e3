import functools

import pytest

from zipstrata.rootsystem import build_root_datum
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import zip_from_cochar

# the A3 diagram flip e_i -> -e_{5-i}, as an explicit galois matrix
A3_FLIP_MATRIX = [[0, 0, 0, -1], [0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]


@functools.lru_cache(maxsize=None)
def _group(preset, galois):
    rd = build_root_datum(preset, galois=galois)
    return rd, WeylGroup(rd)


def group(preset, galois=None):
    return _group(preset, galois)


@functools.lru_cache(maxsize=None)
def _datum(preset, I, p, n, galois):
    rd, wg = _group(preset, galois)
    return zip_from_cochar(rd, I=I, n=n, p=p, wg=wg)


def datum(preset, I, p=2, n=1, galois=None):
    return _datum(preset, tuple(I), p, n, galois)


def subword_leq(wg, u, w):
    """Independent Bruhat oracle: u <= w iff some subword of a reduced word of
    w multiplies to u (subword property, checked by forward DP)."""
    word = wg.canonical_word(w)
    reach = {wg.e}
    for i in word:
        reach |= {x * wg.simple_reflection(i) for x in reach}
    return u in reach


@pytest.fixture(scope="session")
def c3():
    rd, wg = group("C3")
    return rd, wg


@pytest.fixture(scope="session")
def c3_datum():
    return datum("C3", (0, 2), p=2)


@pytest.fixture(scope="session")
def gl4():
    rd, wg = group("GL4")
    return rd, wg
