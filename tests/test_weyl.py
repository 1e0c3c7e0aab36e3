import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DOWN_SET_GROUPS, E7_TYPE, cochar, datum, group, subword_down_set,
                      subword_leq)
from zipstrata import strata, weyl
from zipstrata.rootsystem import build_root_datum, reflect
from zipstrata.weyl import WeylError, WeylGroup

SMALL = ("A1", "A2", "B2", "A3")


def test_from_word_identity(c3):
    _, wg = c3
    e = wg.from_word([])
    assert e == wg.e and wg.length(e) == 0


def test_c3_generators_and_longest(c3):
    _, wg = c3
    assert wg.to_bracket(wg.from_word([0])) == "[213]"
    w0 = wg.longest_element()
    assert wg.to_bracket(w0) == "[654]" and wg.length(w0) == 9
    assert wg.from_word(wg.canonical_word(w0)) == w0


def test_group_ops(c3):
    rd, wg = c3
    for w in wg.elements()[:10]:
        assert wg.compose(w, wg.inverse(w)) == wg.e
    s = wg.reflection(rd.simple_roots[0])
    assert wg.act(s, rd.simple_roots[0]) == (-1, 1, 0)
    z = wg.from_bracket("[563]")
    assert wg.act(z, (1, 0, 0)) == (0, -1, 0)


def test_action_preserves_pairing(c3):
    rd, wg = c3
    for w in wg.elements()[:12]:
        for a in rd.positive:
            lhs = wg.act(w, a)
            ac = wg.act(w, rd.coroot(a), "cochar")
            assert rd.coroot(lhs) == ac


def test_bruhat_against_subword_oracle_exhaustive():
    for preset, galois in [(p, None) for p in SMALL] + DOWN_SET_GROUPS:
        _, wg = group(preset, galois)
        els = wg.elements()
        for w in els:
            down = subword_down_set(wg, w)
            for u in els:
                assert wg.bruhat_leq(u, w) == (u in down), \
                    (preset, wg.describe(u), wg.describe(w))


def test_bruhat_basics(c3):
    _, wg = c3
    w0 = wg.longest_element()
    for w in wg.elements():
        assert wg.bruhat_leq(wg.e, w)
        assert wg.bruhat_leq(w, w0)
    a, b = wg.from_bracket("[231]"), wg.from_bracket("[153]")
    assert not wg.bruhat_leq(a, b) and not wg.bruhat_leq(b, a)


def test_coset_reps_c3(c3):
    _, wg = c3
    reps = wg.min_coset_reps((0, 2), "left")
    assert len(reps) == 12
    longest = wg.longest_element((0, 2))
    assert wg.to_bracket(longest) == "[214]" and wg.length(longest) == 2
    assert len(wg.min_coset_reps((), "left")) == wg.order()
    assert wg.longest_element(()) == wg.e


def test_coset_counting_all_subsets():
    for preset in SMALL + ("C3",):
        rd, wg = group(preset)
        for r in range(rd.num_simple + 1):
            for K in itertools.combinations(range(rd.num_simple), r):
                reps = wg.min_coset_reps(K, "left")
                assert len(reps) * len(wg.subgroup_elements(K)) == wg.order()
                assert len(set(reps)) == len(reps)
                # left and right reps are exchanged by inversion
                right = wg.min_coset_reps(K, "right")
                assert {wg.inverse(w) for w in right} == set(reps)


def test_longest_coset_rep_length():
    for preset in ("B2", "C3"):
        rd, wg = group(preset)
        for K in itertools.combinations(range(rd.num_simple), 1):
            assert wg.length(wg.longest_element(K)) == len(rd.levi_positive(K))


def test_lower_reflections(c3):
    rd, wg = c3
    assert wg.lower_reflections(wg.e) == ()
    for i in range(rd.num_simple):
        assert len(wg.lower_reflections(wg.simple_reflection(i))) == 1
    w = wg.from_bracket("[351]")
    walls = wg.lower_reflections(w)
    assert set(walls) == {(1, 0, -1), (1, 1, 0), (0, 1, -1), (0, 2, 0)}
    nbrs = {wg.to_bracket(wg.compose(w, wg.reflection(a))) for a in walls}
    assert nbrs == {"[153]", "[241]", "[315]", "[321]"}


def test_lower_reflections_match_bruhat_covers():
    for preset in ("A2", "B2"):
        _, wg = group(preset)
        els = wg.elements()
        for w in els:
            covers = [v for v in els
                      if wg.length(v) == wg.length(w) - 1 and subword_leq(wg, v, w)]
            assert len(wg.lower_reflections(w)) == len(covers)


def test_double_coset_reps(c3):
    rd, wg = c3
    assert len(wg.double_coset_reps((), ())) == wg.order()
    full = tuple(range(rd.num_simple))
    assert wg.double_coset_reps(full, full) == (wg.e,)
    # brute-force partition of W into W_{I0} x W_{J0} orbits
    I0, J0 = (0,), (0,)
    sub_i = wg.subgroup_elements(I0)
    sub_j = wg.subgroup_elements(J0)
    seen = set()
    count = 0
    for w in wg.elements():
        if w in seen:
            continue
        count += 1
        for a in sub_i:
            for b in sub_j:
                seen.add(wg.compose(wg.compose(a, w), b))
    assert len(wg.double_coset_reps(I0, J0)) == count


def test_double_coset_type(c3):
    rd, wg = c3
    I0 = (0, 2)
    for w in wg.double_coset_reps(I0, I0):
        I_w = wg.double_coset_type(w, I0, I0)
        assert set(I_w) <= set(I0)
    assert wg.double_coset_type(wg.e, I0, I0) == I0


@pytest.mark.parametrize("preset", ["B3", "C3"])
def test_bracket_reads_the_coordinate_action(preset):
    # type B reads the short roots e_j, type C the long roots 2e_j; on the
    # lattice both are the signed permutation the digits spell
    rd, wg = group(preset)
    n = rd.rank
    assert wg.to_bracket(wg.simple_reflection(n - 1)) == "[124]"
    for w in wg.elements():
        text = wg.to_bracket(w)
        assert wg.from_bracket(text) == w
        for j, d in enumerate(int(c) for c in text.strip("[]")):
            k, sign = (d - 1, 1) if d <= n else (2 * n - d, -1)
            unit = tuple(1 if i == j else 0 for i in range(n))
            assert wg.act(w, unit) == tuple(sign if i == k else 0 for i in range(n))


def _bracket_by_axis_roots(wg, w):
    """The bracket read root by root: the image of each axis root e_j (B) or
    2e_j (C), and the position and sign of its one nonzero coordinate."""
    n = wg.rd.rank
    scale = 2 if wg.rd.preset[0] == "C" else 1
    digits = []
    for j in range(n):
        img = wg.root_image(w, tuple(scale * (i == j) for i in range(n)))
        k = next(i for i in range(n) if img[i] != 0)
        digits.append(k + 1 if img[k] > 0 else 2 * n - k)
    return "[" + (" " if 2 * n > 9 else "").join(map(str, digits)) + "]"


@pytest.mark.parametrize("preset", ["B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5"])
def test_bracket_table_matches_the_axis_roots(preset):
    # C5 and B5 print the spaced form, 2n > 9
    _, wg = group(preset)
    for w in wg.elements():
        text = wg.to_bracket(w)
        assert text == _bracket_by_axis_roots(wg, w)
        assert wg.from_bracket(text) == w
    assert (" " in text) == (wg.rd.rank >= 5)


def test_bracket_roundtrip(c3):
    _, wg = c3
    assert wg.to_bracket(wg.e) == "[123]"
    assert wg.to_bracket(wg.simple_reflection(2)) == "[124]"
    for w in wg.elements():
        assert wg.from_bracket(wg.to_bracket(w)) == w
    with pytest.raises(WeylError):
        wg.from_bracket("[113]")
    _, wg_a = group("A2")
    with pytest.raises(WeylError):
        wg_a.to_bracket(wg_a.e)


def test_canonical_word_is_lex_least():
    _, wg = group("B2")
    for w in wg.elements():
        word = wg.canonical_word(w)
        assert len(word) == wg.length(w)
        assert wg.from_word(word) == w
        # no reduced word of w is lexicographically smaller (exhaustive check)
        smaller = _reduced_words(wg, w)
        assert word == min(smaller)


@pytest.mark.parametrize("preset, galois", [
    ("A3", None), ("B3", None), ("C4", None), ("D4", None), ("A5", None), ("GL4", None),
    ("A2xB2", None), ("A3", "flip"), ("D4", "dswap")])
def test_walk_order_is_length_then_canonical_word(preset, galois):
    """The level walk needs no sort: its elements come in (length, canonical
    word) order, checked against an explicit sort on a fresh group."""
    rd, _ = group(preset, galois)
    wg = WeylGroup(rd)
    m = rd.num_simple
    key = lambda w: (wg.length(w), wg.canonical_word(w))
    for K in {(), (0,), (m - 1,), tuple(range(m // 2)), tuple(range(0, m, 2)),
              tuple(range(1, m)), tuple(range(m))}:
        for walk in (wg.subgroup_elements(K), wg.min_coset_reps(K, "left")):
            assert list(walk) == sorted(walk, key=key)
            assert len(set(walk)) == len(walk)


def _word_label(wg, w):
    return ".".join(str(i + 1) for i in wg.canonical_word(w)) or "e"


@pytest.mark.parametrize("preset, galois", [
    ("A3", None), ("A3", "flip"), ("A4", None), ("D4", None), ("D4", "dswap"),
    ("G2-explicit", None), ("GL1xGL1", None)])
def test_describe_reads_the_words_the_walks_record(preset, galois):
    """On a fresh group, an element no walk has reached is described by
    canonical_word, and the table stays empty; then, for every K, each element
    that min_coset_reps(K) and subgroup_elements(K) reach is described as
    canonical_word spells it, and all of W has a recorded word."""
    rd, _ = group(preset, galois)
    wg = WeylGroup(rd)
    w0 = wg.longest_element()
    assert wg.describe(w0) == _word_label(wg, w0) and not wg._words
    m = rd.num_simple
    for K in (K for r in range(m + 1) for K in itertools.combinations(range(m), r)):
        for w in wg.min_coset_reps(K, "left") + wg.subgroup_elements(K):
            assert wg.describe(w) == _word_label(wg, w)
    assert len(wg._words) == wg.order()


def test_walked_labels_need_no_canonical_word(monkeypatch):
    """Once a walk has reached an element its label is read, not derived; B
    and C presets keep the bracket and record no word."""
    wg = WeylGroup(build_root_datum("A3"))
    reps = wg.min_coset_reps((1,), "left")

    def refuse(*args):
        raise AssertionError("a walked element's word was derived")
    labels = [_word_label(wg, w) for w in reps]
    monkeypatch.setattr(WeylGroup, "canonical_word", refuse)
    assert [wg.describe(w) for w in reps] == labels
    wg_c = WeylGroup(build_root_datum("C3"))
    assert wg_c.describe(wg_c.elements()[-1]) == "[654]" and not wg_c._words


def _reduced_words(wg, w):
    if w == wg.e:
        return [()]
    out = []
    for i in range(wg.rd.num_simple):
        if wg.has_left_descent(w, i):
            sw = wg.compose(wg.simple_reflection(i), w)
            out += [(i,) + rest for rest in _reduced_words(wg, sw)]
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B2"]),
       st.lists(st.integers(0, 1), max_size=5),
       st.lists(st.integers(0, 1), max_size=5))
def test_length_subadditive(preset, wa, wb):
    _, wg = group(preset)
    a, b = wg.from_word(wa), wg.from_word(wb)
    ab = wg.compose(a, b)
    assert wg.length(ab) <= wg.length(a) + wg.length(b)
    # the concatenation of reduced words multiplies to the product and is
    # reduced exactly when the lengths add
    concat = list(wg.canonical_word(a)) + list(wg.canonical_word(b))
    assert wg.from_word(concat) == ab
    assert (len(concat) == wg.length(ab)) == \
        (wg.length(ab) == wg.length(a) + wg.length(b))


# -- an independent oracle: products of reflection matrices built from reflect --

# rank 2, roots not orthonormal (an A2 root datum in weight coordinates), with
# the diagram flip given as an explicit galois matrix
EXPLICIT_A2 = ({"rank": 2, "simple_roots": [[2, -1], [-1, 2]],
                "simple_coroots": [[1, 0], [0, 1]]},
               {"matrix": [[0, 1], [1, 0]], "order": 2})
ORACLE_GROUPS = [("GL4", None), ("C3xGL1", None), ("A3", "flip"), ("D4", "dswap"),
                 ("B3", None), ("explicit", None)]


@functools.lru_cache(maxsize=None)
def _oracle_group(preset, galois):
    if preset == "explicit":
        rd = build_root_datum(*EXPLICIT_A2)
        return rd, WeylGroup(rd)
    return group(preset, galois)


def _mat_vec(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))


def _word_matrix(rd, word, side):
    """s_{i1} ... s_{ik} as a product of matrices whose columns are reflect(e_j)."""
    n = rd.rank
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        cols = [reflect(rd, rd.simple_roots[i], tuple(int(k == j) for k in range(n)), side)
                for j in range(n)]
        m = tuple(tuple(sum(m[r][k] * cols[c][k] for k in range(n)) for c in range(n))
                  for r in range(n))
    return m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_GROUPS), st.lists(st.integers(0, 9), max_size=8),
       st.lists(st.integers(0, 9), max_size=8),
       st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_weyl_ops_match_reflection_matrices(spec, wa, wb, v):
    rd, wg = _oracle_group(*spec)
    wa = [i % rd.num_simple for i in wa]
    wb = [i % rd.num_simple for i in wb]
    v = tuple(v[: rd.rank])
    a, b = wg.from_word(wa), wg.from_word(wb)
    for side in ("char", "cochar"):
        ma, mb = _word_matrix(rd, wa, side), _word_matrix(rd, wb, side)
        assert wg.act(a, v, side) == _mat_vec(ma, v)
        assert wg.act(wg.compose(a, b), v, side) == _mat_vec(ma, _mat_vec(mb, v))
        assert wg.act(wg.inverse(a), _mat_vec(ma, v), side) == v
        g = rd.galois.char if side == "char" else functools.partial(cochar, rd.galois)
        for k in range(-2, 3):
            # gamma^k(a) acts as gamma^k o a o gamma^-k
            assert wg.act(wg.galois(a, k), v, side) == g(_mat_vec(ma, g(v, -k)), k)
    assert wg.compose(a, b) == wg.from_word(wa + wb)
    assert wg.inverse(a) == wg.from_word(wa[::-1])
    # the length counts the positive roots sent to negative ones
    ma = _word_matrix(rd, wa, "char")
    assert wg.length(a) == sum(1 for r in rd.positive if _mat_vec(ma, r) not in rd.positive)


@pytest.mark.parametrize("preset", ["A1-rot3", "A2-shear"])
def test_galois_matches_word_oracle(preset):
    # gamma^k(w) letter by letter, s_i -> s_{gamma^k(i)}, for k past the galois
    # order (3 on A1-rot3, where gamma fixes every root) in both directions
    rd, wg = group(preset)
    for k in range(-4, 5):
        assert wg.galois_perm(k) == wg._perm_of(lambda a: rd.galois.char(a, k))
        for w in wg.elements():
            assert wg.galois(w, k) == wg.from_word(
                [rd.galois.perm(i, k) for i in wg.canonical_word(w)])


def test_galois_on_a_large_order_composes_log_many_times(monkeypatch):
    # 40 orthogonal A1 roots permuted in cycles of lengths 5, 7, 8, 9 and 11: the
    # order 27,720 passes validation, and gamma^k for any k takes O(log order)
    # compositions, not one per power of gamma
    cycles, perm = (5, 7, 8, 9, 11), []
    for c in cycles:
        perm += [len(perm) + (t + 1) % c for t in range(c)]
    rank, order = len(perm), 5 * 7 * 8 * 9 * 11
    matrix = [[int(perm[j] == i) for j in range(rank)] for i in range(rank)]
    rd = build_root_datum(
        {"rank": rank, "simple_roots": [[int(i == j) for j in range(rank)] for i in range(rank)],
         "simple_coroots": [[2 * int(i == j) for j in range(rank)] for i in range(rank)]},
        {"matrix": matrix, "order": order})
    calls = Counter()
    mul = weyl._mul
    monkeypatch.setattr(weyl, "_mul", lambda p, q: calls.update(["mul"]) or mul(p, q))
    wg = WeylGroup(rd)
    gamma = wg.galois_perm(1)
    assert wg.galois_perm(-1) == weyl._inverse(gamma) != gamma
    assert wg.galois_perm(order) == wg.galois_perm(0) == wg.e
    assert wg.galois_perm(1) == wg._perm_of(rd.galois.char)
    assert weyl._mul(wg.galois_perm(12345), wg.galois_perm(order - 12344)) == gamma
    for i in (0, 5, 39):
        for k in (1, -1, 3):
            assert wg.galois(wg.simple_reflection(i), k) \
                == wg.simple_reflection(rd.galois.perm(i, k))
    assert calls["mul"] < 300


# -- the group order from root heights, and the enumeration cap -------------------

ORDER_DATA = [(p, None) for p in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3",
                                  "C4", "C5", "D4", "D5", "GL1", "GL4", "C3xGL1")] \
    + [("A2", "flip"), ("A3", "flip"), ("D4", "dswap"), ("G2-explicit", None),
       ("A2-shear", None)]


@pytest.mark.parametrize("preset, galois", ORDER_DATA)
def test_order_equals_enumeration(preset, galois):
    rd, wg = group(preset, galois)
    assert wg.order() == len(wg.elements())
    n = rd.num_simple
    for K in ((), tuple(range(0, n, 2)), tuple(range(1, n, 2)), tuple(range(n))):
        assert wg._subgroup_order(K) == len(wg.subgroup_elements(K))


def _refuse(*args):
    raise AssertionError("the Weyl group was enumerated")


def test_e8_order_without_enumeration(monkeypatch):
    rd, wg = group("E8-explicit")
    for name in ("subgroup_elements", "min_coset_reps", "elements"):
        monkeypatch.setattr(WeylGroup, name, _refuse)
    monkeypatch.setattr(weyl, "_mul", _refuse)
    assert len(rd.positive) == 120
    assert wg.order() == 696_729_600
    assert wg._subgroup_order(E7_TYPE) == 2_903_040
    assert wg._subgroup_order(()) == 1


def test_size_checked_before_enumerating(monkeypatch):
    _, wg = group("E8-explicit")
    monkeypatch.setattr(weyl, "_mul", _refuse)
    with pytest.raises(WeylError, match="696729600 elements"):
        wg.elements()
    with pytest.raises(WeylError, match="2903040 elements"):
        wg.subgroup_elements(E7_TYPE)
    with pytest.raises(WeylError, match="696729600 elements"):
        wg.min_coset_reps((), "right")
    monkeypatch.undo()
    assert len(wg.min_coset_reps(E7_TYPE, "left")) == 240


def test_enumeration_cap_boundary(monkeypatch):
    rd = build_root_datum("B3")
    monkeypatch.setattr(weyl, "ENUMERATION_CAP", 48)
    assert len(WeylGroup(rd).elements()) == 48
    monkeypatch.setattr(weyl, "ENUMERATION_CAP", 47)
    with pytest.raises(WeylError, match="48 elements"):
        WeylGroup(rd).elements()
    # K = {1}: |W_K| = 2 and 24 cosets
    monkeypatch.setattr(weyl, "ENUMERATION_CAP", 23)
    assert len(WeylGroup(rd).subgroup_elements((0,))) == 2
    with pytest.raises(WeylError, match="24 elements"):
        WeylGroup(rd).min_coset_reps((0,), "left")


def composed_walls(wg, w):
    """The positive roots a with l(w s_a) = l(w) - 1, by composing w s_a."""
    return tuple(a for a in wg.rd.positive
                 if wg.length(wg.compose(w, wg.reflection(a))) == wg.length(w) - 1)


@pytest.mark.parametrize("preset, galois", [("C3", None), ("D4", "dswap"), ("G2-explicit", None),
                                            ("A3", "flip"), ("A5", None), ("B4", None)])
def test_lower_covers_are_the_composed_walls(preset, galois):
    _, wg = group(preset, galois)
    for w in wg.elements():
        assert wg.lower_reflections(w) == composed_walls(wg, w)


def test_lower_covers_on_e8_are_the_composed_walls():
    # |W(E8)| is too large to enumerate, so take 300 elements from random
    # words, seeded, of every length up to past l(w0) = 120
    _, wg = group("E8-explicit")
    rng = random.Random(8)
    for _ in range(300):
        w = wg.from_word([rng.randrange(8) for _ in range(rng.randint(0, 150))])
        assert wg.lower_reflections(w) == composed_walls(wg, w)


@pytest.mark.parametrize("preset, galois", [("C3", None), ("D4", "dswap")])
def test_length_of_a_wall_is_the_inversion_set_difference(preset, galois):
    # l(w s_a) = |N(w) ^ N(s_a)| with N(x) = {b > 0 : x(b) < 0}, read off
    # root images and compared with the composed length
    rd, wg = group(preset, galois)
    pos = set(rd.positive)

    def inversions(x):
        return {b for b in rd.positive if wg.root_image(x, b) not in pos}
    for w in wg.elements():
        for a in rd.positive:
            s = wg.reflection(a)
            assert wg.length(wg.compose(w, s)) == len(inversions(w) ^ inversions(s))


def test_reflection_tables_are_built_on_first_use():
    # a fresh group holds only its simple reflections; reflection() and
    # lower_reflections() build the positive reflections, _down_sets builds
    # only the keys x -> key(x s_b), from the roots, and a walk by simple
    # reflections alone (min_coset_reps) builds none of the three
    tables = ("_reflections", "_reflection_keys", "_reflection_inversions")
    rd = build_root_datum("A5")

    def built(wg):
        return {t for t in tables if t in vars(wg)}
    wg = WeylGroup(rd)
    assert built(wg) == set()
    wg.longest_element()
    wg.min_coset_reps((0, 1, 2))
    assert built(wg) == set()
    wg = WeylGroup(rd)
    wg.reflection(rd.positive[-1])
    assert built(wg) == {"_reflections"}
    wg = WeylGroup(rd)
    wg.lower_reflections(wg.longest_element())
    assert built(wg) == {"_reflections", "_reflection_inversions"}
    wg = WeylGroup(rd)
    wg._down_sets({}, [wg.longest_element()])
    assert built(wg) == {"_reflection_keys"}
    # each reflection is s_i s_c s_i for c = s_i(b) of lower height, as the
    # action of reflect on the roots, and a key getter reads key(x s_b)
    height = {b: sum(rd.coeffs_of[b]) for b in rd.positive}
    for j, b in enumerate(rd.positive):
        s_b = wg.reflection(b)
        assert s_b == wg._perm_of(lambda v: reflect(rd, b, v))
        for i, alpha in enumerate(rd.simple_roots):
            c = reflect(rd, alpha, b)
            if c in height and height[c] < height[b]:
                s_i = wg.simple_reflection(i)
                assert s_b == wg.compose(s_i, wg.compose(wg.reflection(c), s_i))
        for x in (wg.e, wg.longest_element(), wg.from_word([0, 2, 1, 4])):
            assert wg._reflection_keys[j](x) == wg.key(wg.compose(x, s_b))


@pytest.mark.parametrize("preset, galois", [("C3", None), ("A3", "flip"), ("D4", "dswap"),
                                            ("G2-explicit", None)])
def test_level_walk(preset, galois):
    rd, wg = group(preset, galois)
    n = rd.num_simple
    for K in ((), tuple(range(0, n, 2)), tuple(range(1, n, 2)), tuple(range(n))):
        lengths = Counter(wg.length(w) for w in wg.subgroup_elements(K))
        assert [len(level) for level in wg._levels(K)] == \
            [lengths[l] for l in range(len(lengths))]
        pruned = wg._levels(range(n), K)
        for l, level in enumerate(pruned):
            assert all(wg.length(p) == l and wg.key(p) == k for k, p in level.items())
        assert wg.min_coset_reps(K, "left") == \
            tuple(w for w in wg.elements() if wg.is_min_left(w, K))


@pytest.mark.parametrize("preset, galois, Ks", [
    *((p, g, None) for p, g in DOWN_SET_GROUPS),
    ("C4", None, [(0, 1, 2)]), ("C5", None, [(0, 1, 2, 3)])])
def test_coset_walk_needs_no_descent_test(monkeypatch, preset, galois, Ks):
    # the walk of K\W refuses x s_i by Deodhar's lemma alone (x(alpha_i) a
    # simple root of K), so it still gives the filter of W by is_min_left, in
    # the same order, with both descent tests made to raise; Ks None is
    # every K, and C4 and C5 take the Siegel one
    _, wg = group(preset, galois)
    n = wg.rd.num_simple
    Ks = Ks or [K for r in range(n + 1) for K in itertools.combinations(range(n), r)]
    expected = [tuple(w for w in wg.elements() if wg.is_min_left(w, K)) for K in Ks]

    def refuse(*args):
        raise AssertionError("a descent test was called")
    monkeypatch.setattr(WeylGroup, "is_min_left", refuse)
    monkeypatch.setattr(WeylGroup, "has_left_descent", refuse)
    assert [wg.min_coset_reps(K, "left") for K in Ks] == expected


def test_bruhat_leq_on_a_long_element():
    # on A50, l(w0) = 1,275: the descent criterion strips one left descent of
    # w0 per step, which a recursion could not do without overflowing the stack
    _, wg = group("A50")
    w0 = wg.longest_element()
    u = wg.compose(w0, wg.simple_reflection(0))
    assert wg.length(w0) == 1275 and wg.length(u) == 1274
    assert wg.bruhat_leq(u, w0)
    assert not wg.bruhat_leq(w0, u)


@pytest.mark.parametrize("preset, galois", DOWN_SET_GROUPS)
def test_down_sets_over_all_of_w(preset, galois):
    # every element of W carries its own bit, so each column of the keyed walk
    # is a whole Bruhat down-set; the key, a tuple at every rank (() for no
    # simple root), tells the elements apart
    _, wg = group(preset, galois)
    elts = wg.elements()
    keys = [wg.key(w) for w in elts]
    assert len(set(keys)) == len(elts)
    assert {(type(k), len(k)) for k in keys} == {(tuple, wg.rd.num_simple)}
    below = wg._down_sets({k: 1 << i for i, k in enumerate(keys)}, elts)
    for w, down in zip(elts, below):
        assert {u for i, u in enumerate(elts) if down >> i & 1} == subword_down_set(wg, w)


@pytest.mark.parametrize("preset, galois", DOWN_SET_GROUPS)
def test_down_sets_of_part_of_w(preset, galois):
    # the walk covers only the ideal below the requested elements, so ask for
    # shuffled parts of W: every element of length <= k, and random samples,
    # one with a repeated element; each column is still a whole down-set
    _, wg = group(preset, galois)
    elts = wg.elements()
    label = {wg.key(w): 1 << i for i, w in enumerate(elts)}
    oracle = {w: subword_down_set(wg, w) for w in elts}
    rng = random.Random(preset)
    parts = [[w for w in elts if wg.length(w) <= k]
             for k in range(wg.length(wg.longest_element()) + 1)]
    parts += [rng.sample(elts, rng.randint(1, len(elts))) for _ in range(3)]
    parts.append(parts[-1] + parts[-1][:1])
    for ws in parts:
        ws = rng.sample(ws, len(ws))
        below = wg._down_sets(label, ws)
        assert len(below) == len(ws)
        for w, down in zip(ws, below):
            assert {u for i, u in enumerate(elts) if down >> i & 1} == oracle[w]
    assert wg._down_sets(label, []) == []


def test_down_sets_compose_only_new_elements(monkeypatch):
    # the walk composes each element of its ideal once, as it first meets its
    # key, and reads the lower covers x s_a off x; so no element composes
    # nothing, w0 at most all of W, and the C4 elements of length <= 3 (their
    # own ideal) at most those elements
    _, wg = group("C4")
    w0 = wg.longest_element()
    short = [w for w in wg.elements() if wg.length(w) <= 3]
    calls = Counter()
    mul = weyl._mul
    monkeypatch.setattr(weyl, "_mul", lambda p, q: calls.update(["mul"]) or mul(p, q))
    assert wg._down_sets({}, []) == [] and calls["mul"] == 0
    assert wg._down_sets({}, [w0]) == [0]
    assert 0 < calls["mul"] <= wg.order() == 384
    calls.clear()
    assert wg._down_sets(dict.fromkeys(map(wg.key, short), 1), short) == [1] * len(short)
    assert 0 < calls["mul"] <= len(short) == 1 + 4 + 9 + 16


@pytest.mark.parametrize("preset, galois", DOWN_SET_GROUPS)
def test_ideal_levels_match_the_bruhat_oracle(preset, galois):
    # the ideal below a request is {x : x <= w for some requested w}, by
    # length; asked of random parts of W, one with a repeated element, of
    # nothing, and of parts holding w0, where it is W itself
    _, wg = group(preset, galois)
    elts = wg.elements()
    below = {w: {u for u in elts if wg.bruhat_leq(u, w)} for w in elts}
    w0 = wg.longest_element()
    rng = random.Random(preset)
    parts = [rng.sample(elts, rng.randint(1, len(elts))) for _ in range(4)]
    parts += [parts[-1] + parts[-1][:1], [], [w0], rng.sample(elts, len(elts) // 2) + [w0]]
    for ws in parts:
        ideal = set().union(*(below[w] for w in ws))
        levels = [list(level) for level in wg._ideal_levels(ws)]
        assert [set(level) for level in levels] == [
            {x for x in ideal if wg.length(x) == l}
            for l in range(max(map(wg.length, ws), default=-1) + 1)]
        assert sum(map(len, levels)) == len(ideal)


def test_hasse_walks_only_the_ideal_of_its_labels(monkeypatch):
    # on C5 Siegel the longest label w_{0,I} w0 has length 15, and its ideal
    # holds 1,082 elements, of the 2,882 of length <= 15 in W; the walk visits
    # the ideal and composes each of its elements once, but e and that label
    Z = datum("C5", (0, 1, 2, 3))
    wg, walked, calls = Z.wg, [], Counter()
    mul, ideal_levels, down_sets = weyl._mul, WeylGroup._ideal_levels, WeylGroup._down_sets

    def levels(self, ws):
        for level in ideal_levels(self, ws):
            walked.extend(level)
            yield level

    def counted(self, label, ws):
        start = calls["mul"]
        out = down_sets(self, label, ws)
        calls["down_sets"] += calls["mul"] - start
        return out

    monkeypatch.setattr(weyl, "_mul", lambda p, q: calls.update(["mul"]) or mul(p, q))
    monkeypatch.setattr(WeylGroup, "_ideal_levels", levels)
    monkeypatch.setattr(WeylGroup, "_down_sets", counted)
    poset = strata.hasse_diagram(Z)
    assert len(poset.strata) == 32 and poset.strata[-1].length == 15
    assert len(walked) == len(set(walked)) == 1082
    assert calls["down_sets"] == 1080
    monkeypatch.undo()
    assert sum(1 for w in wg.elements() if wg.length(w) <= 15) == 2882


@pytest.mark.parametrize("preset, galois", [("C3", None), ("A3", "flip"), ("A2-shear", None)])
def test_root_image_is_the_action(preset, galois):
    rd, wg = group(preset, galois)
    for w in wg.elements():
        for a in rd.roots:
            assert wg.root_image(w, a) == wg.act(w, a)
