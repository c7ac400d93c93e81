"""Permutation combinatorics: codes, shapes, classes, flags, words."""

from __future__ import annotations

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub import perms, quantum
from qschub.errors import (
    BadPartition,
    BadPermutation,
    Not321Avoiding,
    NotGrassmannian,
    QschubError,
)
from qschub.poly import parse


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_basics():
    assert perms.identity(4) == (1, 2, 3, 4)
    assert perms.longest(4) == (4, 3, 2, 1)
    assert perms.length(perms.longest(5)) == 10
    assert perms.as_text((1, 3, 5, 2, 4)) == "13524"
    assert perms.from_text("13524") == (1, 3, 5, 2, 4)
    assert perms.from_text("10,2,1,3,4,5,6,7,8,9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    with pytest.raises(BadPermutation, match=r"of 1\.\.4"):
        perms.from_text("1325")
    # an empty entry and a digit int() refuses are typed refusals too
    for bad in ("1,,2", "1\u00b2", "", "1a"):
        with pytest.raises(BadPermutation, match="not a permutation"):
            perms.from_text(bad)
    with pytest.raises(BadPermutation):
        perms.check_perm((1, 1, 2))


@settings(max_examples=100, deadline=None)
@given(perm_strategy)
def test_group_laws(wl):
    w = tuple(wl)
    n = len(w)
    assert perms.compose(w, perms.inverse(w)) == perms.identity(n)
    assert perms.length(w) == perms.length(perms.inverse(w))
    assert perms.from_code(perms.code(w)) == w
    assert sum(perms.code(w)) == perms.length(w)


def test_compose_convention():
    # (u v)(i) = u(v(i))
    u, v = (2, 1, 3), (1, 3, 2)
    assert perms.compose(u, v) == (2, 3, 1)
    assert perms.compose(v, u) == (3, 1, 2)


def test_code_and_shape():
    w = (1, 3, 5, 2, 4)
    assert perms.code(w) == (0, 1, 2, 0, 0)
    assert perms.shape(w) == (2, 1)
    assert perms.descents((1, 3, 5, 2, 4)) == [3]
    assert perms.min_rank((1, 3, 5, 2, 4, 6)) == 5
    assert perms.trim((2, 1, 3, 4)) == (2, 1)


def test_embeddings():
    assert perms.cross_embed((2, 1), perms.identity(2)) == (2, 1, 3, 4)
    assert perms.cross_embed(perms.identity(2), (2, 1)) == (1, 2, 4, 3)
    assert perms.cross_embed((2, 1), (2, 1)) == (2, 1, 4, 3)
    u = (2, 3, 1)
    assert perms.cross_embed(u, (1,)) == (2, 3, 1, 4)


def test_pattern_avoidance():
    assert perms.avoids((1, 2, 3), (3, 2, 1))
    assert not perms.avoids((3, 2, 1), (3, 2, 1))
    assert not perms.avoids((2, 1, 4, 3), (2, 1, 4, 3))
    assert perms.is_vexillary((3, 1, 4, 2))  # 3142 avoids 2143
    assert not perms.is_vexillary((2, 1, 4, 3))
    assert perms.is_dominant((3, 1, 2)) and not perms.is_dominant((1, 3, 2))
    assert perms.is_grassmannian((2, 4, 1, 3)) and not perms.is_grassmannian((3, 1, 4, 2))


def test_class_counts():
    assert len(perms.enumerate_class(4, "rv")) == 21
    assert len(perms.enumerate_class(5, "rv")) == 79
    for n in range(1, 8):
        assert len(perms.enumerate_class(n, "321-avoiding")) == _catalan(n)
        assert len(perms.enumerate_class(n, "132-avoiding")) == _catalan(n)
    assert [perms.as_text(w) for w in perms.enumerate_class(2, "dominant")] == ["12", "21"]
    with pytest.raises(QschubError, match="unknown class"):
        perms.enumerate_class(4, "nosuch")
    # refused with the CLI's message, not answered as rank 0
    with pytest.raises(QschubError, match="rank -1 is negative"):
        perms.enumerate_class(-1, "rv")


def test_negative_ranks_are_refused():
    # below enumerate_class too, a negative rank is not answered as rank 0
    with pytest.raises(QschubError, match="rank -1 is negative"):
        perms.permutations(-1)
    with pytest.raises(QschubError, match="rank -2 is negative"):
        perms.longest(-2)
    assert list(perms.permutations(0)) == [()]
    assert perms.longest(0) == ()
    # the quantum entry points that take a rank refuse a negative one too
    with pytest.raises(QschubError, match="rank -1 is negative"):
        quantum.quantize(parse("x1^2+3"), -1)
    with pytest.raises(QschubError, match="rank -2 is negative"):
        quantum.q_monomial((), -2)
    with pytest.raises(QschubError, match="rank -1 is negative"):
        quantum.stable_approx((2, 1), -1)
    assert perms.check_rank(0) == 0


def test_classify_consistency():
    for w in perms.permutations(5):
        tags = {name for name, test in perms.CLASS_TESTS.items() if test(w)}
        if "dominant" in tags or "grassmannian" in tags:
            assert "vexillary" in tags
        if "rv" in tags:
            assert "vexillary" in tags


def test_flag_theta_readings():
    assert perms.flag_theta((3, 4, 1, 2)) == (1, 2)
    # the furthest later position with a larger code entry
    assert perms.flag_theta((1, 3, 5, 6, 2, 4)) == (3, 4, 4)
    # flags are weakly increasing and bounded by the rank
    for w in perms.permutations(5):
        if not perms.is_vexillary(w) or not perms.shape(w):
            continue
        th = perms.flag_theta(w)
        assert len(th) == len(perms.shape(w))
        assert all(th[i] <= th[i + 1] for i in range(len(th) - 1))
        assert all(1 <= t <= len(w) for t in th)


def test_skew_data():
    outer, inner, flags = perms.skew_data((2, 4, 1, 3))
    assert len(outer) == len(inner) == len(flags)
    assert all(o >= i >= 0 for o, i in zip(outer, inner))
    with pytest.raises(Not321Avoiding):
        perms.skew_data((3, 2, 1))


def test_phi_hat():
    # phi positions are weakly increasing on 321-avoiding permutations
    for w in perms.permutations(5):
        if not perms.is_321_avoiding(w):
            continue
        f = perms.phi_hat(w)
        assert all(f[i] <= f[i + 1] for i in range(len(f) - 1))


def test_reduced_words():
    w0 = perms.longest(3)
    words = perms.reduced_words(w0)
    assert sorted(words) == [(1, 2, 1), (2, 1, 2)]
    for word in words:
        v = perms.identity(3)
        for i in word:
            v = perms.times_s(v, i)
        assert v == w0
    # compatible sequences: weakly increasing b with b_k <= a_k and strict at ascents
    assert perms.compatible_sequences((1, 2, 1)) == []
    assert perms.compatible_sequences((2, 1, 2)) == [(1, 1, 2)]
    assert perms.compatible_sequences((2, 2)) == [(1, 1), (1, 2), (2, 2)]
    assert perms.compatible_sequences(()) == [()]


def test_weak_factorizations():
    for n in range(1, 6):
        for w in perms.permutations(n):
            lw = perms.length(w)
            winv = perms.inverse(w)
            brute = {
                (u, perms.compose(u, winv))
                for u in perms.permutations(n)
                if perms.length(u) + perms.length(perms.compose(u, winv)) == lw
            }
            pairs = perms.weak_factorizations(w)
            assert len(pairs) == len(set(pairs)) and set(pairs) == brute, w
            assert all(perms.compose(perms.inverse(v), u) == w for u, v in pairs)
            # breadth-first from w: u's length never rises along the list
            assert pairs[0] == (w, perms.identity(n))
            lengths = [perms.length(u) for u, _ in pairs]
            assert lengths == sorted(lengths, reverse=True)


def test_word_enumerations_free_their_memos():
    gc.disable()
    try:
        gc.collect()
        assert len(perms.reduced_words((3, 1, 4, 2))) == 2
        assert gc.collect() == 0
        assert perms.compatible_sequences((3, 1, 3)) == [(1, 1, 2), (1, 1, 3)]
        assert gc.collect() == 0
        assert len(perms.partitions_in_box(3, 2)) == 10  # binom(5, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_partitions():
    assert perms.check_partition((3, 1)) == (3, 1)
    assert perms.check_partition(()) == ()
    for bad in ((1, 3), (2, -1)):
        with pytest.raises(BadPartition):
            perms.check_partition(bad)
    assert perms.conjugate((3, 1)) == (2, 1, 1)
    assert perms.conjugate(perms.conjugate((4, 2, 1))) == (4, 2, 1)
    box = perms.partitions_in_box(2, 2)
    assert len(box) == 6  # binom(4, 2)
    assert perms.fits_box((2, 2), 2, 2) and not perms.fits_box((3,), 2, 2)


def test_grassmannian_perms():
    w = perms.grassmannian_perm((2, 2), 2, 4)
    assert w == (3, 4, 1, 2)
    assert perms.grassmannian_descent(w) == 2
    assert perms.shape(w) == (2, 2)
    assert perms.grassmannian_descent(perms.identity(3)) == 0
    with pytest.raises(NotGrassmannian):
        perms.grassmannian_descent((3, 1, 4, 2))
    for lam in perms.partitions_in_box(2, 3):
        if not lam:
            continue
        w = perms.grassmannian_perm(lam, 2, 5)
        assert perms.is_grassmannian(w)
        assert perms.shape(w) == lam
