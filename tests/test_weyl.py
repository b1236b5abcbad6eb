from functools import lru_cache, reduce

import pytest
from hypothesis import given, strategies as st

import minrank as mr
from minrank.weyl import (
    BudgetExceededError,
    compose,
    coset_decomposition,
    full_subgroup,
    inversion_count,
    is_palindromic,
    perm_closure,
)

import oracles

SMALL_TYPES = [
    ("A", 1), ("A", 2), ("C", 2), ("G", 2),
    ("A", 3), ("B", 3), ("C", 3),
    ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
]

small_types_st = st.sampled_from(SMALL_TYPES)


@lru_cache(maxsize=None)
def group_of(letter, rank):
    rs = mr.build_root_system(mr.build_dynkin(letter, rank))
    return mr.generate_weyl(rs)


def sorted_elements(W):
    return sorted(W.elements.values(), key=lambda w: (len(w.word), w.word))


@pytest.mark.parametrize("letter,rank", SMALL_TYPES + [("D", 5), ("B", 6), ("E", 6)])
def test_order_matches_degree_product_oracle(letter, rank):
    assert group_of(letter, rank).order == oracles.weyl_order(letter, rank)


@pytest.mark.parametrize("letter,rank", SMALL_TYPES)
def test_length_poincare_matches_product_formula(letter, rank):
    W = group_of(letter, rank)
    poly = mr.length_poincare(W)
    assert poly == oracles.poincare_product(letter, rank)
    assert is_palindromic(poly)
    assert sum(poly) == W.order


def test_a3_is_the_symmetric_group_on_four_letters():
    W = group_of("A", 3)
    assert W.order == 24
    s1, s2, s3 = W.generators
    e = W.identity

    def power(w, m):
        out = e
        for _ in range(m):
            out = W.product(out, w)
        return out

    assert power(W.product(s1, s2), 3) == e
    assert power(W.product(s2, s3), 3) == e
    assert power(W.product(s1, s3), 2) == e
    for s in (s1, s2, s3):
        assert W.product(s, s) == e


@pytest.mark.parametrize(
    "letter,rank,pairs",
    [("B", 3, {(0, 1): 3, (1, 2): 4, (0, 2): 2}), ("G", 2, {(0, 1): 6})],
)
def test_braid_orders_follow_the_cartan_matrix(letter, rank, pairs):
    W = group_of(letter, rank)
    for (i, j), m in pairs.items():
        w = W.identity
        for _ in range(m):
            w = W.product(w, W.product(W.generators[i], W.generators[j]))
        assert w == W.identity


def test_identity_has_the_empty_word():
    W = group_of("C", 2)
    assert W.identity.word == ()
    assert mr.length(W.identity) == 0


def test_words_are_bfs_minimal_and_lex_first():
    W = group_of("C", 2)
    words = sorted(w.word for w in W.elements.values())
    assert words == [
        (),
        (0,), (0, 1), (0, 1, 0), (0, 1, 0, 1),
        (1,), (1, 0), (1, 0, 1),
    ]


def test_word_recomputes_the_permutation():
    W = group_of("B", 3)
    for w in W.elements.values():
        rebuilt = reduce(W.product, (W.generators[j] for j in w.word), W.identity)
        assert rebuilt == w


def test_budget_exceeded_raises_with_partial_count():
    rs = mr.build_root_system(mr.build_dynkin("A", 3))
    with pytest.raises(BudgetExceededError) as info:
        mr.generate_weyl(rs, budget=5)
    assert info.value.partial_count >= 5
    # a cached group reports its true order, not the budget
    assert mr.generate_weyl(rs).order == 24
    with pytest.raises(BudgetExceededError) as info:
        mr.generate_weyl(rs, budget=5)
    assert info.value.partial_count == 24


def test_rank_cap_rejects_large_diagrams():
    rs = mr.build_root_system(mr.build_dynkin("E", 8))
    with pytest.raises(ValueError):
        mr.generate_weyl(rs)
    small = mr.build_root_system(mr.build_dynkin("A", 3))
    with pytest.raises(ValueError):
        mr.generate_weyl(small, rank_cap=2)
    assert mr.generate_weyl(small, rank_cap=3).order == 24


def test_perm_closure_budget():
    W = group_of("A", 3)
    gens = [s.perm for s in W.generators]
    n = len(W.identity.perm)
    assert len(perm_closure(gens, n)) == 24
    with pytest.raises(BudgetExceededError):
        perm_closure(gens, n, budget=10)


def test_subgroup_closure_examples():
    W = group_of("A", 3)
    s1, s2, s3 = W.generators
    dihedral = mr.subgroup_closure(W, [W.product(s1, s3), s2])
    assert dihedral.order == 8

    W2 = group_of("A", 1)
    rs_pair = mr.build_root_system(
        mr.disjoint_union(mr.build_dynkin("A", 1), mr.build_dynkin("A", 1))
    )
    Wp = mr.generate_weyl(rs_pair)
    t1, t2 = Wp.generators
    assert mr.subgroup_closure(Wp, [Wp.product(t1, t2)]).order == 2
    assert W2.order == 2


def test_full_subgroup_covers_the_group():
    W = group_of("C", 2)
    sub = full_subgroup(W)
    assert sub.order == W.order
    reps = mr.min_coset_reps(W, sub)
    assert [(cid, ln) for cid, _, ln in reps] == [(0, 0)]


def test_parabolic_coset_lengths_in_a3():
    W = group_of("A", 3)
    s1, s2, _ = W.generators
    parabolic = mr.subgroup_closure(W, [s1, s2])
    assert parabolic.order == 6
    reps = mr.min_coset_reps(W, parabolic)
    assert sorted(ln for _, _, ln in reps) == [0, 1, 2, 3]


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_coset_reps_are_minimal_in_every_coset(letter, rank):
    W = group_of(letter, rank)
    gens = list(W.generators)
    parabolic = mr.subgroup_closure(W, gens[:-1])
    reps, coset_of = coset_decomposition(W, parabolic)
    assert len(reps) * parabolic.order == W.order
    for w in W.elements.values():
        rep = reps[coset_of[w.key]]
        assert (len(rep.word), rep.word) <= (len(w.word), w.word)

    raw = oracles.count_left_cosets(
        [w.perm for w in W.elements.values()], list(parabolic.perms)
    )
    assert raw == len(reps)


@given(small_types_st, st.data())
def test_length_equals_inversion_count(tp, data):
    """len(word) counts the positive roots sent negative."""
    W = group_of(*tp)
    w = data.draw(st.sampled_from(sorted_elements(W)))
    assert mr.length(w) == inversion_count(W, w)


@given(small_types_st, st.data())
def test_inverse_preserves_length(tp, data):
    """w and w^{-1} have the same length."""
    W = group_of(*tp)
    w = data.draw(st.sampled_from(sorted_elements(W)))
    assert mr.length(W.inverse(w)) == mr.length(w)


@given(small_types_st, st.data())
def test_product_against_compose(tp, data):
    """Group product matches permutation composition with the right factor acting first."""
    W = group_of(*tp)
    elems = sorted_elements(W)
    u = data.draw(st.sampled_from(elems))
    v = data.draw(st.sampled_from(elems))
    assert W.product(u, v).perm == compose(u.perm, v.perm)
