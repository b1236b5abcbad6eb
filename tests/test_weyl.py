import gc
import weakref
from functools import lru_cache, reduce

import pytest
from hypothesis import given, strategies as st

import minrank as mr
from minrank import weyl
from minrank.root_system import _reflect_root
from minrank.weyl import (
    BudgetExceededError,
    Subgroup,
    compose,
    coset_decomposition,
    is_palindromic,
    perm_closure,
)

import oracles

SMALL_TYPES = [
    ("A", 1), ("A", 2), ("C", 2), ("G", 2),
    ("A", 3), ("B", 3), ("C", 3),
    ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
]

CONNECTED_RANK5 = SMALL_TYPES + [("A", 5), ("B", 5), ("C", 5), ("D", 5)]

small_types_st = st.sampled_from(SMALL_TYPES)


@lru_cache(maxsize=None)
def group_of(letter, rank):
    rs = mr.build_root_system(mr.build_dynkin(letter, rank))
    return mr.generate_weyl(rs)


def sorted_elements(W):
    return sorted(W.elements.values(), key=lambda w: (len(w.word), w.word))


def subgroup(W, gens):
    """Subgroup of W generated by the elements ``gens``."""
    perms = perm_closure([g.perm for g in gens], len(W.identity.perm))
    return Subgroup(W, tuple(perms))


def min_rep_lengths(W, sub):
    """Length of each left coset's minimal representative, by coset id."""
    reps, _ = coset_decomposition(W, sub)
    return [len(w.word) for w in reps]


def inversion_count(W, w):
    """Number of positive roots sent to negative roots by w."""
    rs = W.root_system
    pos = {rs.root_index[r] for r in rs.positive_roots}
    return sum(1 for i in pos if w.perm[i] not in pos)


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
    assert info.value.partial_count == 0
    # after a listing, the same prediction refuses again and names the order
    assert mr.generate_weyl(rs).order == 24
    with pytest.raises(BudgetExceededError) as info:
        mr.generate_weyl(rs, budget=5)
    assert info.value.partial_count == 0
    assert "order 24" in str(info.value)


def test_generate_weyl_refuses_e8_before_listing_anything(monkeypatch):
    def refuse(rs):
        raise AssertionError("reflection_perms was called")

    monkeypatch.setattr(weyl, "reflection_perms", refuse)
    rs = mr.build_root_system(mr.build_dynkin("E", 8))
    with pytest.raises(BudgetExceededError) as info:
        mr.generate_weyl(rs)
    assert info.value.partial_count == 0
    assert str(oracles.weyl_order("E", 8)) in str(info.value)


def tuple_enumeration(rs):
    """(word, perm) of each element, in discovery order, by the breadth-first
    closure written on tuple permutations: compose(p, q) = p[q[i]] for each i."""
    columns = rs.diagram.cartan_columns
    gens = [
        tuple(rs.root_index[_reflect_root(columns, r, j)] for r in rs.roots)
        for j in range(rs.diagram.rank)
    ]
    identity = tuple(range(len(rs.roots)))
    elements = {bytes(identity): ((), identity)}
    frontier = [((), identity)]
    while frontier:
        new = []
        for word, perm in frontier:
            for i, g in enumerate(gens):
                p = tuple(perm[k] for k in g)
                if bytes(p) not in elements:
                    elements[bytes(p)] = el = (word + (i,), p)
                    new.append(el)
        frontier = new
    return list(elements.values())


@pytest.mark.parametrize("letter,rank", CONNECTED_RANK5)
def test_byte_enumeration_matches_the_tuple_enumeration(letter, rank):
    W = group_of(letter, rank)
    got = [(w.word, tuple(w.perm)) for w in W.elements.values()]
    assert got == tuple_enumeration(W.root_system)


def test_reflection_perms_refuses_more_than_256_roots():
    """A16 has 272 roots, more than a byte can index."""
    rs = mr.build_root_system(mr.build_dynkin("A", 16))
    assert len(rs.roots) == 272
    with pytest.raises(ValueError, match="A16"):
        weyl.reflection_perms(rs)
    with pytest.raises(BudgetExceededError):
        mr.generate_weyl(rs)


def test_a_listed_group_does_not_outlive_its_caller():
    rs = mr.build_root_system(mr.build_dynkin("B", 3))
    W = mr.generate_weyl(rs)
    ref = weakref.ref(W)
    del W
    gc.collect()
    assert ref() is None
    first, second = mr.generate_weyl(rs), mr.generate_weyl(rs)
    assert first is not second
    assert first.elements == second.elements


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
    dihedral = subgroup(W, [W.product(s1, s3), s2])
    assert dihedral.order == 8

    W2 = group_of("A", 1)
    rs_pair = mr.build_root_system(
        mr.disjoint_union(mr.build_dynkin("A", 1), mr.build_dynkin("A", 1))
    )
    Wp = mr.generate_weyl(rs_pair)
    t1, t2 = Wp.generators
    assert subgroup(Wp, [Wp.product(t1, t2)]).order == 2
    assert W2.order == 2


def test_full_subgroup_covers_the_group():
    W = group_of("C", 2)
    sub = subgroup(W, W.generators)
    assert sub.order == W.order
    assert min_rep_lengths(W, sub) == [0]


def test_parabolic_coset_lengths_in_a3():
    W = group_of("A", 3)
    s1, s2, _ = W.generators
    parabolic = subgroup(W, [s1, s2])
    assert parabolic.order == 6
    assert sorted(min_rep_lengths(W, parabolic)) == [0, 1, 2, 3]


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_coset_reps_are_minimal_in_every_coset(letter, rank):
    W = group_of(letter, rank)
    gens = list(W.generators)
    parabolic = subgroup(W, gens[:-1])
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
    assert len(w.word) == inversion_count(W, w)


@given(small_types_st, st.data())
def test_inverse_preserves_length(tp, data):
    """w and w^{-1} have the same length."""
    W = group_of(*tp)
    w = data.draw(st.sampled_from(sorted_elements(W)))
    assert len(W.inverse(w).word) == len(w.word)


@given(small_types_st, st.data())
def test_product_against_compose(tp, data):
    """Group product matches permutation composition with the right factor acting first."""
    W = group_of(*tp)
    elems = sorted_elements(W)
    u = data.draw(st.sampled_from(elems))
    v = data.draw(st.sampled_from(elems))
    assert W.product(u, v).perm == compose(u.perm, v.perm)


# Every connected type the height formula is checked on: 55 in all.
POINCARE_TYPES = (
    [("A", n) for n in range(1, 21)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(3, 13)]
    + [("D", n) for n in range(4, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("letter,rank", POINCARE_TYPES)
def test_weyl_poincare_matches_the_degree_product(letter, rank):
    rs = mr.build_root_system(mr.build_dynkin(letter, rank))
    assert weyl.weyl_poincare(rs) == oracles.poincare_product(letter, rank)


@pytest.mark.parametrize(
    "parts", [[("A", 1), ("G", 2), ("B", 3)], [("D", 4), ("D", 4)]]
)
def test_weyl_poincare_of_a_product_is_the_product(parts):
    diagram = reduce(mr.disjoint_union, [mr.build_dynkin(*t) for t in parts])
    expected = reduce(oracles.poly_mul, [oracles.poincare_product(*t) for t in parts])
    assert weyl.weyl_poincare(mr.build_root_system(diagram)) == expected


def test_p_w_and_the_order_check_build_no_coset_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coset_table was called")

    monkeypatch.setattr(weyl, "coset_table", refuse)
    monkeypatch.setattr(weyl, "diagram_data", lru_cache(maxsize=None)(weyl.DiagramData))
    e8 = mr.build_dynkin("E", 8)
    assert weyl.diagram_data(e8).poincare == oracles.poincare_product("E", 8)
    order = oracles.weyl_order("E", 8)
    assert weyl.order_within_budget(e8, order) == order
    with pytest.raises(BudgetExceededError):
        weyl.order_within_budget(e8, order - 1)
