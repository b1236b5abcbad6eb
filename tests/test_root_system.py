import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

import minrank as mr
from minrank.root_system import (
    _bond_invariant,
    _identification_candidates,
    diagram_from_json,
    diagram_to_json,
    identify_component,
    parse_type,
    string_pairing,
    typed_components,
    typed_label,
)

import oracles

CONNECTED_TYPES = [
    ("A", 1), ("A", 2), ("C", 2), ("G", 2),
    ("A", 3), ("B", 3), ("C", 3),
    ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
    ("A", 5), ("B", 5), ("C", 5), ("D", 5),
    ("A", 6), ("B", 6), ("C", 6), ("D", 6), ("E", 6),
]

types_st = st.sampled_from(CONNECTED_TYPES)


def rs_of(letter, rank):
    return mr.build_root_system(mr.build_dynkin(letter, rank))


def test_cartan_matrices_match_standard_conventions():
    assert mr.build_dynkin("G", 2).cartan == ((2, -1), (-3, 2))
    assert mr.build_dynkin("C", 2).cartan == ((2, -1), (-2, 2))
    assert mr.build_dynkin("B", 3).cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert mr.build_dynkin("C", 3).cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert mr.build_dynkin("F", 4).cartan == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_e6_adjacency_has_branch_at_the_fourth_vertex():
    cartan = mr.build_dynkin("E", 6).cartan
    edges = {
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if cartan[i][j] != 0
    }
    assert edges == {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}


def test_d4_is_a_fork():
    cartan = mr.build_dynkin("D", 4).cartan
    degree = [sum(1 for j in range(4) if i != j and cartan[i][j]) for i in range(4)]
    assert sorted(degree) == [1, 1, 1, 3]
    assert degree[1] == 3


def test_out_of_range_ranks_are_rejected():
    for letter, rank in [("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("A", 0), ("H", 2)]:
        with pytest.raises(ValueError):
            mr.build_dynkin(letter, rank)


def test_low_rank_aliases_are_accepted():
    assert mr.build_dynkin("B", 2).cartan == ((2, -2), (-1, 2))
    d3 = mr.build_dynkin("D", 3)
    assert len(mr.build_root_system(d3).roots) == 12


@pytest.mark.parametrize(
    "letter,rank", [("A", 17), ("D", 13), ("B", 13), ("C", 13), ("E", 8)]
)
def test_root_closure_admits_finite_types_with_more_roots_than_e8(letter, rank):
    """A17, D13, B13 and C13 have 306, 312, 338 and 338 roots."""
    rs = mr.build_root_system(mr.build_dynkin(letter, rank))
    # a finite type has sum(d - 1) positive roots over its degrees d
    assert len(rs.roots) == 2 * sum(d - 1 for d in oracles.degrees(letter, rank))


def test_malformed_cartan_is_rejected():
    with pytest.raises(ValueError):
        mr.DynkinDiagram("X2", ((2, -1), (0, 2)), ("1", "2"))
    with pytest.raises(ValueError):
        mr.DynkinDiagram("X2", ((2, 1), (1, 2)), ("1", "2"))
    with pytest.raises(ValueError):
        mr.DynkinDiagram("X1", ((1,),), ("1",))


@pytest.mark.parametrize(
    "letter,rank", CONNECTED_TYPES + [("E", 7), ("E", 8), ("B", 8), ("D", 8)]
)
def test_root_count_matches_reflection_closure_oracle(letter, rank):
    rs = rs_of(letter, rank)
    assert set(rs.roots) == set(oracles.root_closure(rs.diagram.cartan))


def test_oracle_root_closure_raises_past_its_bound():
    cartan = mr.build_dynkin("A", 3).cartan
    with pytest.raises(ValueError, match="exceeded 5 roots"):
        oracles.root_closure(cartan, bound=5)
    assert len(oracles.root_closure(cartan, bound=12)) == 12


def test_disjoint_union_concatenates():
    left = mr.build_dynkin("C", 2)
    union = mr.disjoint_union(left, mr.build_dynkin("A", 1))
    assert union.type_label == "C2+A1"
    assert union.vertices == ("1", "2", "3")
    rs = mr.build_root_system(union)
    assert len(rs.roots) == 8 + 2


def test_positive_roots_are_half_of_all_roots():
    rs = rs_of("B", 3)
    assert len(rs.positive_roots) == 9
    negatives = {mr.root_system.negate(r) for r in rs.positive_roots}
    assert negatives | set(rs.positive_roots) == set(rs.roots)


def test_pairing_on_simples_reproduces_the_cartan_matrix():
    rs = rs_of("G", 2)
    simples = rs.simple_roots
    for i, a in enumerate(simples):
        for j, b in enumerate(simples):
            assert mr.pairing(rs, a, b) == rs.diagram.cartan[i][j]


def test_string_pairing_special_cases():
    rs = rs_of("A", 2)
    alpha = rs.simple_roots[0]
    assert string_pairing(rs.root_set, alpha, alpha) == 2
    assert string_pairing(rs.root_set, mr.root_system.negate(alpha), alpha) == -2


def test_pairing_rejects_non_roots():
    rs = rs_of("A", 2)
    with pytest.raises(ValueError):
        mr.pairing(rs, (5, 5), rs.simple_roots[0])


def test_reflect_requires_a_simple_root():
    rs = rs_of("A", 2)
    long_root = (1, 1)
    with pytest.raises(ValueError):
        mr.reflect(rs, long_root, rs.simple_roots[0])


def test_reflect_raises_when_the_root_set_is_not_closed():
    rs = rs_of("A", 2)
    broken = mr.RootSystem(
        diagram=rs.diagram,
        roots=rs.roots,
        positive_roots=rs.positive_roots,
        root_set=rs.root_set - {(1, 1)},
    )
    with pytest.raises(ValueError, match="left the root set"):
        mr.reflect(broken, rs.simple_roots[0], rs.simple_roots[1])


def test_is_orthogonal():
    rs = rs_of("A", 3)
    a1, a2, a3 = rs.simple_roots
    assert mr.is_orthogonal(rs, a1, a3)
    assert not mr.is_orthogonal(rs, a1, a2)


def test_diagram_json_roundtrip():
    diagram = mr.build_dynkin("F", 4)
    assert diagram_from_json(diagram_to_json(diagram)) == diagram
    bad = diagram_to_json(diagram)
    bad["rank"] = 3
    with pytest.raises(ValueError):
        diagram_from_json(bad)


def test_identify_component_normalizes_vertex_order():
    b3 = mr.build_dynkin("B", 3)
    perm = (2, 0, 1)
    scrambled = tuple(
        tuple(b3.cartan[perm[i]][perm[j]] for j in range(3)) for i in range(3)
    )
    hit = identify_component(scrambled, (0, 1, 2))
    assert hit is not None
    letter, rank, relabel = hit
    assert (letter, rank) == ("B", 3)
    recovered = tuple(
        tuple(scrambled[relabel[i]][relabel[j]] for j in range(3)) for i in range(3)
    )
    assert recovered == b3.cartan


def test_identify_component_rejects_affine_matrix():
    affine = ((2, -2), (-2, 2))
    assert identify_component(affine, (0, 1)) is None


def identify_by_permutations(cartan, indices):
    """Reference for identify_component: try every relabeling in lex order."""
    r = len(indices)
    for letter, rank in _identification_candidates(r):
        std = mr.build_dynkin(letter, rank).cartan
        for p in itertools.permutations(range(r)):
            if all(
                cartan[indices[p[i]]][indices[p[j]]] == std[i][j]
                for i in range(r)
                for j in range(r)
            ):
                return letter, rank, p
    return None


TYPES_UP_TO_8 = CONNECTED_TYPES + [
    ("A", 7), ("B", 7), ("C", 7), ("D", 7), ("E", 7),
    ("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 8),
]


def place_blocks(n, *placed):
    """An n x n Cartan matrix holding each (std, slots) block, with standard
    vertex i of std at index slots[i]."""
    cartan = [[2 if a == b else 0 for b in range(n)] for a in range(n)]
    for std, slots in placed:
        for i in range(len(std)):
            for j in range(len(std)):
                cartan[slots[i]][slots[j]] = std[i][j]
    return tuple(map(tuple, cartan))


@given(st.sampled_from(TYPES_UP_TO_8), st.integers(0, 2), st.integers(0, 2**32))
@example(("A", 8), 0, 1)
@example(("D", 8), 1, 2)
@example(("E", 8), 2, 3)
def test_identify_component_agrees_with_the_permutation_search(tp, extra, seed):
    """A relabeled standard block, placed at scattered indices of a larger
    matrix, gets the same (letter, rank, perm) as the exhaustive search."""
    std = mr.build_dynkin(*tp).cartan
    n = len(std) + extra
    slots = random.Random(seed).sample(range(n), len(std))
    cartan = place_blocks(n, (std, slots))
    indices = tuple(sorted(slots))
    hit = identify_component(cartan, indices)
    assert hit == identify_by_permutations(cartan, indices)
    assert hit[:2] == tp


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_identify_component_tells_d_from_e_with_the_same_bond_invariant(rank):
    """D_n and E_n are simply laced with one branch vertex, so they share the
    bond invariant; a matrix holding one of each, relabeled, still gets each
    block's own type and lex-min perm."""
    d, e = mr.build_dynkin("D", rank).cartan, mr.build_dynkin("E", rank).cartan
    slots = random.Random(rank).sample(range(2 * rank), 2 * rank)
    d_slots, e_slots = slots[:rank], slots[rank:]
    cartan = place_blocks(2 * rank, (d, d_slots), (e, e_slots))
    d_idx, e_idx = tuple(sorted(d_slots)), tuple(sorted(e_slots))
    assert _bond_invariant(cartan, d_idx) == _bond_invariant(cartan, e_idx)
    for letter, indices in (("D", d_idx), ("E", e_idx)):
        hit = identify_component(cartan, indices)
        assert hit[:2] == (letter, rank)
        assert hit == identify_by_permutations(cartan, indices)


AFFINE_BLOCKS = {
    "affine A1": ((2, -2), (-2, 2)),
    "affine A2": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    "affine D4": (
        (2, 0, 0, 0, -1),
        (0, 2, 0, 0, -1),
        (0, 0, 2, 0, -1),
        (0, 0, 0, 2, -1),
        (-1, -1, -1, -1, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(AFFINE_BLOCKS))
def test_identify_component_finds_no_finite_type_for_affine_blocks(name):
    cartan = AFFINE_BLOCKS[name]
    indices = tuple(range(len(cartan)))
    assert identify_component(cartan, indices) is None
    assert identify_by_permutations(cartan, indices) is None


@given(types_st, st.data())
def test_reflection_is_an_involution(tp, data):
    """s_j applied twice fixes every root."""
    rs = rs_of(*tp)
    beta = data.draw(st.sampled_from(rs.roots))
    alpha = data.draw(st.sampled_from(rs.simple_roots))
    assert mr.reflect(rs, alpha, mr.reflect(rs, alpha, beta)) == beta


@given(types_st, st.data())
def test_roots_have_a_consistent_sign(tp, data):
    """Every root has all-nonnegative or all-nonpositive coordinates."""
    rs = rs_of(*tp)
    beta = data.draw(st.sampled_from(rs.roots))
    assert all(c >= 0 for c in beta) or all(c <= 0 for c in beta)


@given(types_st, st.data())
def test_pairing_vanishes_symmetrically(tp, data):
    """pairing(a, b) = 0 exactly when pairing(b, a) = 0."""
    rs = rs_of(*tp)
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from(rs.roots))
    assert (mr.pairing(rs, a, b) == 0) == (mr.pairing(rs, b, a) == 0)


def identification_candidates_by_hand(rank):
    """The per-rank type list as it was written out before it was derived
    from the rank table: B2 and D3 are left out, named C2 and A3."""
    if rank == 1:
        return [("A", 1)]
    if rank == 2:
        return [("A", 2), ("C", 2), ("G", 2)]
    if rank == 3:
        return [("A", 3), ("B", 3), ("C", 3)]
    out = [("A", rank), ("B", rank), ("C", rank), ("D", rank)]
    if rank == 4:
        out.append(("F", 4))
    if rank in (6, 7, 8):
        out.append(("E", rank))
    return out


@pytest.mark.parametrize("rank", range(1, 13))
def test_identification_candidates_are_derived_from_the_rank_table(rank):
    assert _identification_candidates(rank) == identification_candidates_by_hand(rank)


@pytest.mark.parametrize(
    "text, parsed", [("A3", ("A", 3)), ("E6", ("E", 6)), ("A03", ("A", 3)), ("B13", ("B", 13))]
)
def test_parse_type_reads_letter_and_rank(text, parsed):
    assert parse_type(text) == parsed


@pytest.mark.parametrize("text", ["", "a3", "H3", "A", "3", "A3+A1", " A3", "A-1", "A3\n"])
def test_parse_type_refuses_a_malformed_name(text):
    with pytest.raises(ValueError) as info:
        parse_type(text)
    assert str(info.value) == f"malformed type {text!r}, expected e.g. A3 or E6"


def test_typed_label_names_the_components_in_order():
    c2_a1 = mr.disjoint_union(mr.build_dynkin("B", 2), mr.build_dynkin("A", 1))
    assert typed_label(typed_components(c2_a1.cartan)) == "C2+A1"
    d3 = mr.build_dynkin("D", 3)
    assert typed_label(typed_components(d3.cartan)) == "A3"
    assert typed_components(((2, -2), (-2, 2))) is None
