import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import minrank as mr
from minrank.orbits import (
    _order_columns,
    _order_witnesses,
    increasing_path,
    random_increasing_path,
)

import oracles


@lru_cache(maxsize=None)
def pair_for(g_label, pairs):
    letter, rank = g_label[0], int(g_label[1:])
    diagram = mr.build_dynkin(letter, rank)
    sigma = mr.FoldingInvolution.from_pairs(diagram, list(pairs))
    report = mr.validate_candidate(diagram, sigma)
    assert report.ok, report.failed_check
    return report.pair


@lru_cache(maxsize=None)
def diagonal_pair(letter, rank):
    single = mr.build_dynkin(letter, rank)
    doubled = mr.disjoint_union(single, single)
    swap = mr.FoldingInvolution(tuple(list(range(rank, 2 * rank)) + list(range(rank))))
    report = mr.validate_candidate(doubled, swap)
    assert report.ok
    return report.pair


@lru_cache(maxsize=None)
def identity_pair(letter, rank):
    diagram = mr.build_dynkin(letter, rank)
    report = mr.validate_candidate(diagram, mr.FoldingInvolution.identity(diagram))
    assert report.ok
    return report.pair


@lru_cache(maxsize=None)
def graph_for(kind, letter, rank, pairs=()):
    if kind == "fold":
        pair = pair_for(f"{letter}{rank}", pairs)
    elif kind == "diag":
        pair = diagonal_pair(letter, rank)
    else:
        pair = identity_pair(letter, rank)
    return mr.build_graph(pair)


A3_PAIRS = (("1", "3"),)
B3_PAIRS = (("1", "3"),)


def test_a3_fold_has_three_orbits_with_the_right_dimensions():
    graph = graph_for("fold", "A", 3, A3_PAIRS)
    assert graph.d_g == 6
    assert graph.d_h == 4
    assert [v.dim for v in graph.vertices] == [4, 5, 6]
    assert [v.min_rep.word for v in graph.vertices] == [(), (0,), (1, 0)]


def test_a3_fold_edge_set():
    graph = graph_for("fold", "A", 3, A3_PAIRS)
    assert set(graph.edges) == {(0, 1, 0), (0, 1, 2), (1, 2, 1)}


def test_a3_fold_knop_action_table():
    graph = graph_for("fold", "A", 3, A3_PAIRS)
    v0, v1, v2 = graph.vertices
    table = {
        (0, 0): v1, (0, 1): v0, (0, 2): v1,
        (1, 0): v0, (1, 1): v2, (1, 2): v0,
        (2, 0): v2, (2, 1): v1, (2, 2): v2,
    }
    for (vid, alpha), target in table.items():
        assert mr.knop_action(graph, alpha, graph.vertices[vid]) == target


def test_a3_fold_closed_orbit_and_poincare():
    graph = graph_for("fold", "A", 3, A3_PAIRS)
    assert mr.closed_orbit(graph) == graph.vertices[0]
    pair = pair_for("A3", A3_PAIRS)
    assert mr.orbit_poincare(pair) == (1, 1, 1)


def test_b3_fold_dimensions_and_poincare():
    graph = graph_for("fold", "B", 3, B3_PAIRS)
    assert graph.d_g == 9
    assert graph.d_h == 6
    assert [v.dim for v in graph.vertices] == [6, 7, 8, 9]
    assert mr.orbit_poincare(pair_for("B3", B3_PAIRS)) == (1, 1, 1, 1)


def test_identity_pair_has_a_single_fixed_orbit():
    graph = graph_for("id", "A", 2)
    assert len(graph.vertices) == 1
    assert graph.edges == ()
    only = graph.vertices[0]
    assert only.dim == graph.d_g == graph.d_h
    for alpha in range(2):
        assert mr.knop_action(graph, alpha, only) == only


def test_diagonal_a1_has_two_orbits_swapped_by_both_generators():
    graph = graph_for("diag", "A", 1)
    assert [v.dim for v in graph.vertices] == [1, 2]
    closed, open_orbit = graph.vertices
    for alpha in range(2):
        assert mr.knop_action(graph, alpha, closed) == open_orbit
        assert mr.knop_action(graph, alpha, open_orbit) == closed


def test_diagonal_a2_graph_shape():
    graph = graph_for("diag", "A", 2)
    assert len(graph.vertices) == 6
    assert mr.orbit_poincare(diagonal_pair("A", 2)) == (1, 2, 2, 1)
    assert len({(lo, hi) for lo, hi, _ in graph.edges}) == 8


def test_diagonal_bruhat_matches_the_subword_oracle():
    graph = graph_for("diag", "A", 2)
    pair = diagonal_pair("A", 2)
    rs_h = mr.build_root_system(pair.h_colored.diagram)
    W_h = mr.generate_weyl(rs_h)
    n = pair.h_colored.diagram.rank

    def h_element(vertex):
        left = W_h.identity
        right = W_h.identity
        for j in vertex.min_rep.word:
            if j < n:
                left = W_h.product(left, W_h.generators[j])
            else:
                right = W_h.product(right, W_h.generators[j - n])
        return W_h.product(left, W_h.inverse(right))

    elements = [h_element(v) for v in graph.vertices]
    assert len({w.key for w in elements}) == len(graph.vertices) == W_h.order
    for vp, wp in zip(graph.vertices, elements):
        for v, w in zip(graph.vertices, elements):
            expected = wp.key in oracles.bruhat_lower_set(W_h, w)
            assert mr.bruhat_leq(graph, vp, v) == expected


def test_bruhat_leq_is_reflexive_and_bounded_by_the_closed_orbit():
    graph = graph_for("fold", "B", 3, B3_PAIRS)
    closed = mr.closed_orbit(graph)
    for v in graph.vertices:
        assert mr.bruhat_leq(graph, v, v)
        assert mr.bruhat_leq(graph, closed, v)


def test_bruhat_leq_rejects_an_invalid_explicit_path():
    graph = graph_for("fold", "A", 3, A3_PAIRS)
    top = graph.vertices[-1]
    good = increasing_path(graph, top)
    assert mr.bruhat_leq(graph, graph.vertices[0], top, path=good)
    with pytest.raises(ValueError):
        mr.bruhat_leq(graph, graph.vertices[0], top, path=(0, 0, 0))


def test_random_paths_agree_with_the_canonical_path():
    graph = graph_for("diag", "A", 2)
    rng = random.Random(7)
    for v in graph.vertices:
        canonical = {
            vp.coset_id for vp in graph.vertices if mr.bruhat_leq(graph, vp, v)
        }
        for _ in range(5):
            path = random_increasing_path(graph, v, rng)
            via_path = {
                vp.coset_id
                for vp in graph.vertices
                if mr.bruhat_leq(graph, vp, v, path=path)
            }
            assert via_path == canonical


def test_verify_pair_reports_all_checks_green():
    report = mr.verify_pair(pair_for("A3", A3_PAIRS))
    assert report.ok
    assert report.orbit_count == 3
    assert report.q == (1, 1, 1)
    assert len(report.checks) == 11
    assert all(passed for _, passed in report.checks)
    obj = mr.report_to_json(report)
    assert obj["orbits"] == 3
    assert obj["Q"] == [1, 1, 1]
    assert obj["ok"] is True
    assert set(obj["checks"]) == {name for name, _ in report.checks}


def test_poincare_triple_factorization():
    p_g, p_h, q, ok = mr.poincare_triple(pair_for("B3", B3_PAIRS))
    assert ok
    assert q == (1, 1, 1, 1)
    assert oracles.poly_mul(q, p_h) == p_g
    assert p_g == oracles.poincare_product("B", 3)
    assert p_h == oracles.poincare_product("G", 2)


def test_graph_to_json_shape():
    graph = graph_for("fold", "A", 3, A3_PAIRS)
    obj = mr.graph_to_json(graph)
    assert [v["id"] for v in obj["vertices"]] == [0, 1, 2]
    assert [v["dim"] for v in obj["vertices"]] == [4, 5, 6]
    assert obj["dG"] == 6
    assert obj["dH"] == 4
    assert obj["Q"] == [1, 1, 1]
    assert [tuple(e) for e in obj["edges"]] == [(0, 1, "1"), (0, 1, "3"), (1, 2, "2")]


def test_graph_to_dot_golden():
    graph = graph_for("fold", "A", 3, A3_PAIRS)
    assert mr.graph_to_dot(graph) == (
        "digraph orbits {\n"
        "  rankdir=BT;\n"
        '  "c0/d4";\n'
        '  "c1/d5";\n'
        '  "c2/d6";\n'
        '  "c0/d4" -> "c1/d5" [label="1"];\n'
        '  "c0/d4" -> "c1/d5" [label="3"];\n'
        '  "c1/d5" -> "c2/d6" [label="2"];\n'
        "}\n"
    )


GRAPH_KEYS = [
    ("fold", "A", 3, A3_PAIRS),
    ("fold", "B", 3, B3_PAIRS),
    ("diag", "A", 2, ()),
    ("id", "C", 2, ()),
]

graph_keys_st = st.sampled_from(GRAPH_KEYS)


@given(graph_keys_st, st.data())
def test_knop_action_is_an_involution(key, data):
    """Acting twice by the same simple reflection returns the starting orbit."""
    graph = graph_for(*key)
    v = data.draw(st.sampled_from(graph.vertices))
    alpha = data.draw(st.integers(0, graph.pair.g_diagram.rank - 1))
    assert mr.knop_action(graph, alpha, mr.knop_action(graph, alpha, v)) == v


@given(graph_keys_st, st.data())
def test_order_respects_dimension(key, data):
    """Vp <= V forces dim Vp <= dim V, with equality only at Vp = V."""
    graph = graph_for(*key)
    vp = data.draw(st.sampled_from(graph.vertices))
    v = data.draw(st.sampled_from(graph.vertices))
    if mr.bruhat_leq(graph, vp, v):
        assert vp.dim <= v.dim
        if vp.dim == v.dim:
            assert vp == v


@given(graph_keys_st, st.data())
def test_edges_step_dimension_by_one(key, data):
    """Every cover edge raises dimension by exactly one."""
    graph = graph_for(*key)
    if not graph.edges:
        return
    lo, hi, _ = data.draw(st.sampled_from(graph.edges))
    assert graph.vertices[hi].dim == graph.vertices[lo].dim + 1


# --- the order columns --------------------------------------------------------


def reachable_along(graph, path):
    """Reference column: raise the closed orbit along every label of the
    path, walking the whole path from scratch."""
    current = {mr.closed_orbit(graph).coset_id}
    for j in path:
        raised = set()
        for cid in current:
            t = graph.action[cid][j]
            if t != cid and graph.vertices[t].dim == graph.vertices[cid].dim + 1:
                raised.add(t)
        current |= raised
    return frozenset(current)


A7_PAIRS = (("1", "7"), ("2", "6"), ("3", "5"))


def test_order_columns_agree_with_the_from_scratch_walk(classified6):
    pairs = [p for p in classified6 if p.g_diagram.rank <= 6]
    assert len(pairs) == 35
    pairs += [pair_for("A7", A7_PAIRS), diagonal_pair("A", 4)]
    for pair in pairs:
        graph = mr.build_graph(pair)
        cols = _order_columns(graph)
        assert len(cols) == len(graph.vertices)
        for v in graph.vertices:
            col = cols[v.coset_id]
            members = {a for a in range(col.bit_length()) if col >> a & 1}
            expected = reachable_along(graph, increasing_path(graph, v))
            assert members == expected, (pair.g_diagram.type_label, v.coset_id)


# a three-vertex chain 0 < 1 < 2 with covers 0 -s0-> 1 -s1-> 2
CHAIN_ACTION = ((1, 0), (0, 2), (2, 1))
CHAIN_DIMS = [0, 1, 2]
CHAIN_EDGES = ((0, 1, 0), (1, 2, 1))
CHAIN_COLS = [0b001, 0b011, 0b111]


def test_order_witnesses_pass_on_a_chain():
    assert _order_witnesses(CHAIN_COLS, CHAIN_EDGES, CHAIN_ACTION, CHAIN_DIMS) == {}


@pytest.mark.parametrize(
    "cols,name,witness",
    [
        ([0b001, 0b011, 0b011], "order_reflexive", (2,)),
        ([0b011, 0b011, 0b111], "order_antisymmetric", (1, 0)),
        ([0b001, 0b011, 0b110], "order_transitive", (0, 1, 2)),
    ],
)
def test_order_witnesses_name_a_planted_fault(cols, name, witness):
    found = _order_witnesses(cols, CHAIN_EDGES, CHAIN_ACTION, CHAIN_DIMS)
    assert found[name] == witness


def test_order_witnesses_name_the_edge_whose_raise_differs():
    action = ((1, 0), (0, 1), (2, 1))  # s1 no longer raises vertex 1
    found = _order_witnesses(CHAIN_COLS, CHAIN_EDGES, action, CHAIN_DIMS)
    assert found == {"order_path_independent": (1, 2, 1)}


def order_results(report):
    return {name: passed for name, passed in report.checks if name.startswith("order_")}


def test_verify_pair_reports_a_corrupted_action_entry_with_its_edge(patch_graph):
    # s_3 no longer raises the closed orbit of A3 -> C2, so raising its
    # column by label 3 misses vertex 1, above it along the edge (0, 1, 3)
    def corrupt(graph):
        action = [list(row) for row in graph.action]
        action[0][2] = 0
        return tuple(tuple(row) for row in action)

    patch_graph(action=corrupt)
    report = mr.verify_pair(pair_for("A3", A3_PAIRS))
    assert order_results(report) == {
        "order_reflexive": True,
        "order_antisymmetric": True,
        "order_transitive": True,
        "order_path_independent": False,
    }
    assert report.witnesses == (("order_path_independent", (0, 1, "3")),)
    obj = mr.report_to_json(report)
    assert obj["witnesses"] == {"order_path_independent": [0, 1, "3"]}


def test_verify_pair_reports_a_missing_bottom_instead_of_raising(patch_graph):
    # without the edges into vertex 1 both 0 and 1 are minimal
    patch_graph(edges=lambda graph: tuple(e for e in graph.edges if e[1] != 1))
    report = mr.verify_pair(pair_for("A3", A3_PAIRS))
    assert not report.ok
    assert dict(report.checks)["unique_minimum"] is False
    assert set(order_results(report).values()) == {False}
    assert report.witnesses == ()


def test_verify_pair_reports_a_word_that_does_not_descend(patch_graph):
    # vertex 2's word now starts with s1, which fixes it
    def misword(graph):
        top = graph.vertices[2]
        rep = dataclasses.replace(top.min_rep, word=(0, 1))
        return graph.vertices[:2] + (dataclasses.replace(top, min_rep=rep),)

    patch_graph(vertices=misword)
    report = mr.verify_pair(pair_for("A3", A3_PAIRS))
    assert set(order_results(report).values()) == {False}
    assert dict(report.checks)["unique_minimum"] is True
    assert report.witnesses == ()


def test_passing_report_json_has_no_witnesses():
    obj = mr.report_to_json(mr.verify_pair(pair_for("A3", A3_PAIRS)))
    assert "witnesses" not in obj
