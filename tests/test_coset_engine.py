"""The coset engine against the enumeration engine it replaced in the orbit
graphs: Todd-Coxeter tables and parabolic chains on one side, the listed
Weyl group, its embedded subgroup and the (length, lex) coset scan on the
other."""

import functools

import pytest

import minrank as mr
from minrank import folding, orbits, weyl
from minrank.weyl import (
    BudgetExceededError,
    chain_poincare,
    compose,
    coset_decomposition,
    coset_table,
    coset_words,
    coxeter_matrix,
    diagram_data,
    is_coxeter_action,
    length_poincare,
    perm_closure,
    perm_key,
    reflection_perms,
)

import oracles

CONNECTED_RANK6 = [
    ("A", 1), ("A", 2), ("C", 2), ("G", 2),
    ("A", 3), ("B", 3), ("C", 3),
    ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
    ("A", 5), ("B", 5), ("C", 5), ("D", 5),
    ("A", 6), ("B", 6), ("C", 6), ("D", 6), ("E", 6),
]


def root_system(letter, rank):
    return mr.build_root_system(mr.build_dynkin(letter, rank))


def reference_graph(pair):
    """Vertices (id, dim, word, perm), edges and action of the orbit graph,
    from the fully listed group."""
    rs = mr.build_root_system(pair.g_diagram)
    W = mr.generate_weyl(rs)
    subgroup, _ = mr.embed_weyl(pair, W)
    reps, coset_of = coset_decomposition(W, subgroup)
    d_h = len(mr.build_root_system(pair.h_colored.diagram).positive_roots)
    dims = [d_h + len(w.word) for w in reps]
    vertices = [(cid, dims[cid], w.word, w.perm) for cid, w in enumerate(reps)]
    action = [
        tuple(coset_of[perm_key(compose(s, w.perm))] for s in reflection_perms(rs))
        for w in reps
    ]
    edges = set()
    for cid, row in enumerate(action):
        for j, target in enumerate(row):
            if target != cid:
                lo, hi = sorted((cid, target), key=lambda c: dims[c])
                edges.add((lo, hi, j))
    return vertices, sorted(edges), action


def test_build_graph_agrees_with_group_enumeration_on_all_35_pairs(classified6):
    pairs = [p for p in classified6 if p.g_diagram.rank <= 6]
    assert len(pairs) == 35
    for pair in pairs:
        key = (pair.g_diagram.type_label, pair.family, pair.sigma.two_cycles)
        graph = mr.build_graph(pair)
        vertices, edges, action = reference_graph(pair)
        rs = mr.build_root_system(pair.g_diagram)
        refl = reflection_perms(rs)
        got = []
        for v in graph.vertices:
            perm = tuple(range(len(rs.roots)))
            for j in reversed(v.min_rep.word):
                perm = compose(refl[j], perm)
            got.append((v.coset_id, v.dim, v.min_rep.word, perm))
        assert got == vertices, key
        assert list(graph.edges) == edges, key
        assert list(graph.action) == action, key


@pytest.mark.parametrize("letter,rank", CONNECTED_RANK6)
def test_chain_poincare_matches_the_listed_group(letter, rank):
    rs = root_system(letter, rank)
    assert chain_poincare(rs) == length_poincare(mr.generate_weyl(rs))


@pytest.mark.parametrize("letter,rank", [("D", 7), ("E", 7), ("E", 8)])
def test_chain_order_matches_the_degree_product(letter, rank):
    rs = root_system(letter, rank)
    assert sum(chain_poincare(rs)) == oracles.weyl_order(letter, rank)
    assert chain_poincare(rs) == oracles.poincare_product(letter, rank)


def test_chain_poincare_of_a_product_is_the_product():
    b2, g2 = mr.build_dynkin("C", 2), mr.build_dynkin("G", 2)
    rs = mr.build_root_system(mr.disjoint_union(b2, g2))
    assert chain_poincare(rs) == oracles.poly_mul(
        oracles.poincare_product("C", 2), oracles.poincare_product("G", 2)
    )


def test_coxeter_matrix_reads_the_bonds():
    assert coxeter_matrix(mr.build_dynkin("G", 2).cartan) == ((1, 6), (6, 1))
    assert coxeter_matrix(mr.build_dynkin("B", 3).cartan) == (
        (1, 3, 2),
        (3, 1, 4),
        (2, 4, 1),
    )


def test_parabolic_coset_table_and_words():
    cartan = mr.build_dynkin("A", 3).cartan
    # W(A2) = <s_0, s_1> in W(A3): four cosets, lengths 0..3
    table = coset_table(cartan, [(0,), (1,)])
    assert len(table) == 4
    assert is_coxeter_action(cartan, table)
    words = coset_words(table)
    assert sorted(words, key=lambda w: (len(w), w)) == [(), (2,), (1, 2), (0, 1, 2)]
    # the trivial subgroup gives the regular action
    assert len(coset_table(cartan, [])) == 24


def test_is_coxeter_action_rejects_a_broken_table():
    cartan = mr.build_dynkin("A", 2).cartan
    assert is_coxeter_action(cartan, coset_table(cartan, []))
    # the sign action satisfies (s_0 s_1)^3 = 1
    assert is_coxeter_action(cartan, [[1, 1], [0, 0]])
    # s_0 swaps, s_1 fixes: both involutions, but (s_0 s_1)^3 = s_0
    assert not is_coxeter_action(cartan, [[1, 0], [0, 1]])
    # s_1 is not an involution
    assert not is_coxeter_action(cartan, [[1, 1], [0, 2], [2, 0]])


def test_coset_table_budget_counts_defined_rows():
    cartan = mr.build_dynkin("A", 3).cartan
    with pytest.raises(BudgetExceededError) as info:
        coset_table(cartan, [], budget=5)
    assert info.value.partial_count == 5


def test_build_graph_cache_is_shared_across_budgets():
    diagram = mr.build_dynkin("A", 3)
    sigma = mr.FoldingInvolution.from_pairs(diagram, [("1", "3")])
    pair = mr.validate_candidate(diagram, sigma).pair
    graph = mr.build_graph(pair, budget=100)
    assert mr.build_graph(pair, budget=24) is graph
    assert diagram_data(diagram).graphs[sigma.mapping] is graph
    with pytest.raises(BudgetExceededError) as info:
        mr.build_graph(pair, budget=23)
    assert "A3" in str(info.value) and "24" in str(info.value)


@pytest.fixture
def private_diagram_data(monkeypatch):
    """``diagram_data`` with a cache of its own for one test, so that clearing
    it keeps the groups and graphs the rest of the session has built."""
    private = functools.lru_cache(maxsize=None)(weyl.DiagramData)
    for module in (weyl, folding, orbits):
        monkeypatch.setattr(module, "diagram_data", private)
    return private


def test_cache_clear_drops_the_graphs_and_keeps_the_budget(private_diagram_data):
    diagram = mr.build_dynkin("A", 3)
    sigma = mr.FoldingInvolution.from_pairs(diagram, [("1", "3")])
    pair = mr.validate_candidate(diagram, sigma).pair
    graph = mr.build_graph(pair)
    assert private_diagram_data(diagram).graphs == {sigma.mapping: graph}
    private_diagram_data.cache_clear()
    rebuilt = mr.build_graph(pair)
    assert rebuilt is not graph
    assert mr.build_graph(pair) is rebuilt
    assert private_diagram_data(diagram).graphs == {sigma.mapping: rebuilt}
    with pytest.raises(BudgetExceededError):
        mr.build_graph(pair, budget=23)


def test_build_graph_never_lists_a_group():
    """D7 -> B6: seven orbits in W(D7) of order 322560, with no element listed."""
    diagram = mr.build_dynkin("D", 7)
    sigma = mr.FoldingInvolution.from_pairs(diagram, [("6", "7")])
    report = mr.validate_candidate(diagram, sigma)
    assert report.ok and report.pair.h_colored.diagram.type_label == "B6"
    graph = mr.build_graph(report.pair)
    assert [v.dim for v in graph.vertices] == list(range(36, 43))
    assert [len(v.min_rep.word) for v in graph.vertices] == list(range(7))
    assert diagram_data(diagram).group is None


# A9 has 3,628,800 elements, over the default budget.
LARGE_BUDGET = 10**7


def handed_pairs(classified6):
    """The 35 pairs of ambient rank <= 6, then D7_B6, E6_F4, A7_C4 and
    A9_C5 validated afresh, each carrying the table validation built."""
    pairs = [p for p in classified6 if p.g_diagram.rank <= 6]
    for letter, rank, cycles in (
        ("D", 7, [("6", "7")]),
        ("E", 6, [("1", "6"), ("3", "5")]),
        ("A", 7, [("1", "7"), ("2", "6"), ("3", "5")]),
        ("A", 9, [("1", "9"), ("2", "8"), ("3", "7"), ("4", "6")]),
    ):
        diagram = mr.build_dynkin(letter, rank)
        sigma = mr.FoldingInvolution.from_pairs(diagram, cycles)
        report = mr.validate_candidate(diagram, sigma, budget=LARGE_BUDGET)
        assert report.ok, (diagram.type_label, report.failed_check)
        pairs.append(report.pair)
    assert len(pairs) == 39
    return pairs


def set_based_graph(table, d_h):
    """Reference for ``build_graph``'s edge loop, as it was before each edge
    was read once: every moved coset is read from both of its ends into a
    set of (lower id, upper id, letter), then sorted.  Returns the dims,
    the edges and the action in (length, word) vertex order."""
    words = coset_words(table)
    order = sorted(range(len(table)), key=lambda c: (len(words[c]), words[c]))
    new_id = [0] * len(table)
    for cid, c in enumerate(order):
        new_id[c] = cid
    dims = [d_h + len(words[c]) for c in order]
    action = []
    edge_set = set()
    for cid, c in enumerate(order):
        row = tuple(new_id[t] for t in table[c])
        for j, target in enumerate(row):
            if target != cid:
                lo, hi = (cid, target) if dims[cid] < dims[target] else (target, cid)
                if dims[hi] - dims[lo] != 1:
                    raise ValueError(
                        f"edge {lo}-{hi} has dim gap {dims[hi] - dims[lo]}, "
                        "model inconsistency"
                    )
                edge_set.add((lo, hi, j))
        action.append(row)
    return dims, tuple(sorted(edge_set)), tuple(action)


def test_the_handed_table_changes_no_graph(private_diagram_data, classified6):
    """A pair carries validation's table exactly when its embedding order
    needed one, and the graph built from it is the graph built from a
    table made afresh."""
    from dataclasses import replace

    from minrank.folding import _order_is_known

    tables = 0
    for pair in handed_pairs(classified6):
        key = (pair.g_diagram.type_label, pair.sigma.mapping)
        assert (pair.cosets is None) == _order_is_known(pair.g_diagram, pair.sigma), key
        tables += pair.cosets is not None
        graph = mr.build_graph(pair, budget=LARGE_BUDGET)
        private_diagram_data(pair.g_diagram).graphs.clear()
        fresh = mr.build_graph(replace(pair, cosets=None), budget=LARGE_BUDGET)
        assert fresh is not graph, key
        for field in ("vertices", "edges", "action", "d_g", "d_h"):
            assert getattr(graph, field) == getattr(fresh, field), (key, field)
    assert tables == 11


def test_build_graph_runs_no_coset_enumeration_for_a_validated_fold(
    private_diagram_data, monkeypatch
):
    def refuse(*args, **kwargs):
        raise RuntimeError("build_graph enumerated the cosets again")

    for letter, rank, cycles in (
        ("A", 3, [("1", "3")]),
        ("D", 7, [("6", "7")]),
        ("E", 6, [("1", "6"), ("3", "5")]),
    ):
        diagram = mr.build_dynkin(letter, rank)
        sigma = mr.FoldingInvolution.from_pairs(diagram, cycles)
        pair = mr.validate_candidate(diagram, sigma).pair
        with monkeypatch.context() as patched:
            patched.setattr(orbits, "coset_table", refuse)
            graph = mr.build_graph(pair)
        assert len(graph.vertices) == len(pair.cosets)


def test_every_edge_is_read_once(classified6):
    """The edges read from their lower ends are the set-based edges, on the
    same pairs; each edge appears once."""
    for pair in handed_pairs(classified6):
        graph = mr.build_graph(pair, budget=LARGE_BUDGET)
        table = pair.cosets or coset_table(pair.g_diagram.cartan, pair.wh_generators)
        dims, edges, action = set_based_graph(table, graph.d_h)
        key = (pair.g_diagram.type_label, pair.sigma.mapping)
        assert [v.dim for v in graph.vertices] == dims, key
        assert graph.edges == edges, key
        assert graph.action == action, key
        assert len(set(graph.edges)) == len(graph.edges), key


def test_a_coset_two_grades_apart_raises_the_dim_gap(private_diagram_data):
    """A3 -> C2 has three cosets in a chain; pointing the top coset's
    fixed letter at the bottom coset makes an edge across two grades."""
    from dataclasses import replace

    diagram = mr.build_dynkin("A", 3)
    sigma = mr.FoldingInvolution.from_pairs(diagram, [("1", "3")])
    pair = mr.validate_candidate(diagram, sigma).pair
    table = [list(row) for row in pair.cosets]
    lengths = [len(w) for w in coset_words(table)]
    top = lengths.index(2)
    j = table[top].index(top)
    table[top][j] = lengths.index(0)
    message = "edge 0-2 has dim gap 2, model inconsistency"
    with pytest.raises(ValueError) as expected:
        set_based_graph(table, 4)
    assert str(expected.value) == message
    with pytest.raises(ValueError) as info:
        mr.build_graph(replace(pair, cosets=table))
    assert str(info.value) == message


def test_quotient_certificate_fails_on_each_broken_part():
    from dataclasses import replace

    from minrank.orbits import _is_quotient_certificate

    diagram = mr.build_dynkin("A", 3)
    sigma = mr.FoldingInvolution.from_pairs(diagram, [("1", "3")])
    graph = mr.build_graph(mr.validate_candidate(diagram, sigma).pair)
    assert _is_quotient_certificate(graph, 24, 8)
    # index * |W(h)| != |W(g)|
    assert not _is_quotient_certificate(graph, 24, 4)
    # a subgroup word that moves coset 0
    moved = replace(graph, pair=replace(graph.pair, wh_generators=((0,),)))
    assert not _is_quotient_certificate(moved, 24, 8)
    # an action that breaks a Coxeter relator
    action = [list(row) for row in graph.action]
    action[0][1], action[1][1] = 1, 0
    broken = replace(graph, action=tuple(tuple(row) for row in action))
    assert not _is_quotient_certificate(broken, 24, 8)


def embedding_candidates():
    """Every candidate of ambient rank <= 6 that reaches the embedding step
    of validation: connected diagrams, unions of two connected diagrams and
    the rank-2 table, each with every orthogonal involution, except those
    whose embedded order is known without a table (``_order_is_known``)."""
    from minrank.folding import _order_is_known, _orthogonal_involutions

    connected = [mr.build_dynkin(letter, rank) for letter, rank in CONNECTED_RANK6]
    diagrams = connected + [
        mr.disjoint_union(d1, d2)
        for i, d1 in enumerate(connected)
        for d2 in connected[i:]
        if d1.rank + d2.rank <= 6
    ]
    candidates = [(g, s) for g in diagrams for s in _orthogonal_involutions(g)]
    candidates += [(row.g, row.sigma) for row in mr.rank2_table()]
    for g, sigma in candidates:
        if _order_is_known(g, sigma):
            continue
        report = mr.validate_candidate(g, sigma)
        if report.ok or report.failed_check == "embed":
            yield g, sigma, report


def test_embedding_order_from_the_table_matches_the_closure():
    """|W(g)| / index of the folded words' coset table is the order of the
    group their root permutations generate."""
    from minrank.folding import _folded_presentation

    reached = 0
    for g, sigma, report in embedding_candidates():
        words = _folded_presentation(mr.restriction_map(g, sigma))[1]
        if report.ok:
            assert words == report.pair.wh_generators
        rs = mr.build_root_system(g)
        refl = reflection_perms(rs)
        gens = []
        for word in words:
            perm = tuple(range(len(rs.roots)))
            for j in word:
                perm = compose(perm, refl[j])
            gens.append(perm)
        order_g = sum(chain_poincare(rs))
        index = len(coset_table(g.cartan, words))
        assert order_g % index == 0
        closure_order = len(perm_closure(gens, len(rs.roots)))
        assert order_g // index == closure_order, (g.type_label, sigma.mapping)
        reached += 1
    assert reached >= 20
