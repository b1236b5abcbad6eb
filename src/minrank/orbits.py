"""Orbit model of a validated pair: cosets, the simple-reflection action,
the graded orbit graph, and the cancellation order.

Vertices are the left cosets of the embedded folded Weyl group; a simple
reflection acts by left multiplication.  The cosets and the action come
from a Todd-Coxeter table on the Coxeter presentation of W(g), and P_G and
P_H from parabolic chains, so no group is ever listed.  The dimension of a
vertex is the positive-root count of the folded system plus the minimal
representative length, so the identity coset sits at the bottom and the
longest-element coset at the top.  Every construction here asserts the gradings it relies
on instead of assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .folding import MinimalRankPair, pair_to_json
from .weyl import (
    DEFAULT_BUDGET,
    coset_table,
    coset_words,
    diagram_data,
    is_coxeter_action,
    is_palindromic,
    length_histogram,
    order_within_budget,
    poly_mul,
)


@dataclass(frozen=True)
class MinRep:
    """Minimal representative of a coset, by its lex-first reduced word."""

    word: tuple[int, ...]


@dataclass(frozen=True)
class OrbitVertex:
    coset_id: int
    min_rep: MinRep
    dim: int


@dataclass(frozen=True, eq=False)
class OrbitGraph:
    """Coset graph with the precomputed left-multiplication action.

    ``action[cid][j]`` is the coset id of s_j times coset cid; ``edges``
    hold (lower id, upper id, simple index) with a dim gap of exactly 1.
    """

    pair: MinimalRankPair
    vertices: tuple[OrbitVertex, ...]
    edges: tuple[tuple[int, int, int], ...]
    d_g: int
    d_h: int
    action: tuple[tuple[int, ...], ...]


def build_graph(pair: MinimalRankPair, budget: int = DEFAULT_BUDGET) -> OrbitGraph:
    """Grade the cosets of the embedded folded group into the orbit graph.

    The cosets are a Todd-Coxeter table of W(g) over the subgroup the
    folded words generate, never a listing of W(g): the table validation
    built to certify the embedding order (``pair.cosets``), or, for a pair
    exempt from that check, one built here, whose rows count against
    ``budget``.  Vertex ids follow (length, word) of the lex-first minimal
    representative.  Raises BudgetExceededError, before any table is
    built, when |W(g)| or |W(h)| from the parabolic chain is over
    ``budget``; ValueError if a moved coset changes minimal length by other
    than 1, against the simple-edge grading.  A graph cached in the ambient
    diagram's ``diagram_data`` is returned as the same object.
    """
    order_within_budget(pair.g_diagram, budget)
    order_within_budget(pair.h_colored.diagram, budget)
    data = diagram_data(pair.g_diagram)
    cached = data.graphs.get(pair.sigma.mapping)
    if cached is not None:
        return cached
    table = pair.cosets
    if table is None:
        table = coset_table(pair.g_diagram.cartan, pair.wh_generators, budget=budget)
    words = coset_words(table)
    order = sorted(range(len(table)), key=lambda c: (len(words[c]), words[c]))
    new_id = sorted(range(len(order)), key=order.__getitem__)  # inverse of order
    d_h = len(diagram_data(pair.h_colored.diagram).root_system.positive_roots)
    dims = [d_h + len(words[c]) for c in order]
    action = tuple(tuple(new_id[t] for t in table[c]) for c in order)
    edges: list[tuple[int, int, int]] = []
    for cid, row in enumerate(action):
        up = []  # each edge is read once, from its lower end
        for j, t in enumerate(row):
            if dims[t] == dims[cid] + 1:
                up.append((cid, t, j))
            elif t != cid and dims[t] != dims[cid] - 1:
                lo, hi = (cid, t) if dims[cid] < dims[t] else (t, cid)
                raise ValueError(
                    f"edge {lo}-{hi} has dim gap {dims[hi] - dims[lo]}, "
                    "model inconsistency"
                )
        edges += sorted(up)
    graph = OrbitGraph(
        pair=pair,
        vertices=tuple(
            OrbitVertex(coset_id=cid, min_rep=MinRep(words[c]), dim=dims[cid])
            for cid, c in enumerate(order)
        ),
        edges=tuple(edges),
        d_g=len(data.root_system.positive_roots),
        d_h=d_h,
        action=action,
    )
    data.graphs[pair.sigma.mapping] = graph
    return graph


def knop_action(graph: OrbitGraph, alpha: int, V: OrbitVertex) -> OrbitVertex:
    """Vertex of the coset s_alpha times the coset of V (may be V itself)."""
    return graph.vertices[graph.action[V.coset_id][alpha]]


def closed_orbit(graph: OrbitGraph) -> OrbitVertex:
    """The unique vertex with no incoming edge; checked, not assumed."""
    has_incoming = {hi for _, hi, _ in graph.edges}
    minimal = [v for v in graph.vertices if v.coset_id not in has_incoming]
    if len(minimal) != 1:
        raise ValueError(f"expected one minimal vertex, found {len(minimal)}")
    bottom = minimal[0]
    if bottom.dim != graph.d_h:
        raise ValueError("minimal vertex is not at the bottom dimension")
    return bottom


def _dim_histogram(graph: OrbitGraph) -> tuple[int, ...]:
    return length_histogram(v.dim - graph.d_h for v in graph.vertices)


def orbit_poincare(pair: MinimalRankPair, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Coefficient k counts vertices of dimension d_h + k."""
    return _dim_histogram(build_graph(pair, budget=budget))


# --- the cancellation order -----------------------------------------------------


def increasing_path(graph: OrbitGraph, V: OrbitVertex) -> tuple[int, ...]:
    """Canonical increasing path from the closed orbit to V, as simple indices.

    Follows the minimal representative word of each vertex downward, so the
    result is deterministic given the graph.
    """
    labels = []
    cur = V
    while cur.min_rep.word:
        j = cur.min_rep.word[0]
        down = graph.vertices[graph.action[cur.coset_id][j]]
        if down.dim != cur.dim - 1:
            raise ValueError("representative word does not descend the grading")
        labels.append(j)
        cur = down
    if cur.dim != graph.d_h:
        raise ValueError("descent did not reach the closed orbit")
    return tuple(reversed(labels))


def random_increasing_path(
    graph: OrbitGraph, V: OrbitVertex, rng: Random
) -> tuple[int, ...]:
    """A uniformly re-chosen increasing path from the closed orbit to V."""
    incoming: dict[int, list[tuple[int, int]]] = {}
    for lo, hi, j in graph.edges:
        incoming.setdefault(hi, []).append((lo, j))
    labels = []
    cur = V
    while cur.dim > graph.d_h:
        lo, j = rng.choice(sorted(incoming[cur.coset_id]))
        labels.append(j)
        cur = graph.vertices[lo]
    return tuple(reversed(labels))


def _members(col: int):
    """The coset ids in a column, in increasing order."""
    while col:
        low = col & -col
        yield low.bit_length() - 1
        col ^= low


def _raise_column(
    col: int, j: int, action: tuple[tuple[int, ...], ...], dims: list[int]
) -> int:
    """``col`` plus every s_j-image one grade above a member of ``col``.

    A column is a bitset of coset ids; raising the column of a label
    sequence by j gives the column of the sequence extended by j.
    """
    raised = col
    for c in _members(col):
        t = action[c][j]
        if dims[t] == dims[c] + 1:
            raised |= 1 << t
    return raised


def bruhat_leq(
    graph: OrbitGraph,
    Vp: OrbitVertex,
    V: OrbitVertex,
    path: tuple[int, ...] | None = None,
) -> bool:
    """Containment order: Vp below V iff some increasing subsequence of an
    increasing reference path to V ends at Vp.

    ``path`` overrides the canonical reference path; it must be an
    increasing path from the closed orbit to V.
    """
    bottom = closed_orbit(graph)
    if path is None:
        path = increasing_path(graph, V)
    else:
        cur = bottom
        for j in path:
            nxt = graph.vertices[graph.action[cur.coset_id][j]]
            if nxt.dim != cur.dim + 1:
                raise ValueError("label sequence is not an increasing path")
            cur = nxt
        if cur.coset_id != V.coset_id:
            raise ValueError("path does not end at the target vertex")
    dims = [v.dim for v in graph.vertices]
    col = 1 << bottom.coset_id
    for j in path:
        col = _raise_column(col, j, graph.action, dims)
    return bool(col >> Vp.coset_id & 1)


def _order_columns(graph: OrbitGraph) -> list[int] | None:
    """Column b of the containment order: bit a is set when a <= b.

    Column b holds the vertices reached by raising subsequences of b's
    canonical increasing path.  That path is its parent's path plus the
    first letter j of b's representative word, so each column is its
    parent's column raised by j, built in order of dimension.  ``None``
    when the graph has no unique closed orbit or a representative word
    does not descend to it.
    """
    try:
        bottom = closed_orbit(graph).coset_id
    except ValueError:
        return None
    dims = [v.dim for v in graph.vertices]
    cols = [0] * len(graph.vertices)
    for v in sorted(graph.vertices, key=lambda v: v.dim):
        word = v.min_rep.word
        if not word:
            if v.dim != graph.d_h:
                return None
            cols[v.coset_id] = 1 << bottom
            continue
        down = graph.action[v.coset_id][word[0]]
        if dims[down] != v.dim - 1:
            return None
        cols[v.coset_id] = _raise_column(cols[down], word[0], graph.action, dims)
    return cols


_ORDER_CHECKS = (
    "order_reflexive",
    "order_antisymmetric",
    "order_transitive",
    "order_path_independent",
)


def _order_witnesses(
    cols: list[int],
    edges: tuple[tuple[int, int, int], ...],
    action: tuple[tuple[int, ...], ...],
    dims: list[int],
) -> dict[str, tuple[int, ...]]:
    """The first counterexample to each order check that fails.

    Keys are ``_ORDER_CHECKS`` names; the witness is the vertex b with b
    not <= b, the pair (a, b) with a <= b <= a, the triple (x, a, b) with
    x <= a <= b but not x <= b, or the edge (lo, hi, j) along which
    raising lo's column by j does not give hi's column.  Costs one pass
    over the members of every column.
    """
    found: dict[str, tuple[int, ...]] = {}
    for b, col in enumerate(cols):
        if not col >> b & 1:
            found.setdefault("order_reflexive", (b,))
        for a in _members(col):
            if a != b and cols[a] >> b & 1:
                found.setdefault("order_antisymmetric", (a, b))
            outside = cols[a] & ~col
            if outside:
                x = (outside & -outside).bit_length() - 1
                found.setdefault("order_transitive", (x, a, b))
    for lo, hi, j in edges:
        if _raise_column(cols[lo], j, action, dims) != cols[hi]:
            found["order_path_independent"] = (lo, hi, j)
            break
    return found


# --- the verification report ----------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    pair: MinimalRankPair
    orbit_count: int
    d_g: int
    d_h: int
    p_g: tuple[int, ...]
    p_h: tuple[int, ...]
    q: tuple[int, ...]
    checks: tuple[tuple[str, bool], ...]
    # (check name, counterexample) for each failing order check that has
    # one; an edge's label is its vertex name, as in the graph export
    witnesses: tuple[tuple[str, tuple], ...] = ()

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def _poincare_step(
    graph: OrbitGraph,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], bool]:
    """(P_G, P_H, Q, Q*P_H == P_G): P_G and P_H from the parabolic chain
    of each diagram, Q from the grading of the orbit graph."""
    p_g = diagram_data(graph.pair.g_diagram).poincare
    p_h = diagram_data(graph.pair.h_colored.diagram).poincare
    q = _dim_histogram(graph)
    return p_g, p_h, q, poly_mul(q, p_h) == p_g


def _is_quotient_certificate(graph: OrbitGraph, order_g: int, order_h: int) -> bool:
    """The table certificate behind ``top_stabilizer_order``.

    (1) Every Coxeter relator fixes every coset, so the table is a W(g)-set;
    (2) every folded word fixes coset 0, so W_H lies in its stabilizer;
    (3) index * |W(h)| = |W(g)|, both orders from the parabolic chain.
    With the transitivity checked alongside, (1) and (3) give every
    stabilizer order |W(g)| / index = |W(h)|, the top vertex's included;
    with (2) and the embedding order certified at validation, the
    stabilizer of coset 0 is W_H, so the table is W(g)/W_H.
    """
    action = graph.action
    if not is_coxeter_action(graph.pair.g_diagram.cartan, action):
        return False
    for word in graph.pair.wh_generators:
        cid = 0
        for j in reversed(word):
            cid = action[cid][j]
        if cid != 0:
            return False
    return len(action) * order_h == order_g


def verify_pair(pair: MinimalRankPair, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Run every structural check the orbit model promises.

    P_G and P_H come from parabolic chains, independent of the orbit
    table, so ``q_times_ph_equals_pg`` is not a tautology.  A stabilizer
    count is trivially right on a coset table, so ``top_stabilizer_order``
    asks for a unique top vertex, a transitive action and the table
    certificate of ``_is_quotient_certificate``, which together prove that
    every stabilizer, the top vertex's included, has order |W(h)|.
    Failures become report entries; nothing raises on a false check.
    """
    graph = build_graph(pair, budget=budget)
    n = len(graph.vertices)

    p_g, p_h, q, factorization_ok = _poincare_step(graph)

    checks: list[tuple[str, bool]] = []
    checks.append(("q_times_ph_equals_pg", factorization_ok))
    checks.append(("q_palindromic", is_palindromic(q)))

    # transitivity of the action, from the bottom coset
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for cid in frontier:
            for t in graph.action[cid]:
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    checks.append(("action_transitive", len(seen) == n))

    # stabilizer of the top vertex has order |W(h)|, by the table certificate
    top_count = sum(1 for v in graph.vertices if v.dim == graph.d_g)
    checks.append(
        (
            "top_stabilizer_order",
            top_count == 1
            and len(seen) == n
            and _is_quotient_certificate(graph, sum(p_g), sum(p_h)),
        )
    )

    has_incoming = {hi for _, hi, _ in graph.edges}
    has_outgoing = {lo for lo, _, _ in graph.edges}
    minimal = [v for v in graph.vertices if v.coset_id not in has_incoming]
    maximal = [v for v in graph.vertices if v.coset_id not in has_outgoing]
    checks.append(
        ("unique_minimum", len(minimal) == 1 and minimal[0].dim == graph.d_h)
    )
    checks.append(
        ("unique_maximum", len(maximal) == 1 and maximal[0].dim == graph.d_g)
    )
    checks.append(
        (
            "edge_grading",
            all(
                graph.vertices[hi].dim - graph.vertices[lo].dim == 1
                for lo, hi, _ in graph.edges
            ),
        )
    )

    # the containment order on bitset columns; see _order_witnesses
    cols = _order_columns(graph)
    found: dict[str, tuple] = {}
    if cols is not None:
        found = _order_witnesses(
            cols, graph.edges, graph.action, [v.dim for v in graph.vertices]
        )
        if "order_path_independent" in found:
            lo, hi, j = found["order_path_independent"]
            found["order_path_independent"] = (lo, hi, pair.g_diagram.vertices[j])
    for name in _ORDER_CHECKS:
        checks.append((name, cols is not None and name not in found))

    return VerifyReport(
        pair=pair,
        orbit_count=n,
        d_g=graph.d_g,
        d_h=graph.d_h,
        p_g=p_g,
        p_h=p_h,
        q=q,
        checks=tuple(checks),
        witnesses=tuple(
            (name, found[name]) for name in _ORDER_CHECKS if name in found
        ),
    )


def poincare_triple(
    pair: MinimalRankPair, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], bool]:
    """(P_G, P_H, Q, Q*P_H == P_G) for a validated pair."""
    return _poincare_step(build_graph(pair, budget=budget))


def report_to_json(report: VerifyReport) -> dict:
    obj = {
        "pair": pair_to_json(report.pair),
        "orbits": report.orbit_count,
        "dG": report.d_g,
        "dH": report.d_h,
        "P_G": list(report.p_g),
        "P_H": list(report.p_h),
        "Q": list(report.q),
        "checks": {name: passed for name, passed in report.checks},
        "ok": report.ok,
    }
    if report.witnesses:
        obj["witnesses"] = {name: list(w) for name, w in report.witnesses}
    return obj


# --- export ----------------------------------------------------------------------


def graph_to_json(graph: OrbitGraph) -> dict:
    names = graph.pair.g_diagram.vertices
    return {
        "vertices": [
            {
                "id": v.coset_id,
                "dim": v.dim,
                "min_word": [names[j] for j in v.min_rep.word],
            }
            for v in graph.vertices
        ],
        "edges": [[lo, hi, names[j]] for lo, hi, j in graph.edges],
        "dG": graph.d_g,
        "dH": graph.d_h,
        "Q": list(_dim_histogram(graph)),
    }


def graph_to_dot(graph: OrbitGraph) -> str:
    names = [
        name.replace("\\", "\\\\").replace('"', '\\"')
        for name in graph.pair.g_diagram.vertices
    ]
    lines = ["digraph orbits {", "  rankdir=BT;"]
    for v in graph.vertices:
        lines.append(f'  "c{v.coset_id}/d{v.dim}";')
    for lo, hi, j in graph.edges:
        a, b = graph.vertices[lo], graph.vertices[hi]
        lines.append(
            f'  "c{a.coset_id}/d{a.dim}" -> "c{b.coset_id}/d{b.dim}"'
            f' [label="{names[j]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
