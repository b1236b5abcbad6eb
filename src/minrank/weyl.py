"""Weyl groups as exact permutation groups on the indexed root set, and
coset enumeration on their Coxeter presentation.

Elements are keyed by their permutation of the roots, stored as ``bytes``
(no other module knows the format); each carries the first reduced word
found by breadth-first closure, which is also the lexicographically
smallest reduced word for that element.  The coset engine at the end of
this module works on words alone: it never lists the group, so its cost
grows with the number of cosets, not with |W|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

from .root_system import (
    DynkinDiagram,
    RootSystem,
    _reflect_root,
    build_root_system,
)

DEFAULT_BUDGET = 3_000_000

Perm = bytes  # perm[i] is the index of the image of root i


class BudgetExceededError(RuntimeError):
    """Raised when a group or coset table exceeds the configured element budget.

    ``partial_count`` is the number of elements or table rows that exist
    when the budget is hit: 0 when the order was predicted and nothing was
    built.
    """

    def __init__(self, message: str, partial_count: int) -> None:
        super().__init__(message)
        self.partial_count = partial_count


def _table(p: Perm) -> bytes:
    """``p`` padded to a 256-byte translation table."""
    return p.ljust(256, b"\0")


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation of 'apply q, then p'."""
    return q.translate(_table(p))


@dataclass(frozen=True)
class WeylElement:
    perm: Perm
    word: tuple[int, ...]

    @property
    def key(self) -> bytes:
        return self.perm


class WeylGroup:
    """Fully enumerated Weyl group of a root system."""

    def __init__(
        self,
        root_system: RootSystem,
        elements: dict[bytes, WeylElement],
        generators: tuple[WeylElement, ...],
    ) -> None:
        self.root_system = root_system
        self.elements = elements
        self.generators = generators
        self.identity = elements[bytes(range(len(root_system.roots)))]

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, w: WeylElement) -> WeylElement:
        inv = bytearray(len(w.perm))
        for i, j in enumerate(w.perm):
            inv[j] = i
        return self.elements[bytes(inv)]

    def product(self, u: WeylElement, v: WeylElement) -> WeylElement:
        """Group product u*v (v acts first on roots)."""
        return self.elements[compose(u.perm, v.perm)]


def reflection_perms(rs: RootSystem) -> tuple[Perm, ...]:
    """Permutation of the indexed roots induced by each simple reflection.

    Raises ValueError past 256 roots, which bytes cannot index; every such
    Weyl group has more than 10^10 elements, far too many to list.
    """
    if len(rs.roots) > 256:
        raise ValueError(f"{rs.diagram.type_label} has {len(rs.roots)} roots, over 256")
    index = rs.root_index
    columns = rs.diagram.cartan_columns
    return tuple(
        bytes(index[_reflect_root(columns, r, j)] for r in rs.roots)
        for j in range(rs.diagram.rank)
    )


def word_perm(rs: RootSystem, word: tuple[int, ...]) -> Perm:
    """Permutation of the indexed roots for the product of the word's simple
    reflections, its first letter acting last."""
    perms = reflection_perms(rs)
    return reduce(compose, (perms[j] for j in word), bytes(range(len(rs.roots))))


@dataclass(eq=False)
class DiagramData:
    """What is kept about one Dynkin diagram, each field built on first
    use: its root system, P_W from its root heights and the orbit graphs
    of its folds by ``sigma.mapping``.  No listed group is kept.
    """

    diagram: DynkinDiagram
    graphs: dict = field(default_factory=dict)

    @cached_property
    def root_system(self) -> RootSystem:
        return build_root_system(self.diagram)

    @cached_property
    def poincare(self) -> tuple[int, ...]:
        return weyl_poincare(self.root_system)


# The package's one module-level cache, keyed on the whole diagram, vertex
# names included.  diagram_data.cache_clear() drops every cached value.
diagram_data = lru_cache(maxsize=None)(DiagramData)


def generate_weyl(rs: RootSystem, budget: int = DEFAULT_BUDGET) -> WeylGroup:
    """Breadth-first closure of the simple reflections.

    Elements are discovered in (length, lex word) order; the stored word is
    the lex-min reduced word.  |W| is predicted from the root heights
    first, so a group over ``budget`` raises BudgetExceededError before any
    element is listed.  Each call lists the group anew; none is kept.
    """
    order_within_budget(rs.diagram, budget)
    gens = reflection_perms(rs)
    frontier = [WeylElement(bytes(range(len(rs.roots))), ())]
    elements = {frontier[0].perm: frontier[0]}
    while frontier:
        new: list[WeylElement] = []
        for w in frontier:
            table = _table(w.perm)
            for i, g in enumerate(gens):
                p = g.translate(table)
                if p not in elements:
                    el = WeylElement(p, w.word + (i,))
                    elements[p] = el
                    new.append(el)
        frontier = new
    return WeylGroup(rs, elements, tuple(elements[g] for g in gens))


def length_poincare(W: WeylGroup) -> tuple[int, ...]:
    """Coefficient k counts elements of length k."""
    return length_histogram(len(w.word) for w in W.elements.values())


# --- polynomial helpers (coefficient tuples, lowest degree first) -----------


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def length_histogram(lengths) -> tuple[int, ...]:
    """Coefficient k counts the entries of ``lengths`` equal to k."""
    counts = Counter(lengths)
    return tuple(counts[k] for k in range(max(counts) + 1))


def is_palindromic(p: tuple[int, ...]) -> bool:
    return tuple(reversed(p)) == tuple(p)


# --- subgroups and cosets ----------------------------------------------------


class Subgroup:
    """Explicit subgroup of a Weyl group, closed under the given generators."""

    def __init__(self, group: WeylGroup, perms: tuple[Perm, ...]) -> None:
        self.group = group
        self.perms = perms

    @property
    def order(self) -> int:
        return len(self.perms)


def perm_closure(
    generators: list[Perm], n: int, budget: int | None = None
) -> list[Perm]:
    """Closure of permutations of range(n) under composition, identity first."""
    identity = bytes(range(n))
    seen = {identity: None}  # a dict keeps the discovery order
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            table = _table(p)
            for g in generators:
                q = g.translate(table)
                if q not in seen:
                    if budget is not None and len(seen) >= budget:
                        raise BudgetExceededError(
                            "subgroup closure exceeded the element budget",
                            partial_count=len(seen),
                        )
                    seen[q] = None
                    new.append(q)
        frontier = new
    return list(seen)


def coset_decomposition(
    W: WeylGroup, W0: Subgroup
) -> tuple[list[WeylElement], dict[bytes, int]]:
    """Left cosets w*W0 with canonical minimal representatives.

    Elements are scanned in (length, lex word) order, so the first element
    of each unvisited coset is its minimal-length representative with the
    lexicographically smallest reduced word.  Returns the representative
    list (coset id = list position, identity coset first) and the map from
    element key to coset id.
    """
    order = sorted(W.elements.values(), key=lambda w: (len(w.word), w.word))
    coset_of: dict[bytes, int] = {}
    reps: list[WeylElement] = []
    for w in order:
        if w.key in coset_of:
            continue
        cid = len(reps)
        reps.append(w)
        table = _table(w.perm)
        for up in W0.perms:
            coset_of[up.translate(table)] = cid
    if len(coset_of) != W.order:
        raise ValueError("subgroup does not partition the group into cosets")
    return reps, coset_of


# --- coset enumeration on the Coxeter presentation ---------------------------

Table = list[list[int]]

# m_ij read from the bond: a_ij * a_ji = 0, 1, 2, 3 gives m_ij = 2, 3, 4, 6.
_BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def coxeter_matrix(cartan) -> tuple[tuple[int, ...], ...]:
    """Coxeter matrix of a finite-type Cartan matrix (m_ii = 1)."""
    n = len(cartan)
    return tuple(
        tuple(
            1 if i == j else _BOND_ORDER[cartan[i][j] * cartan[j][i]]
            for j in range(n)
        )
        for i in range(n)
    )


def coset_table(cartan, subgroup_words, budget: int | None = None) -> Table:
    """Todd-Coxeter enumeration of the cosets of a subgroup given by words.

    The group is the Coxeter group of ``cartan``: involutions s_0..s_{n-1}
    with relators (s_i s_j)^m_ij.  The subgroup H is generated by
    ``subgroup_words``, each a tuple of generator indices.  The HLT
    strategy defines cosets row by row, scanning every relator at every
    live coset, and merges coincidences as they appear.

    Returns the compacted table: ``table[c][j]`` is the right coset c*s_j,
    coset 0 is H itself, and the other ids follow definition order.  Read
    as left cosets through H*u <-> u^-1*H, ``table[c][j]`` is s_j times
    coset c, the left action.  Raises BudgetExceededError when more than
    ``budget`` rows are defined.
    """
    n = len(cartan)
    m = coxeter_matrix(cartan)
    relators = [(i, j) * m[i][j] for i in range(n) for j in range(i + 1, n)]
    table: Table = [[-1] * n]
    parent = [0]

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, j: int) -> None:
        if budget is not None and len(table) >= budget:
            raise BudgetExceededError(
                f"coset table exceeds budget {budget} "
                f"(partial count {len(table)} rows)",
                len(table),
            )
        d = len(table)
        table.append([-1] * n)
        parent.append(d)
        table[c][j] = d
        table[d][j] = c

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = find(a), find(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []
        merge(a, b, queue)
        k = 0
        while k < len(queue):
            dead = queue[k]
            k += 1
            for j in range(n):
                d = table[dead][j]
                if d < 0:
                    continue
                table[d][j] = -1
                mu, nu = find(dead), find(d)
                if table[mu][j] >= 0:
                    merge(nu, table[mu][j], queue)
                elif table[nu][j] >= 0:
                    merge(mu, table[nu][j], queue)
                else:
                    table[mu][j] = nu
                    table[nu][j] = mu

    def scan_and_fill(c: int, word) -> None:
        f = b = c
        i, k = 0, len(word) - 1
        while True:
            while i <= k and table[f][word[i]] >= 0:
                f = table[f][word[i]]
                i += 1
            if i > k:
                if f != b:
                    coincidence(f, b)
                return
            while k >= i and table[b][word[k]] >= 0:
                b = table[b][word[k]]
                k -= 1
            if k < i:
                coincidence(f, b)
                return
            if i == k:
                table[f][word[i]] = b
                table[b][word[i]] = f
                return
            define(f, word[i])

    for word in subgroup_words:
        scan_and_fill(0, word)
    c = 0
    while c < len(table):
        for rel in relators:
            if parent[c] != c:
                break
            scan_and_fill(c, rel)
        if parent[c] == c:
            for j in range(n):
                if table[c][j] < 0:
                    define(c, j)
        c += 1

    live = [c for c in range(len(table)) if parent[c] == c]
    new_id = {c: k for k, c in enumerate(live)}
    return [[new_id[find(table[c][j])] for j in range(n)] for c in live]


def is_coxeter_action(cartan, table: Table) -> bool:
    """True when every generator acts as an involution and every relator
    (s_i s_j)^m_ij fixes every row of ``table``."""
    n = len(cartan)
    m = coxeter_matrix(cartan)
    rows = range(len(table))
    if any(table[table[c][j]][j] != c for c in rows for j in range(n)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            for c in rows:
                d = c
                for _ in range(m[i][j]):
                    d = table[table[d][j]][i]
                if d != c:
                    return False
    return True


def coset_words(table: Table) -> list[tuple[int, ...]]:
    """Lex-first shortest word w with w*coset 0 = c, for each coset c.

    A breadth-first search from coset 0 gives each coset's distance; the
    word starts with the smallest j for which s_j*c is one step closer and
    continues with the word of s_j*c.  Its length is the minimal length in
    the coset, and it is the lexicographically smallest reduced word among
    the coset's elements of that length.
    """
    n = len(table[0])
    dist = [-1] * len(table)
    dist[0] = 0
    order = [0]
    for c in order:
        for d in table[c]:
            if dist[d] < 0:
                dist[d] = dist[c] + 1
                order.append(d)
    if len(order) != len(table):
        raise ValueError("coset table is not connected")
    words: list[tuple[int, ...]] = [()] * len(table)
    for c in order[1:]:
        j = next(j for j in range(n) if dist[table[c][j]] == dist[c] - 1)
        words[c] = (j,) + words[table[c][j]]
    return words


def weyl_poincare(rs: RootSystem) -> tuple[int, ...]:
    """Length polynomial P_W of the Weyl group, from the heights of the
    positive roots; no group or coset table is built.

    Kostant (Amer. J. Math. 81, 1959): the exponents of W are the dual
    partition of the height counts, so with count[k] positive roots of
    height k, k is an exponent count[k] - count[k + 1] times.  Macdonald
    (Math. Ann. 199, 1972): P_W(q) is the product over alpha > 0 of
    (1 - q^(ht alpha + 1)) / (1 - q^(ht alpha)), which telescopes to the
    product of 1 + q + ... + q^m over the exponents m.  The height counts
    of a product of root systems add, so this holds for any diagram of
    finite type, and |W| = P_W(1).
    """
    count = Counter(map(sum, rs.positive_roots))
    poly: tuple[int, ...] = (1,)
    for k in sorted(count):
        for _ in range(count[k] - count[k + 1]):
            poly = poly_mul(poly, (1,) * (k + 1))
    return poly


def order_within_budget(diagram: DynkinDiagram, budget: int) -> int:
    """|W| = P_W(1) from the root heights; BudgetExceededError if it is
    over ``budget``, raised before anything of that size is built."""
    order = sum(diagram_data(diagram).poincare)
    if order > budget:
        raise BudgetExceededError(
            f"Weyl group of {diagram.type_label} has order {order}, "
            f"over the element budget {budget}",
            0,
        )
    return order
