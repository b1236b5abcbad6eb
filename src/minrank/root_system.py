"""Finite root systems and Dynkin diagrams, exactly over the integers.

Roots are integer coordinate vectors in the simple-root basis of their
diagram.  No inner product is ever materialized: Cartan pairings are read
off root strings, so every query is integer-exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

Root = tuple[int, ...]

# Largest rank that ``classify`` enumerates.
DEFAULT_RANK_CAP = 7
# A root string of a finite-type system has at most four roots (G2).
_STRING_STEPS = 4

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"A": None, "B": None, "C": None, "D": None, "E": 8, "F": 4, "G": 2}


@dataclass(frozen=True)
class DynkinDiagram:
    """Vertex list plus generalized Cartan matrix of finite type.

    ``cartan[i][j]`` is the pairing of simple root i against the coroot of
    simple root j.  Vertex ids are strings, numbered "1".."n" by builders.
    """

    type_label: str
    cartan: tuple[tuple[int, ...], ...]
    vertices: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if len(self.cartan) != n or any(len(row) != n for row in self.cartan):
            raise ValueError("cartan matrix shape does not match vertex count")
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex ids")
        for i in range(n):
            if self.cartan[i][i] != 2:
                raise ValueError("cartan diagonal must be 2")
            for j in range(n):
                if i == j:
                    continue
                a = self.cartan[i][j]
                if a not in (0, -1, -2, -3):
                    raise ValueError(f"invalid cartan entry {a} at ({i}, {j})")
                if (a == 0) != (self.cartan[j][i] == 0):
                    raise ValueError("cartan zero pattern must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted tuples of vertex indices."""
        return components(self.cartan)

    @cached_property
    def cartan_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column j pairs each simple root with the coroot of simple root j."""
        return tuple(zip(*self.cartan))

    def vertex_index(self, vid: str) -> int:
        try:
            return self.vertices.index(vid)
        except ValueError:
            raise ValueError(f"unknown vertex id {vid!r}") from None


def components(cartan) -> tuple[tuple[int, ...], ...]:
    """Connected components of a Cartan matrix as sorted index tuples,
    ordered by smallest index."""
    n = len(cartan)
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            comp.append(i)
            stack.extend(j for j in range(n) if j not in seen and cartan[i][j] != 0)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def build_dynkin(type_label: str, rank: int) -> DynkinDiagram:
    """Standard Cartan matrix for one of the types A..G, Bourbaki numbering."""
    letter = type_label.upper()
    if letter not in _MIN_RANK:
        raise ValueError(f"unknown type {type_label!r}")
    if not _rank_in_range(letter, rank):
        raise ValueError(f"invalid rank {rank} for type {letter}")
    return DynkinDiagram(
        type_label=f"{letter}{rank}",
        cartan=_standard_cartan(letter, rank),
        vertices=tuple(str(i + 1) for i in range(rank)),
    )


def _rank_in_range(letter: str, rank: int) -> bool:
    hi = _MAX_RANK[letter]
    return _MIN_RANK[letter] <= rank and (hi is None or rank <= hi)


def _standard_cartan(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix of type ``letter`` and rank ``n``, unchecked."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B" and n >= 2:
            bond(n - 2, n - 1, -2, -1)  # alpha_n short
        if letter == "C" and n >= 2:
            bond(n - 2, n - 1, -1, -2)  # alpha_n long
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        if n >= 3:
            bond(n - 3, n - 1)
    elif letter == "E":
        # Bourbaki: chain 1-3-4-5-..., vertex 2 hangs off vertex 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # alpha_3, alpha_4 short
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -1, -3)  # alpha_1 short
    return tuple(tuple(row) for row in a)


def disjoint_union(d1: DynkinDiagram, d2: DynkinDiagram) -> DynkinDiagram:
    """Block-diagonal union; vertices are renumbered "1".."n1+n2"."""
    n1, n2 = d1.rank, d2.rank
    n = n1 + n2
    cartan = [[0] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            cartan[i][j] = d1.cartan[i][j]
    for i in range(n2):
        for j in range(n2):
            cartan[n1 + i][n1 + j] = d2.cartan[i][j]
    return DynkinDiagram(
        type_label=f"{d1.type_label}+{d2.type_label}",
        cartan=tuple(tuple(row) for row in cartan),
        vertices=tuple(str(i + 1) for i in range(n)),
    )


@dataclass(frozen=True, eq=False)
class RootSystem:
    """All roots of a finite-type diagram, closed under simple reflections."""

    diagram: DynkinDiagram
    roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    root_set: frozenset[Root] = field(repr=False)

    @cached_property
    def root_index(self) -> dict[Root, int]:
        return {r: i for i, r in enumerate(self.roots)}

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        n = self.diagram.rank
        return tuple(_basis(n, i) for i in range(n))


def _basis(n: int, i: int) -> Root:
    return tuple(1 if j == i else 0 for j in range(n))


def _reflect_root(columns, beta: Root, j: int) -> Root:
    """beta - <beta, alpha_j^v> alpha_j, the pairing read off ``cartan_columns``."""
    c = sum(map(mul, beta, columns[j]))
    if c == 0:
        return beta
    return beta[:j] + (beta[j] - c,) + beta[j + 1 :]


def build_root_system(diagram: DynkinDiagram) -> RootSystem:
    """Close the simple roots under simple reflections, component by component.

    Raises ValueError if the closure of a component of rank r exceeds
    max(2r², 240) roots, which signals non-finite input: B_r and C_r have
    2r² roots, the most of any classical type of rank r, and E8 has 240.
    """
    n = diagram.rank
    columns = diagram.cartan_columns
    all_roots: set[Root] = set()
    for comp in diagram.components:
        bound = max(2 * len(comp) ** 2, 240)
        comp_roots: set[Root] = {_basis(n, i) for i in comp}
        frontier = list(comp_roots)
        while frontier:
            new: list[Root] = []
            for beta in frontier:
                for j in comp:
                    r = _reflect_root(columns, beta, j)
                    if r not in comp_roots:
                        comp_roots.add(r)
                        new.append(r)
            if len(comp_roots) > bound:
                raise ValueError(
                    f"closure exceeded {bound} roots on component {comp}; "
                    "diagram is not of finite type"
                )
            frontier = new
        all_roots |= comp_roots
    roots = tuple(sorted(all_roots))
    positive = tuple(r for r in roots if _is_positive(r))
    if 2 * len(positive) != len(roots):
        raise ValueError("root system is not negation-symmetric")
    return RootSystem(
        diagram=diagram,
        roots=roots,
        positive_roots=positive,
        root_set=frozenset(roots),
    )


def _is_positive(r: Root) -> bool:
    return all(c >= 0 for c in r) and any(c > 0 for c in r)


def negate(r: Root) -> Root:
    return tuple(-c for c in r)


def string_pairing(
    root_set: frozenset[Root] | set[Root], beta: Root, alpha: Root
) -> int | None:
    """Pairing <beta, alpha^v> = p - q read off the alpha-string through beta.

    Works on any finite set of integer vectors containing beta and alpha;
    returns None when a string does not break within ``_STRING_STEPS``
    (the set then cannot be a finite-type root system).
    """
    if beta == alpha:
        return 2
    down = negate(alpha)
    if beta == down:
        return -2
    steps = []  # p and q: how far the string runs below and above beta
    for step in (down, alpha):
        cur = beta
        for k in range(_STRING_STEPS):
            cur = tuple(b + a for b, a in zip(cur, step))
            if cur not in root_set:
                steps.append(k)
                break
        else:
            return None
    return steps[0] - steps[1]


def pairing(rs: RootSystem, beta: Root, alpha: Root) -> int:
    """Exact Cartan pairing <beta, alpha^v> from the root string."""
    if beta not in rs.root_set:
        raise ValueError(f"{beta} is not a root of {rs.diagram.type_label}")
    if alpha not in rs.root_set:
        raise ValueError(f"{alpha} is not a root of {rs.diagram.type_label}")
    value = string_pairing(rs.root_set, beta, alpha)
    if value is None:
        raise ValueError("unbroken root string; root system is inconsistent")
    return value


def is_orthogonal(rs: RootSystem, alpha: Root, beta: Root) -> bool:
    return pairing(rs, beta, alpha) == 0 and pairing(rs, alpha, beta) == 0


def reflect(rs: RootSystem, alpha: Root, beta: Root) -> Root:
    """Reflection of beta at a simple root alpha."""
    n = rs.diagram.rank
    try:
        j = next(i for i in range(n) if alpha == _basis(n, i))
    except StopIteration:
        raise ValueError(f"{alpha} is not a simple root") from None
    if beta not in rs.root_set:
        raise ValueError(f"{beta} is not a root of {rs.diagram.type_label}")
    out = _reflect_root(rs.diagram.cartan_columns, beta, j)
    if out not in rs.root_set:
        raise ValueError(
            f"reflection of {beta} at {alpha} left the root set of "
            f"{rs.diagram.type_label}"
        )
    return out


def diagram_to_json(d: DynkinDiagram) -> dict:
    return {
        "type": d.type_label,
        "rank": d.rank,
        "cartan": [list(row) for row in d.cartan],
        "vertices": list(d.vertices),
    }


def _as_given(x, kind: type):
    """``x`` when it is a JSON value of ``kind``; a bool is not an int."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ValueError(f"expected {kind.__name__}, got {x!r}")
    return x


def diagram_from_json(obj: dict) -> DynkinDiagram:
    """Parse a diagram object of rank at least 1, taking every value as given."""
    try:
        d = DynkinDiagram(
            type_label=str(obj["type"]),
            cartan=tuple(tuple(_as_given(a, int) for a in r) for r in obj["cartan"]),
            vertices=tuple(_as_given(v, str) for v in obj["vertices"]),
        )
        rank = _as_given(obj["rank"], int)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed diagram object: {exc}") from None
    if d.rank < 1:
        raise ValueError("a diagram needs at least one vertex")
    if rank != d.rank:
        raise ValueError("rank field disagrees with vertex count")
    return d


# --- type names and component identification ---------------------------------
#
# A type is named by its letter and rank, like A3 or E6.  The diagrams that
# build_dynkin also builds as B2 and D3 are always identified as C2 and A3.

_ALIASES = {"B2": "C2", "D3": "A3"}
_TYPE_RE = re.compile(r"([A-G])([0-9]+)")


def parse_type(text: str) -> tuple[str, int]:
    """(letter, rank) of a type name like A3 or E6; ValueError otherwise."""
    m = _TYPE_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed type {text!r}, expected e.g. A3 or E6")
    return m.group(1), int(m.group(2))


def _identification_candidates(rank: int) -> list[tuple[str, int]]:
    """Every standard type of this rank but the aliases, in letter order."""
    return [
        (letter, rank)
        for letter in _MIN_RANK
        if _rank_in_range(letter, rank) and f"{letter}{rank}" not in _ALIASES
    ]


def _isomorphisms(std, cartan, indices: tuple[int, ...]):
    """Every isomorphism of the standard matrix ``std`` onto the block of
    ``cartan`` on ``indices`` (of the same size), in lexicographic order.

    Yields perm with perm[k] the position in ``indices`` of the vertex that
    realizes standard vertex k.  A partial map is extended one standard
    vertex at a time, trying positions in increasing order, and a branch is
    dropped as soon as an entry among the assigned vertices differs from
    ``std``, so the first isomorphism yielded is the lexicographically
    smallest.
    """
    r = len(indices)
    block = [[cartan[a][b] for b in indices] for a in indices]
    perm: list[int] = []
    used = [False] * r

    def extend(k: int):
        if k == r:
            yield tuple(perm)
            return
        row = std[k]
        for t in range(r):
            if used[t] or block[t][t] != row[k] or any(
                block[t][perm[i]] != row[i] or block[perm[i]][t] != std[i][k]
                for i in range(k)
            ):
                continue
            used[t] = True
            perm.append(t)
            yield from extend(k + 1)
            perm.pop()
            used[t] = False

    yield from extend(0)


def _bond_invariant(cartan, indices) -> list:
    """Sorted multiset, over the vertices, of each vertex's sorted
    (a_ab, a_ba) pairs to its neighbours b; unchanged by relabeling."""
    return sorted(
        sorted((cartan[a][b], cartan[b][a]) for b in indices if b != a and cartan[a][b])
        for a in indices
    )


def identify_component(cartan, indices: tuple[int, ...]) -> tuple[str, int, tuple[int, ...]] | None:
    """Match one connected Cartan block against the standard finite types.

    Returns (letter, rank, perm) where perm[k] is the index (into
    ``indices``) realizing standard vertex k, lexicographically smallest
    among the isomorphisms; None when no finite type matches.  A type
    whose bond invariant differs from the block's has no isomorphism onto
    it, so it is skipped before the search.
    """
    invariant = _bond_invariant(cartan, indices)
    for letter, rank in _identification_candidates(len(indices)):
        std = _standard_cartan(letter, rank)
        if _bond_invariant(std, range(rank)) != invariant:
            continue
        perm = next(_isomorphisms(std, cartan, indices), None)
        if perm is not None:
            return letter, rank, perm
    return None


TypedComponents = list[tuple[str, int, tuple[int, ...]]]


def typed_components(cartan) -> TypedComponents | None:
    """(letter, rank, vertices in standard order) for each connected
    component, in component order; None when one is not of finite type."""
    out = []
    for comp in components(cartan):
        hit = identify_component(cartan, comp)
        if hit is None:
            return None
        letter, rank, perm = hit
        out.append((letter, rank, tuple(comp[k] for k in perm)))
    return out


def typed_label(typed: TypedComponents) -> str:
    """The type label of typed components, like C2+A1."""
    return "+".join(f"{letter}{rank}" for letter, rank, _ in typed)
