"""Folding involutions on Dynkin diagrams and the minimal-rank classification.

A candidate is a diagram together with an involution of its vertices whose
2-cycles are orthogonal.  Merging the coordinates of each 2-cycle projects
the root set onto a smaller lattice; the candidate is kept exactly when
that image is again a finite root system with coherent fibers.  The folded
Cartan matrix is recovered from root strings in the image, never from a
lookup table: some valid foldings are not diagram automorphisms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .root_system import (
    DEFAULT_RANK_CAP,
    DynkinDiagram,
    Root,
    RootSystem,
    build_dynkin,
    build_root_system,
    diagram_to_json,
    diagram_from_json,
    disjoint_union,
    identify_component,
    string_pairing,
    _basis,
)
from .weyl import (
    DEFAULT_BUDGET,
    WeylElement,
    WeylGroup,
    Subgroup,
    compose,
    full_subgroup,
    order_within_budget,
    perm_closure,
    perm_key,
    reflection_perms,
)


@lru_cache(maxsize=None)
def _cached_root_system(diagram: DynkinDiagram) -> RootSystem:
    return build_root_system(diagram)


@dataclass(frozen=True)
class FoldingInvolution:
    """Involutive vertex map, stored as an index permutation."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a permutation")
        if any(self.mapping[self.mapping[i]] != i for i in range(n)):
            raise ValueError("mapping is not an involution")

    @classmethod
    def identity(cls, diagram: DynkinDiagram) -> "FoldingInvolution":
        return cls(tuple(range(diagram.rank)))

    @classmethod
    def from_pairs(
        cls, diagram: DynkinDiagram, pairs: list[tuple[str, str]]
    ) -> "FoldingInvolution":
        mapping = list(range(diagram.rank))
        used: set[int] = set()
        for a, b in pairs:
            i, j = diagram.vertex_index(a), diagram.vertex_index(b)
            if i == j or i in used or j in used:
                raise ValueError("overlapping or degenerate vertex pairs")
            used.update((i, j))
            mapping[i], mapping[j] = j, i
        return cls(tuple(mapping))

    @property
    def is_identity(self) -> bool:
        return all(self.mapping[i] == i for i in range(len(self.mapping)))

    @property
    def two_cycles(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i in range(len(self.mapping))
            if (j := self.mapping[i]) > i
        )

    @property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Vertex orbits sorted by smallest member; orbit k = folded coordinate k."""
        out = []
        for i in range(len(self.mapping)):
            j = self.mapping[i]
            if j >= i:
                out.append((i,) if j == i else (i, j))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class RestrictionData:
    """Projection of a root set along the orbits of a folding involution."""

    orbits: tuple[tuple[int, ...], ...]
    image_roots: tuple[Root, ...]
    fibers: dict[Root, tuple[Root, ...]]

    def project(self, root: Root) -> Root:
        return tuple(sum(root[j] for j in orbit) for orbit in self.orbits)

    @property
    def image_set(self) -> frozenset[Root]:
        return frozenset(self.image_roots)


@dataclass(frozen=True)
class ColoredDynkin:
    """Folded diagram with the size-2-fiber vertices marked black."""

    diagram: DynkinDiagram
    black: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class MinimalRankPair:
    """A validated (diagram, involution) candidate with its folded data.

    ``wh_generators[k]`` lists the ambient simple-root indices whose
    commuting product realizes the k-th folded simple reflection.
    """

    g_diagram: DynkinDiagram
    sigma: FoldingInvolution
    h_colored: ColoredDynkin
    rho: RestrictionData
    wh_generators: tuple[tuple[int, ...], ...]
    family: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failed_check: str | None = None
    tag: str | None = None
    tags: tuple[str, ...] = ()
    pair: MinimalRankPair | None = None


def _fail(check: str, tag: str) -> ValidationReport:
    return ValidationReport(ok=False, failed_check=check, tag=tag)


def _project_all(
    rs: RootSystem, orbits: tuple[tuple[int, ...], ...]
) -> dict[Root, list[Root]]:
    fibers: dict[Root, list[Root]] = {}
    for r in rs.roots:
        img = tuple(sum(r[j] for j in orbit) for orbit in orbits)
        fibers.setdefault(img, []).append(r)
    return fibers


def _folded_cartan(
    image_set: frozenset[Root], m: int
) -> tuple[tuple[int, ...], ...] | None:
    """Cartan matrix of the image simple roots via root strings, or None."""
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if i == j:
                row.append(2)
                continue
            v = string_pairing(image_set, _basis(m, i), _basis(m, j))
            if v is None or v not in (0, -1, -2, -3):
                return None
            row.append(v)
        rows.append(tuple(row))
    for i in range(m):
        for j in range(m):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                return None
    return tuple(rows)


def _components_of(cartan: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
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


def _standard_presentation(
    cartan_h: tuple[tuple[int, ...], ...],
    orbits: tuple[tuple[int, ...], ...],
) -> tuple[DynkinDiagram, tuple[str, ...], tuple[int, ...]] | None:
    """Relabel the folded Cartan matrix into standard Bourbaki form.

    Returns (diagram, black vertex ids, orbit index per diagram vertex);
    None when some component matches no finite type.  Components are
    ordered by (letter, rank, orbit indices) for determinism.
    """
    identified = []
    for comp in _components_of(cartan_h):
        hit = identify_component(cartan_h, comp)
        if hit is None:
            return None
        letter, rank, perm = hit
        orbit_idx = tuple(comp[perm[k]] for k in range(rank))
        identified.append((letter, rank, orbit_idx))
    identified.sort()
    labels = []
    orbit_of_vertex: list[int] = []
    for letter, rank, orbit_idx in identified:
        labels.append(f"{letter}{rank}")
        orbit_of_vertex.extend(orbit_idx)
    n = len(orbit_of_vertex)
    cartan = tuple(
        tuple(cartan_h[orbit_of_vertex[a]][orbit_of_vertex[b]] for b in range(n))
        for a in range(n)
    )
    diagram = DynkinDiagram(
        type_label="+".join(labels),
        cartan=cartan,
        vertices=tuple(str(i + 1) for i in range(n)),
    )
    black = tuple(
        str(v + 1) for v in range(n) if len(orbits[orbit_of_vertex[v]]) == 2
    )
    return diagram, black, tuple(orbit_of_vertex)


def _generator_perm(rs: RootSystem, orbit: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation of the indexed roots for the product of the orbit's reflections."""
    perms = reflection_perms(rs)
    out = tuple(range(len(rs.roots)))
    for j in sorted(orbit):
        out = compose(out, perms[j])
    return out


def _is_diagonal(g_diagram: DynkinDiagram, sigma: FoldingInvolution) -> bool:
    comps = g_diagram.components
    if len(comps) != 2 or len(comps[0]) != len(comps[1]):
        return False
    a, b = set(comps[0]), set(comps[1])
    return all(
        (i in a and sigma.mapping[i] in b) or (i in b and sigma.mapping[i] in a)
        for i in range(g_diagram.rank)
    )


def _is_straight_swap(g_diagram: DynkinDiagram, sigma: FoldingInvolution) -> bool:
    """True when g is two identical blocks and sigma is i <-> i+n.

    For such candidates the embedded generators are (s_i, s_i) in the
    product group, whose closure is the graph of the identity isomorphism;
    its order is |W(block)| and need not be recomputed.
    """
    n = g_diagram.rank // 2
    if g_diagram.rank != 2 * n or n == 0:
        return False
    if any(sigma.mapping[i] != i + n for i in range(n)):
        return False
    cartan = g_diagram.cartan
    for i in range(n):
        for j in range(n):
            if cartan[i][j] != cartan[i + n][j + n]:
                return False
            if cartan[i][j + n] != 0 or cartan[i + n][j] != 0:
                return False
    return True


def _identify_type(diagram: DynkinDiagram) -> tuple[str, int] | None:
    """(letter, rank) of a connected diagram, canonical at coincidences."""
    comps = diagram.components
    if len(comps) != 1:
        return None
    hit = identify_component(diagram.cartan, comps[0])
    return None if hit is None else (hit[0], hit[1])


_FOLD_FAMILIES = {
    ("B", 3, "G", 2): "B3_G2",
    ("E", 6, "F", 4): "E6_F4",
}


def _family_name(
    g_diagram: DynkinDiagram,
    sigma: FoldingInvolution,
    h_diagram: DynkinDiagram,
    diagonal: bool,
) -> str:
    if len(h_diagram.components) > 1:
        return "product"
    if sigma.is_identity:
        return "identity"
    if diagonal:
        return "diagonal"
    g_type = _identify_type(g_diagram)
    h_type = _identify_type(h_diagram)
    if g_type is None or h_type is None:
        return "unknown"
    gl, gr = g_type
    hl, hr = h_type
    if gl == "A" and hl == "C" and gr == 2 * hr - 1:
        return "A2n-1_Cn"
    if gl == "D" and hl == "B" and hr == gr - 1:
        return "Dn_Bn-1"
    return _FOLD_FAMILIES.get((gl, gr, hl, hr), f"{gl}{gr}_{hl}{hr}")


def validate_candidate(
    g_diagram: DynkinDiagram,
    sigma: FoldingInvolution,
    budget: int = DEFAULT_BUDGET,
) -> ValidationReport:
    """Run the folding checks in order; failures are report entries.

    Checks: (a) 2-cycles orthogonal; (b) fibers of size 1 or 2, 2-fibers
    orthogonal; (c) image equals the root system of the folded Cartan
    matrix; (d) root count identity; (e) embedded generators map fibers
    onto fibers; (f) preimages of folded simples are the ambient simples;
    (g) identity/diagonal tagging.  On success the report carries the
    assembled MinimalRankPair.
    """
    if len(sigma.mapping) != g_diagram.rank:
        raise ValueError("involution size does not match diagram rank")
    rs = _cached_root_system(g_diagram)

    # (a) 2-cycles must join orthogonal simple roots
    for i, j in sigma.two_cycles:
        if g_diagram.cartan[i][j] != 0:
            return _fail("a", "nonorthogonal_pair")

    # (b) fiber sizes and orthogonality
    orbits = sigma.orbits
    raw_fibers = _project_all(rs, orbits)
    for img, fiber in raw_fibers.items():
        if len(fiber) > 2:
            return _fail("b", "fiber_size_3")
        if len(fiber) == 2:
            r1, r2 = fiber
            if string_pairing(rs.root_set, r1, r2) != 0:
                return _fail("b", "nonorthogonal_fiber")
            if string_pairing(rs.root_set, r2, r1) != 0:
                return _fail("b", "nonorthogonal_fiber")

    image_roots = tuple(sorted(raw_fibers))
    image_set = frozenset(image_roots)
    m = len(orbits)

    # (c) image must be the root system generated by the folded Cartan matrix
    cartan_h = _folded_cartan(image_set, m)
    if cartan_h is None:
        return _fail("c", "image_not_root_system")
    presentation = _standard_presentation(cartan_h, orbits)
    if presentation is None:
        return _fail("c", "image_not_root_system")
    h_diagram, black, orbit_of_vertex = presentation
    try:
        closure = build_root_system(
            DynkinDiagram(
                type_label=h_diagram.type_label,
                cartan=cartan_h,
                vertices=tuple(str(i + 1) for i in range(m)),
            )
        )
    except ValueError:
        return _fail("c", "image_not_root_system")
    if frozenset(closure.roots) != image_set:
        return _fail("c", "image_not_root_system")

    # (d) every ambient root is counted once per fiber element
    n1 = sum(1 for f in raw_fibers.values() if len(f) == 1)
    n2 = sum(1 for f in raw_fibers.values() if len(f) == 2)
    if len(rs.roots) != n1 + 2 * n2:
        return _fail("d", "root_count")

    # (e) embedded generators must map every 2-fiber into a single fiber
    gen_perms = [
        _generator_perm(rs, orbits[orbit_of_vertex[v]])
        for v in range(h_diagram.rank)
    ]
    proj_of = {r: img for img, fiber in raw_fibers.items() for r in fiber}
    for perm in gen_perms:
        for img, fiber in raw_fibers.items():
            if len(fiber) != 2:
                continue
            a = proj_of[rs.roots[perm[rs.root_index[fiber[0]]]]]
            b = proj_of[rs.roots[perm[rs.root_index[fiber[1]]]]]
            if a != b:
                return _fail("e", "wh_stability")

    # (f) preimages of the folded simple roots are exactly the simples
    preimage: set[Root] = set()
    for k in range(m):
        preimage.update(raw_fibers.get(_basis(m, k), ()))
    if preimage != set(rs.simple_roots):
        return _fail("f", "simple_preimage")

    # (g) nonredundancy tags
    tags: tuple[str, ...] = ()
    if sigma.is_identity:
        tags = ("identity pair",)
    diagonal = _is_diagonal(g_diagram, sigma)
    if diagonal:
        tags = ("diagonal pair",)

    rho = RestrictionData(
        orbits=orbits,
        image_roots=image_roots,
        fibers={img: tuple(f) for img, f in raw_fibers.items()},
    )
    wh_generators = tuple(
        orbits[orbit_of_vertex[v]] for v in range(h_diagram.rank)
    )
    family = _family_name(g_diagram, sigma, h_diagram, diagonal)
    pair = MinimalRankPair(
        g_diagram=g_diagram,
        sigma=sigma,
        h_colored=ColoredDynkin(diagram=h_diagram, black=black),
        rho=rho,
        wh_generators=wh_generators,
        family=family,
    )

    # embedded subgroup must realize the abstract folded Weyl group; the
    # straight component swap is exempt (its closure is the graph of the
    # identity isomorphism between the two blocks, of order |W(block)|)
    if not sigma.is_identity and not _is_straight_swap(g_diagram, sigma):
        expected = order_within_budget(_cached_root_system(h_diagram), budget)
        sub_perms = perm_closure([_generator_perm(rs, o) for o in wh_generators],
                                 len(rs.roots), budget=budget)
        if len(sub_perms) != expected:
            return _fail("embed", "embedding_order")

    return ValidationReport(ok=True, tags=tags, pair=pair)


def restriction_map(
    g_diagram: DynkinDiagram, sigma: FoldingInvolution
) -> RestrictionData:
    """Project the root set along the orbit coordinates of ``sigma``.

    Raises ValueError when a 2-cycle is not orthogonal or a fiber has
    three or more elements.
    """
    rs = _cached_root_system(g_diagram)
    for i, j in sigma.two_cycles:
        if g_diagram.cartan[i][j] != 0:
            raise ValueError(f"vertices {i} and {j} are not orthogonal")
    orbits = sigma.orbits
    raw_fibers = _project_all(rs, orbits)
    for img, fiber in raw_fibers.items():
        if len(fiber) > 2:
            raise ValueError(f"fiber over {img} has {len(fiber)} elements")
    return RestrictionData(
        orbits=orbits,
        image_roots=tuple(sorted(raw_fibers)),
        fibers={img: tuple(f) for img, f in raw_fibers.items()},
    )


def folded_simple_system(rho: RestrictionData) -> ColoredDynkin:
    """Colored diagram on the image simple roots, Cartan data from root strings."""
    m = len(rho.orbits)
    cartan_h = _folded_cartan(rho.image_set, m)
    if cartan_h is None:
        raise ValueError("image root strings do not form a finite Cartan matrix")
    presentation = _standard_presentation(cartan_h, rho.orbits)
    if presentation is None:
        raise ValueError("folded Cartan matrix is not of finite type")
    diagram, black, _ = presentation
    return ColoredDynkin(diagram=diagram, black=black)


def embed_weyl(
    pair: MinimalRankPair, W: WeylGroup, budget: int = DEFAULT_BUDGET
) -> tuple[Subgroup, tuple[WeylElement, ...]]:
    """Embedded folded Weyl group inside W, with its generator map.

    White vertices map to the simple reflection of their orbit; black
    vertices to the commuting product of their orbit's two reflections.
    Raises ValueError if the closure order differs from the abstract
    folded group order.
    """
    if W.root_system.diagram != pair.g_diagram:
        raise ValueError("group does not belong to the pair's ambient diagram")
    rs = W.root_system
    gen_perms = [_generator_perm(rs, orbit) for orbit in pair.wh_generators]
    generators = tuple(W.elements[perm_key(p)] for p in gen_perms)
    if pair.sigma.is_identity:
        return full_subgroup(W), generators
    expected = order_within_budget(_cached_root_system(pair.h_colored.diagram), budget)
    perms = perm_closure(gen_perms, len(rs.roots), budget=budget)
    if len(perms) != expected:
        raise ValueError(
            f"embedded subgroup has order {len(perms)}, expected {expected}"
        )
    return Subgroup(W, tuple(perms), tuple(gen_perms)), generators


# --- classification -----------------------------------------------------------


def _connected_letters(rank: int) -> list[str]:
    if rank == 1:
        return ["A"]
    if rank == 2:
        return ["A", "C", "G"]
    if rank == 3:
        return ["A", "B", "C"]
    letters = ["A", "B", "C", "D"]
    if rank == 4:
        letters.append("F")
    if rank in (6, 7, 8):
        letters.append("E")
    return letters


def _orthogonal_involutions(diagram: DynkinDiagram) -> list[FoldingInvolution]:
    """All involutions whose 2-cycles join orthogonal vertices, identity first."""
    n = diagram.rank
    cartan = diagram.cartan
    out: list[FoldingInvolution] = []

    def rec(remaining: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> None:
        if not remaining:
            mapping = list(range(n))
            for i, j in pairs:
                mapping[i], mapping[j] = j, i
            out.append(FoldingInvolution(tuple(mapping)))
            return
        i, rest = remaining[0], remaining[1:]
        rec(rest, pairs)
        for j in rest:
            if cartan[i][j] == 0:
                rec(
                    tuple(x for x in rest if x != j),
                    pairs + ((i, j),),
                )

    rec(tuple(range(n)), ())
    out.sort(key=lambda s: (len(s.two_cycles), s.two_cycles))
    return out


def _canonical_key(
    cartan: tuple[tuple[int, ...], ...], mapping: tuple[int, ...]
) -> tuple:
    """Lex-min (Cartan, involution) over all vertex relabelings."""
    n = len(cartan)
    best = None
    for p in itertools.permutations(range(n)):
        q = [0] * n
        for new, old in enumerate(p):
            q[old] = new
        relabeled = tuple(
            tuple(cartan[p[a]][p[b]] for b in range(n)) for a in range(n)
        )
        key = (relabeled, tuple(q[mapping[p[a]]] for a in range(n)))
        if best is None or key < best:
            best = key
    return best


def _sort_key(pair: MinimalRankPair) -> tuple:
    return (
        pair.g_diagram.rank,
        pair.g_diagram.type_label,
        pair.family,
        pair.sigma.two_cycles,
    )


def classify(
    max_rank: int,
    budget: int = DEFAULT_BUDGET,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> list[MinimalRankPair]:
    """All minimal-rank pairs with connected folded diagram of rank <= max_rank.

    Enumerates connected diagrams of rank <= max_rank with every
    orthogonal-2-cycle involution, plus the component swap on each doubled
    diagram whose factor has rank <= max_rank (the diagonal family).
    Connected candidates are deduplicated by the canonical form of
    (Cartan, involution) under vertex relabeling; each doubled diagram is
    constructed once per factor type.  Output order is canonical and stable.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    if max_rank > rank_cap:
        raise ValueError(f"max_rank {max_rank} exceeds the configured cap {rank_cap}")
    found: dict[tuple, MinimalRankPair] = {}

    def _add(key: tuple, diagram: DynkinDiagram, sigma: FoldingInvolution) -> None:
        if key in found:
            return
        report = validate_candidate(diagram, sigma, budget=budget)
        if report.ok and report.pair is not None:
            found[key] = report.pair

    for rank in range(1, max_rank + 1):
        for letter in _connected_letters(rank):
            diagram = build_dynkin(letter, rank)
            for sigma in _orthogonal_involutions(diagram):
                _add(
                    _canonical_key(diagram.cartan, sigma.mapping), diagram, sigma
                )

    for rank in range(1, max_rank + 1):
        for letter in _connected_letters(rank):
            single = build_dynkin(letter, rank)
            doubled = disjoint_union(single, single)
            swap = FoldingInvolution(
                tuple(list(range(rank, 2 * rank)) + list(range(rank)))
            )
            _add(("diag", single.cartan), doubled, swap)

    return sorted(found.values(), key=_sort_key)


def decompose(
    pair: MinimalRankPair, budget: int = DEFAULT_BUDGET
) -> list[MinimalRankPair]:
    """Split along the connected components of the folded diagram.

    Each factor is revalidated from its induced (diagram, involution); the
    factors multiply back to the input.  Irreducible pairs return a
    singleton list.
    """
    h_comps = pair.h_colored.diagram.components
    if len(h_comps) == 1:
        return [pair]
    factors = []
    for comp in h_comps:
        g_idx = sorted(
            {i for v in comp for i in pair.wh_generators[v]}
        )
        pos = {old: new for new, old in enumerate(g_idx)}
        cartan = tuple(
            tuple(pair.g_diagram.cartan[a][b] for b in g_idx) for a in g_idx
        )
        labels = []
        for sub_comp in _components_of(cartan):
            hit = identify_component(cartan, sub_comp)
            if hit is None:
                raise ValueError("factor diagram is not of finite type")
            labels.append(f"{hit[0]}{hit[1]}")
        sub_diagram = DynkinDiagram(
            type_label="+".join(labels),
            cartan=cartan,
            vertices=tuple(str(i + 1) for i in range(len(g_idx))),
        )
        sub_sigma = FoldingInvolution(
            tuple(pos[pair.sigma.mapping[old]] for old in g_idx)
        )
        report = validate_candidate(sub_diagram, sub_sigma, budget=budget)
        if not report.ok or report.pair is None:
            raise ValueError("component restriction failed validation")
        factors.append(report.pair)
    return sorted(factors, key=_sort_key)


# --- the rank-2 candidate table -----------------------------------------------


@dataclass(frozen=True)
class Rank2Row:
    """One hypothesis row: an ambient diagram, an involution, and a posited
    folded coloring; the verdict and tag are computed, never stored."""

    row: int
    g: DynkinDiagram
    sigma: FoldingInvolution
    posited_h: str
    posited_black: tuple[str, ...]
    verdict: str
    tag: str | None


def _evaluate_row(
    g: DynkinDiagram,
    sigma: FoldingInvolution,
    posited_h: str,
    posited_black: tuple[str, ...],
) -> tuple[str, str | None]:
    report = validate_candidate(g, sigma)
    if not report.ok:
        return "rejected", report.tag
    if "diagonal pair" in report.tags:
        return "diagonal", "diagonal_pair"
    pair = report.pair
    if pair is None:
        raise ValueError("accepted validation report carries no pair")
    computed = (pair.h_colored.diagram.type_label, tuple(sorted(pair.h_colored.black)))
    if computed == (posited_h, tuple(sorted(posited_black))):
        return "accepted", None
    # The posited coloring contradicts the computed fold.  With a triple
    # bond the contradiction runs through the long/short root dichotomy;
    # with a double bond it is a plain fiber-stability failure.
    has_triple = any(
        entry == -3 for row in pair.h_colored.diagram.cartan for entry in row
    )
    return "rejected", "long_short_stability" if has_triple else "wh_stability"


def rank2_table() -> list[Rank2Row]:
    """Evaluate the seven rank-2 folding hypotheses.

    Each row fixes an ambient diagram, an involution, and a posited
    coloring of the folded rank-2 diagram; the verdict is recomputed from
    scratch by validate_candidate plus a posited-vs-computed coloring
    comparison.
    """
    c2 = build_dynkin("C", 2)
    a1 = build_dynkin("A", 1)
    a3 = build_dynkin("A", 3)
    b3 = build_dynkin("B", 3)
    c4 = build_dynkin("C", 4)
    c2_a1_a1 = disjoint_union(disjoint_union(c2, a1), a1)
    c2_c2 = disjoint_union(c2, c2)

    hypotheses = [
        (1, c2_a1_a1, [("1", "3"), ("2", "4")], "C2", ("1", "2")),
        (2, c2_c2, [("1", "3"), ("2", "4")], "C2", ("1", "2")),
        (3, a3, [("1", "3")], "C2", ("2",)),
        (4, a3, [("1", "3")], "C2", ("1",)),
        (5, c4, [("1", "3"), ("2", "4")], "G2", ("1", "2")),
        (6, b3, [("1", "3")], "G2", ("2",)),
        (7, b3, [("1", "3")], "G2", ("1",)),
    ]
    rows = []
    for row_id, g, pairs, posited_h, posited_black in hypotheses:
        sigma = FoldingInvolution.from_pairs(g, pairs)
        verdict, tag = _evaluate_row(g, sigma, posited_h, posited_black)
        rows.append(
            Rank2Row(
                row=row_id,
                g=g,
                sigma=sigma,
                posited_h=posited_h,
                posited_black=posited_black,
                verdict=verdict,
                tag=tag,
            )
        )
    return rows


# --- serialization --------------------------------------------------------------


def pair_to_json(pair: MinimalRankPair) -> dict:
    vertices = pair.g_diagram.vertices
    return {
        "g": diagram_to_json(pair.g_diagram),
        "sigma": [[vertices[i], vertices[j]] for i, j in pair.sigma.two_cycles],
        "h": diagram_to_json(pair.h_colored.diagram),
        "black": list(pair.h_colored.black),
        "family": pair.family,
    }


def classification_to_json(pairs: list[MinimalRankPair]) -> list[dict]:
    return [pair_to_json(p) for p in pairs]


def candidate_from_json(obj: dict) -> tuple[DynkinDiagram, FoldingInvolution]:
    """Parse an explicit {"g": diagram, "sigma": [[id, id], ...]} candidate."""
    try:
        diagram = diagram_from_json(obj["g"])
        pairs = [(str(a), str(b)) for a, b in obj.get("sigma", [])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed candidate object: {exc}") from None
    return diagram, FoldingInvolution.from_pairs(diagram, pairs)
