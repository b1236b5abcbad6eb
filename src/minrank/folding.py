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
import json
import operator
from dataclasses import dataclass

from .root_system import (
    DEFAULT_RANK_CAP,
    DynkinDiagram,
    Root,
    TypedComponents,
    build_dynkin,
    diagram_to_json,
    diagram_from_json,
    disjoint_union,
    parse_type,
    string_pairing,
    typed_components,
    typed_label,
    _ALIASES,
    _as_given,
    _bond_invariant,
    _identification_candidates,
    _isomorphisms,
    _rank_in_range,
    _reflect_root,
    _STRING_STEPS,
)
from .weyl import (
    DEFAULT_BUDGET,
    Table,
    WeylElement,
    WeylGroup,
    Subgroup,
    coset_table,
    diagram_data,
    order_within_budget,
    perm_closure,
    word_perm,
)


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
        return _projection(self.orbits, [root])[0]

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
    ``cosets`` is the coset table of W(g) over the subgroup they generate,
    as built to certify the embedding order; None when that order is
    known without a table (``_order_is_known``).
    """

    g_diagram: DynkinDiagram
    sigma: FoldingInvolution
    h_colored: ColoredDynkin
    rho: RestrictionData
    wh_generators: tuple[tuple[int, ...], ...]
    family: str
    cosets: Table | None = None


@dataclass(frozen=True)
class ValidationReport:
    failed_check: str | None = None
    tag: str | None = None
    tags: tuple[str, ...] = ()
    pair: MinimalRankPair | None = None

    @property
    def ok(self) -> bool:
        return self.pair is not None


class _CheckFailed(ValueError):
    """A folding check failed; ``check`` and ``tag`` name it in reports."""

    def __init__(self, check: str, tag: str, message: str) -> None:
        super().__init__(message)
        self.check = check
        self.tag = tag


def _is_diagonal(g_diagram: DynkinDiagram, sigma: FoldingInvolution) -> bool:
    """True when g has two components and sigma swaps them."""
    comps = g_diagram.components
    return len(comps) == 2 and {sigma.mapping[i] for i in comps[0]} == set(comps[1])


def _order_is_known(g_diagram: DynkinDiagram, sigma: FoldingInvolution) -> bool:
    """True when the embedded folded group has order |W(h)| by construction.

    That holds for the identity, and when sigma swaps the two components
    of g by a diagram isomorphism phi: the folded words are then the pairs
    (s_i, s_phi(i)), which generate the graph of phi in W(a) x W(b), a
    group of order |W(a)| = |W(h)| (Steinberg 1968).  Its coset table, of
    |W(a)| rows, need not be built.
    """
    if sigma.is_identity:
        return True
    m, cartan = sigma.mapping, g_diagram.cartan
    return _is_diagonal(g_diagram, sigma) and all(
        cartan[m[i]][m[j]] == cartan[i][j] for i in range(len(m)) for j in range(len(m))
    )


_FOLD_FAMILIES = {
    ("B", 3, "G", 2): "B3_G2",
    ("E", 6, "F", 4): "E6_F4",
}


def _family_name(
    g_diagram: DynkinDiagram,
    sigma: FoldingInvolution,
    h_components: TypedComponents,
    diagonal: bool,
) -> str:
    """Family of a validated pair, from h's components as typed by validation."""
    if len(h_components) > 1:
        return "product"
    if sigma.is_identity:
        return "identity"
    if diagonal:
        return "diagonal"
    g_components = typed_components(g_diagram.cartan)
    if g_components is None or len(g_components) != 1:
        return "unknown"
    (gl, gr, _), = g_components
    (hl, hr, _), = h_components
    if gl == "A" and hl == "C" and gr == 2 * hr - 1:
        return "A2n-1_Cn"
    if gl == "D" and hl == "B" and hr == gr - 1:
        return "Dn_Bn-1"
    return _FOLD_FAMILIES.get((gl, gr, hl, hr), f"{gl}{gr}_{hl}{hr}")


def _getter(indices: list[int]):
    """``operator.itemgetter(*indices)``, returning a tuple for one index too."""
    return operator.itemgetter(*indices) if len(indices) > 1 else lambda r: (r[indices[0]],)


def _projection(orbits: tuple[tuple[int, ...], ...], roots) -> list[Root]:
    """The image of each root along ``orbits``, in order: coordinate k
    sums the root's coordinates over orbit k."""
    # image coordinate k is r[first[k]] + r[second[k]]; a fixed point's
    # second index reads the zero padded onto r
    pad = sum(map(len, orbits))
    first = _getter([orbit[0] for orbit in orbits])
    second = _getter([orbit[1] if len(orbit) == 2 else pad for orbit in orbits])
    return [
        tuple(map(operator.add, first(p), second(p)))
        for r in roots
        for p in [r + (0,)]
    ]


def restriction_map(
    g_diagram: DynkinDiagram, sigma: FoldingInvolution
) -> RestrictionData:
    """Project the root set along the orbit coordinates of ``sigma``.

    Checks (a) and (b): raises ValueError when a 2-cycle is not
    orthogonal, a fiber has three or more elements, or the two roots of a
    2-fiber are not orthogonal.  Fibers are checked in root order.
    """
    if len(sigma.mapping) != g_diagram.rank:
        raise ValueError("involution size does not match diagram rank")
    rs = diagram_data(g_diagram).root_system
    for i, j in sigma.two_cycles:
        if g_diagram.cartan[i][j] != 0:
            raise _CheckFailed(
                "a", "nonorthogonal_pair", f"vertices {i} and {j} are not orthogonal"
            )
    fibers: dict[Root, list[Root]] = {}
    for img, r in zip(_projection(sigma.orbits, rs.roots), rs.roots):
        fibers.setdefault(img, []).append(r)
    for img, fiber in fibers.items():
        if len(fiber) > 2:
            raise _CheckFailed(
                "b", "fiber_size_3", f"fiber over {img} has {len(fiber)} elements"
            )
        if len(fiber) == 2 and not (
            string_pairing(rs.root_set, fiber[0], fiber[1]) == 0
            and string_pairing(rs.root_set, fiber[1], fiber[0]) == 0
        ):
            raise _CheckFailed(
                "b", "nonorthogonal_fiber", f"the roots over {img} are not orthogonal"
            )
    return RestrictionData(
        orbits=sigma.orbits,
        image_roots=tuple(sorted(fibers)),
        fibers={img: tuple(f) for img, f in fibers.items()},
    )


def _basis_pairing(image_set: frozenset[Root], m: int, i: int, j: int) -> int | None:
    """``string_pairing(image_set, e_i, e_j)`` for i != j.  Image roots are
    sign-coherent, so e_i - e_j is not one and the string starts at e_i."""
    root = [0] * m
    root[i] = 1
    for k in range(_STRING_STEPS):
        root[j] = k + 1
        if tuple(root) not in image_set:
            return -k
    return None


def _folded_cartan(image_set, m: int) -> tuple[tuple[int | None, ...], ...]:
    """The folded Cartan matrix read off root strings in an image of rank
    m; None where a string through a basis vector does not break."""
    return tuple(
        tuple(2 if i == j else _basis_pairing(image_set, m, i, j) for j in range(m))
        for i in range(m)
    )


def _folded_presentation(
    rho: RestrictionData,
) -> tuple[ColoredDynkin, tuple[tuple[int, ...], ...], TypedComponents]:
    """Check (c): the folded diagram in standard Bourbaki form, the orbit
    behind each of its vertices, and its typed components.

    The folded Cartan matrix is read off root strings in the image; each
    component is relabeled to its standard type, components ordered by
    (letter, rank, orbit indices).  Raises ValueError unless the image is
    exactly the root set of that matrix.
    """
    m = len(rho.orbits)
    image_set = rho.image_set
    cartan_h = _folded_cartan(image_set, m)
    try:  # the pairings must form a Cartan matrix
        DynkinDiagram("", cartan_h, tuple(map(str, range(m))))
    except ValueError as exc:
        raise _CheckFailed("c", "image_not_root_system", str(exc)) from None
    identified = typed_components(cartan_h)
    if identified is None:
        raise _CheckFailed(
            "c", "image_not_root_system", "folded Cartan matrix is not of finite type"
        )
    identified.sort()
    orbit_of_vertex = [k for _, _, idx in identified for k in idx]
    h_diagram = DynkinDiagram(
        type_label=typed_label(identified),
        cartan=tuple(
            tuple(cartan_h[a][b] for b in orbit_of_vertex) for a in orbit_of_vertex
        ),
        vertices=tuple(str(v + 1) for v in range(m)),
    )
    vertex_of_orbit = {k: v for v, k in enumerate(orbit_of_vertex)}
    closure = {
        tuple(r[vertex_of_orbit[k]] for k in range(m))
        for r in diagram_data(h_diagram).root_system.roots
    }
    if closure != image_set:
        raise _CheckFailed(
            "c", "image_not_root_system",
            "image is not the root set of the folded Cartan matrix",
        )
    wh_generators = tuple(rho.orbits[k] for k in orbit_of_vertex)
    black = tuple(str(v + 1) for v, w in enumerate(wh_generators) if len(w) == 2)
    return ColoredDynkin(diagram=h_diagram, black=black), wh_generators, identified


def folded_simple_system(rho: RestrictionData) -> ColoredDynkin:
    """Colored diagram on the image simple roots, Cartan data from root strings.

    Raises ValueError when the image is not a root system (check c).
    """
    return _folded_presentation(rho)[0]


def _may_fold_onto(
    g_diagram: DynkinDiagram, sigma: FoldingInvolution, target: DynkinDiagram
) -> bool:
    """False when ``sigma`` cannot validate with a folded diagram of
    ``target``'s type: the positive roots of g project onto a number of
    images other than |positive roots of target|, or the folded Cartan
    matrix read off those images is not isomorphic to ``target.cartan``.

    Exact: check (c) reads the folded matrix only at e_i + k e_j with
    k >= 1, positive vectors, and roots are sign-coherent, so only positive
    roots project onto them.  An accepted fold's image is the root set of
    its folded matrix, so the positive images are its positive roots, and
    its type label means that matrix is isomorphic to the standard one.
    """
    rs = diagram_data(g_diagram).root_system
    positive = frozenset(_projection(sigma.orbits, rs.positive_roots))
    if len(positive) != len(diagram_data(target).root_system.positive_roots):
        return False
    m = len(sigma.orbits)
    cartan = _folded_cartan(positive, m)
    if any(None in row for row in cartan) or _bond_invariant(
        cartan, range(m)
    ) != _bond_invariant(target.cartan, range(target.rank)):
        return False
    return next(_isomorphisms(target.cartan, cartan, tuple(range(m))), None) is not None


def _apply_word(columns, word: tuple[int, ...], root: Root) -> Root:
    for j in word:
        root = _reflect_root(columns, root, j)
    return root


def validate_candidate(
    g_diagram: DynkinDiagram,
    sigma: FoldingInvolution,
    budget: int = DEFAULT_BUDGET,
) -> ValidationReport:
    """Run the folding checks in order; failures are report entries.

    Checks: (a) 2-cycles orthogonal; (b) fibers of size 1 or 2, 2-fibers
    orthogonal (both in ``restriction_map``); (c) image equals the root
    system of the folded Cartan matrix (``folded_simple_system``); (e)
    embedded generators map fibers onto fibers; the embedding order; then
    (g) identity/diagonal tagging.  On success the report carries the
    assembled MinimalRankPair.

    The letters (d) and (f) name no check: the root-count and
    simple-preimage identities cannot fail.  Every root lies in exactly
    one fiber, so the fiber sizes sum to the root count; roots are
    sign-coherent, so a root projecting onto the k-th folded simple root
    is a simple root in orbit k, and the preimages of the folded simples
    are the ambient simples.
    """
    columns = g_diagram.cartan_columns
    try:
        rho = restriction_map(g_diagram, sigma)
        h_colored, wh_generators, h_components = _folded_presentation(rho)

        # (e) embedded generators must map every 2-fiber into a single fiber
        for word in wh_generators:
            for img, fiber in rho.fibers.items():
                if len(fiber) == 2 and len(set(_projection(
                    rho.orbits, [_apply_word(columns, word, r) for r in fiber]
                ))) != 1:
                    raise _CheckFailed(
                        "e", "wh_stability", f"word {word} splits the fiber over {img}"
                    )

        # embedded subgroup must realize the abstract folded Weyl group: the
        # folded words generate a subgroup of order |W(g)| / index, the index
        # read off their coset table, which the orbit graph then reuses.
        cosets = None
        if not _order_is_known(g_diagram, sigma):
            expected = order_within_budget(h_colored.diagram, budget)
            cosets = coset_table(g_diagram.cartan, wh_generators, budget=budget)
            if len(cosets) * expected != sum(diagram_data(g_diagram).poincare):
                raise _CheckFailed(
                    "embed",
                    "embedding_order",
                    f"embedded subgroup has index {len(cosets)}, |W(h)| = {expected}",
                )
    except _CheckFailed as exc:
        return ValidationReport(failed_check=exc.check, tag=exc.tag)

    # (g) nonredundancy tags
    tags: tuple[str, ...] = ("identity pair",) if sigma.is_identity else ()
    diagonal = _is_diagonal(g_diagram, sigma)
    if diagonal:
        tags = ("diagonal pair",)
    pair = MinimalRankPair(
        g_diagram=g_diagram,
        sigma=sigma,
        h_colored=h_colored,
        rho=rho,
        wh_generators=wh_generators,
        family=_family_name(g_diagram, sigma, h_components, diagonal),
        cosets=cosets,
    )
    return ValidationReport(tags=tags, pair=pair)


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
    gen_perms = [word_perm(rs, orbit) for orbit in pair.wh_generators]
    generators = tuple(W.elements[p] for p in gen_perms)
    if pair.sigma.is_identity:
        return Subgroup(W, tuple(w.perm for w in W.elements.values())), generators
    expected = order_within_budget(pair.h_colored.diagram, budget)
    perms = perm_closure(gen_perms, len(rs.roots), budget=budget)
    if len(perms) != expected:
        raise ValueError(
            f"embedded subgroup has order {len(perms)}, expected {expected}"
        )
    return Subgroup(W, tuple(perms)), generators


# --- classification -----------------------------------------------------------


def _orthogonal_involutions(
    diagram: DynkinDiagram, cycles: int | None = None
) -> list[FoldingInvolution]:
    """All involutions whose 2-cycles join orthogonal vertices, identity
    first; when ``cycles`` is given, only those with exactly that many
    2-cycles, in the same order."""
    n = diagram.rank
    cartan = diagram.cartan
    out: list[FoldingInvolution] = []

    def rec(remaining: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> None:
        if len(pairs) == cycles or not remaining:
            # the remaining vertices are fixed points
            if cycles in (None, len(pairs)):
                mapping = list(range(n))
                for i, j in pairs:
                    mapping[i], mapping[j] = j, i
                out.append(FoldingInvolution(tuple(mapping)))
            return
        if cycles is not None and cycles - len(pairs) > len(remaining) // 2:
            return  # too few vertices left for the missing 2-cycles
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


def diagonal_candidate(
    single: DynkinDiagram,
) -> tuple[DynkinDiagram, FoldingInvolution]:
    """The doubled diagram single + single with the swap i <-> i + n."""
    n = single.rank
    swap = FoldingInvolution(tuple(range(n, 2 * n)) + tuple(range(n)))
    return disjoint_union(single, single), swap


def classify(max_rank: int, budget: int = DEFAULT_BUDGET) -> list[MinimalRankPair]:
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
    if max_rank > DEFAULT_RANK_CAP:
        raise ValueError(
            f"max_rank {max_rank} exceeds the configured cap {DEFAULT_RANK_CAP}"
        )
    found: dict[tuple, MinimalRankPair] = {}

    def _add(key: tuple, diagram: DynkinDiagram, sigma: FoldingInvolution) -> None:
        if key in found:
            return
        report = validate_candidate(diagram, sigma, budget=budget)
        if report.ok:
            found[key] = report.pair

    connected = [
        build_dynkin(letter, r)
        for rank in range(1, max_rank + 1)
        for letter, r in _identification_candidates(rank)
    ]
    for diagram in connected:
        for sigma in _orthogonal_involutions(diagram):
            _add(_canonical_key(diagram.cartan, sigma.mapping), diagram, sigma)
    for single in connected:
        _add(("diag", single.cartan), *diagonal_candidate(single))

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
        typed = typed_components(cartan)
        if typed is None:
            raise ValueError("factor diagram is not of finite type")
        sub_diagram = DynkinDiagram(
            type_label=typed_label(typed),
            cartan=cartan,
            vertices=tuple(str(i + 1) for i in range(len(g_idx))),
        )
        sub_sigma = FoldingInvolution(
            tuple(pos[pair.sigma.mapping[old]] for old in g_idx)
        )
        report = validate_candidate(sub_diagram, sub_sigma, budget=budget)
        if not report.ok:
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
        sigma = obj.get("sigma", [])
        pairs = [tuple(_as_given(v, str) for v in _as_given(p, list)) for p in sigma]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed candidate object: {exc}") from None
    return diagram, FoldingInvolution.from_pairs(diagram, pairs)


# --- pair selectors -------------------------------------------------------------


class SelectorError(ValueError):
    """A pair selector that is malformed or does not name exactly one pair."""


def _check_type_field(diagram: DynkinDiagram) -> None:
    """Raise ValueError unless the k-th "+"-separated part of the type label
    names the k-th component; B2 and D3 stand for C2 and A3."""
    typed = typed_components(diagram.cartan)
    parts = (_ALIASES.get(part, part) for part in diagram.type_label.split("+"))
    if typed is None or typed_label(typed) != "+".join(parts):
        raise ValueError(f"type {diagram.type_label!r} does not match its Cartan matrix")


def resolve_pair(selector: str, budget: int = DEFAULT_BUDGET) -> ValidationReport:
    """The validation report of the pair a selector names, or SelectorError.

    A family key ("A3_C2") names the one nontrivial fold onto its right
    label, up to relabeling; only the involutions that ``_may_fold_onto``
    it are validated, so the budget bounds only those.  "identity:TYPE"
    and "diag:TYPE" name the trivial and component-swap candidates, and a
    string starting with "{" an explicit candidate, whose g must be of
    finite type and named by its "type" field.  Only an explicit candidate
    can fail validation.
    """
    s = selector.strip()
    if s.startswith("{"):
        try:
            diagram, sigma = candidate_from_json(json.loads(s))
        except (KeyError, TypeError, ValueError) as exc:
            raise SelectorError(f"malformed candidate JSON: {exc}") from exc
        try:
            diagram_data(diagram).root_system  # g is of finite type, or raises
            _check_type_field(diagram)
            return validate_candidate(diagram, sigma, budget=budget)
        except ValueError as exc:
            raise SelectorError(f"candidate diagram g: {exc}") from exc
    if not s.startswith(("identity:", "diag:")) and "_" not in s:
        raise SelectorError(f"unrecognized pair selector {selector!r}")
    try:
        if s.startswith("identity:"):
            diagram = build_dynkin(*parse_type(s[len("identity:"):]))
            sigma = FoldingInvolution.identity(diagram)
        elif s.startswith("diag:"):
            single = build_dynkin(*parse_type(s[len("diag:"):]))
            diagram, sigma = diagonal_candidate(single)
        else:
            g_part, h_part = s.split("_", 1)
            g_type, (h_letter, h_rank) = parse_type(g_part), parse_type(h_part)
            diagram, sigma = build_dynkin(*g_type), None
    except ValueError as exc:
        raise SelectorError(str(exc)) from exc
    if sigma is not None:
        return validate_candidate(diagram, sigma, budget=budget)
    # the folded diagram has one vertex per orbit of sigma, so a fold onto
    # h has rank(g) - rank(h) 2-cycles; a label that build_dynkin refuses
    # matches nothing
    cycles = diagram.rank - h_rank
    hits: list[ValidationReport] = []
    if cycles > 0 and _rank_in_range(h_letter, h_rank):
        target = build_dynkin(h_letter, h_rank)
        for sigma in _orthogonal_involutions(diagram, cycles):
            if _may_fold_onto(diagram, sigma, target):
                report = validate_candidate(diagram, sigma, budget=budget)
                if report.ok and report.pair.h_colored.diagram.type_label == target.type_label:
                    hits.append(report)
    if not hits:
        raise SelectorError(f"no valid pair matches selector {selector!r}")
    if len(hits) > 1 and len(
        {_canonical_key(diagram.cartan, r.pair.sigma.mapping) for r in hits}
    ) > 1:
        raise SelectorError(f"selector {selector!r} matches several pairs")
    return hits[-1]
