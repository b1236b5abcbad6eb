import itertools
import json
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import minrank as mr
from minrank import folding
from minrank.folding import (
    SelectorError,
    _CheckFailed,
    _basis_pairing,
    _canonical_key,
    _may_fold_onto,
    _order_is_known,
    _orthogonal_involutions,
    _projection,
    candidate_from_json,
    resolve_pair,
)
from minrank.root_system import _identification_candidates, diagram_to_json, string_pairing
from minrank.weyl import BudgetExceededError, perm_closure, word_perm

import oracles


@lru_cache(maxsize=None)
def rs_of(letter, rank):
    return mr.build_root_system(mr.build_dynkin(letter, rank))


def fold_of(letter, rank, pairs):
    diagram = mr.build_dynkin(letter, rank)
    return diagram, mr.FoldingInvolution.from_pairs(diagram, pairs)


def doubled(letter, rank):
    single = mr.build_dynkin(letter, rank)
    diagram = mr.disjoint_union(single, single)
    mapping = tuple(list(range(rank, 2 * rank)) + list(range(rank)))
    return diagram, mr.FoldingInvolution(mapping)


def test_involution_constructor_validates():
    with pytest.raises(ValueError):
        mr.FoldingInvolution((1, 2, 0))
    with pytest.raises(ValueError):
        mr.FoldingInvolution((0, 0, 2))
    diagram = mr.build_dynkin("A", 3)
    with pytest.raises(ValueError):
        mr.FoldingInvolution.from_pairs(diagram, [("1", "1")])
    with pytest.raises(ValueError):
        mr.FoldingInvolution.from_pairs(diagram, [("1", "9")])


def test_involution_orbits_and_cycles():
    _, sigma = fold_of("A", 3, [("1", "3")])
    assert sigma.two_cycles == ((0, 2),)
    assert sigma.orbits == ((0, 2), (1,))
    assert not sigma.is_identity
    assert mr.FoldingInvolution.identity(mr.build_dynkin("A", 3)).is_identity


def test_restriction_map_a3():
    diagram, sigma = fold_of("A", 3, [("1", "3")])
    rho = mr.restriction_map(diagram, sigma)
    assert rho.orbits == ((0, 2), (1,))
    assert rho.project((1, 1, 0)) == (1, 1)
    assert rho.project((0, 1, 1)) == (1, 1)
    assert len(rho.image_roots) == 8
    sizes = sorted(len(v) for v in rho.fibers.values())
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2]


def test_restriction_map_rejects_bad_involutions():
    diagram, sigma = fold_of("A", 2, [("1", "2")])
    with pytest.raises(ValueError):
        mr.restriction_map(diagram, sigma)
    diagram, sigma = fold_of("C", 4, [("1", "3"), ("2", "4")])
    with pytest.raises(ValueError):
        mr.restriction_map(diagram, sigma)


def test_folded_simple_system_a3_gives_c2_with_black_paired_vertex():
    diagram, sigma = fold_of("A", 3, [("1", "3")])
    colored = mr.folded_simple_system(mr.restriction_map(diagram, sigma))
    assert colored.diagram.type_label == "C2"
    assert colored.diagram.cartan == ((2, -1), (-2, 2))
    assert colored.black == ("1",)


def test_folded_simple_system_b3_gives_g2():
    diagram, sigma = fold_of("B", 3, [("1", "3")])
    colored = mr.folded_simple_system(mr.restriction_map(diagram, sigma))
    assert colored.diagram.type_label == "G2"
    assert colored.black == ("1",)


def test_validate_identity_candidate():
    diagram = mr.build_dynkin("A", 2)
    report = mr.validate_candidate(diagram, mr.FoldingInvolution.identity(diagram))
    assert report.ok
    assert report.failed_check is None
    assert "identity pair" in report.tags
    pair = report.pair
    assert pair.family == "identity"
    assert pair.h_colored.black == ()
    assert pair.h_colored.diagram.cartan == diagram.cartan


def test_validate_diagonal_candidate():
    diagram, swap = doubled("A", 2)
    report = mr.validate_candidate(diagram, swap)
    assert report.ok
    assert "diagonal pair" in report.tags
    assert report.pair.family == "diagonal"
    assert report.pair.h_colored.diagram.type_label == "A2"
    assert report.pair.h_colored.black == ("1", "2")


@pytest.mark.parametrize(
    "letter,rank,pairs,failed_check,tag",
    [
        ("A", 2, [("1", "2")], "a", "nonorthogonal_pair"),
        ("C", 4, [("1", "3"), ("2", "4")], "b", "fiber_size_3"),
        ("A", 4, [("1", "3")], "c", "image_not_root_system"),
        ("B", 4, [("1", "3")], "c", "image_not_root_system"),
    ],
)
def test_validate_failure_tags(letter, rank, pairs, failed_check, tag):
    diagram, sigma = fold_of(letter, rank, pairs)
    report = mr.validate_candidate(diagram, sigma)
    assert not report.ok
    assert report.failed_check == failed_check
    assert report.tag == tag
    assert report.pair is None


def test_validated_folds_and_embedded_orders():
    expectations = [
        ("A", 3, [("1", "3")], "C2", 8),
        ("B", 3, [("1", "3")], "G2", 12),
        ("A", 5, [("1", "5"), ("2", "4")], "C3", 48),
        ("D", 4, [("3", "4")], "B3", 48),
    ]
    for letter, rank, pairs, h_label, order in expectations:
        diagram, sigma = fold_of(letter, rank, pairs)
        report = mr.validate_candidate(diagram, sigma)
        assert report.ok, (letter, rank, report.failed_check)
        pair = report.pair
        assert pair.h_colored.diagram.type_label == h_label
        W = mr.generate_weyl(rs_of(letter, rank))
        sub, gens = mr.embed_weyl(pair, W)
        assert sub.order == order
        assert len(gens) == pair.h_colored.diagram.rank


def test_embedded_generators_satisfy_folded_braid_relations():
    diagram, sigma = fold_of("B", 3, [("1", "3")])
    pair = mr.validate_candidate(diagram, sigma).pair
    W = mr.generate_weyl(rs_of("B", 3))
    _, gens = mr.embed_weyl(pair, W)
    h_cartan = pair.h_colored.diagram.cartan
    ms = {0: 2, 1: 3, 2: 4, 3: 6}
    for i, j in itertools.combinations(range(len(gens)), 2):
        m = ms[h_cartan[i][j] * h_cartan[j][i]]
        w = W.identity
        for _ in range(m):
            w = W.product(w, W.product(gens[i], gens[j]))
        assert w == W.identity


def test_embed_weyl_rejects_mismatched_group():
    diagram, sigma = fold_of("A", 3, [("1", "3")])
    pair = mr.validate_candidate(diagram, sigma).pair
    wrong = mr.generate_weyl(rs_of("B", 3))
    with pytest.raises(ValueError):
        mr.embed_weyl(pair, wrong)


def test_classify_rank_1():
    pairs = mr.classify(1)
    assert len(pairs) == 2
    labels = [(p.g_diagram.type_label, p.family) for p in pairs]
    assert labels == [("A1", "identity"), ("A1+A1", "diagonal")]


def test_classify_rank_3_connected_folds():
    pairs = mr.classify(3)
    nontrivial = [
        p
        for p in pairs
        if p.family not in ("identity", "diagonal")
    ]
    found = {(p.g_diagram.type_label, p.h_colored.diagram.type_label) for p in nontrivial}
    assert found == {("A3", "C2"), ("B3", "G2")}
    families = {p.family for p in nontrivial}
    assert families == {"A2n-1_Cn", "B3_G2"}


def test_classify_deduplicates_d4_folds():
    pairs = [p for p in mr.classify(4) if p.family == "Dn_Bn-1"]
    assert len(pairs) == 1
    assert pairs[0].g_diagram.type_label == "D4"


def test_classify_is_sorted_and_stable():
    first = mr.classify(3)
    second = mr.classify(3)
    assert mr.classification_to_json(first) == mr.classification_to_json(second)


def test_decompose_splits_a_product_fold():
    g = mr.disjoint_union(mr.build_dynkin("A", 3), mr.build_dynkin("B", 3))
    sigma = mr.FoldingInvolution.from_pairs(g, [("1", "3"), ("4", "6")])
    report = mr.validate_candidate(g, sigma)
    assert report.ok
    assert report.pair.family == "product"
    factors = mr.decompose(report.pair)
    assert [f.g_diagram.type_label for f in factors] == ["A3", "B3"]
    assert [f.h_colored.diagram.type_label for f in factors] == ["C2", "G2"]
    assert [f.family for f in factors] == ["A2n-1_Cn", "B3_G2"]


def test_decompose_identity_product():
    g = mr.disjoint_union(mr.build_dynkin("A", 2), mr.build_dynkin("A", 2))
    report = mr.validate_candidate(g, mr.FoldingInvolution.identity(g))
    factors = mr.decompose(report.pair)
    assert len(factors) == 2
    assert all(f.family == "identity" for f in factors)


def test_decompose_connected_pair_is_a_singleton():
    diagram, sigma = fold_of("A", 3, [("1", "3")])
    pair = mr.validate_candidate(diagram, sigma).pair
    factors = mr.decompose(pair)
    assert len(factors) == 1
    assert factors[0].g_diagram == pair.g_diagram


def test_pair_json_roundtrip():
    diagram, sigma = fold_of("B", 3, [("1", "3")])
    pair = mr.validate_candidate(diagram, sigma).pair
    obj = mr.pair_to_json(pair)
    assert obj["g"]["type"] == "B3"
    assert obj["h"]["type"] == "G2"
    assert obj["sigma"] == [["1", "3"]]
    assert obj["black"] == ["1"]
    g2, sigma2 = candidate_from_json(obj)
    assert g2 == diagram
    assert sigma2 == sigma


def test_candidate_from_json_validates_shape():
    with pytest.raises(ValueError):
        candidate_from_json({"g": {"type": "A3"}})


def test_rank2_table_matches_the_seven_row_pattern():
    rows = mr.rank2_table()
    got = [(r.row, r.verdict, r.tag) for r in rows]
    assert got == [
        (1, "rejected", "wh_stability"),
        (2, "diagonal", "diagonal_pair"),
        (3, "rejected", "wh_stability"),
        (4, "accepted", None),
        (5, "rejected", "fiber_size_3"),
        (6, "rejected", "long_short_stability"),
        (7, "accepted", None),
    ]
    assert [r.posited_h for r in rows] == ["C2", "C2", "C2", "C2", "G2", "G2", "G2"]


def test_rank2_table_accepted_rows_carry_the_standard_folds():
    rows = mr.rank2_table()
    assert rows[3].g.type_label == "A3"
    assert rows[3].posited_black == ("1",)
    assert rows[6].g.type_label == "B3"
    assert rows[6].posited_black == ("1",)


@pytest.mark.parametrize("label", ["A3_C2", "B3_G2", "D4_B3", "A5_C3"])
def test_fiber_size_is_constant_on_wh_orbits(label, classified6):
    gl, hl = label.split("_")
    pair = next(
        p
        for p in classified6
        if p.g_diagram.type_label == gl and p.h_colored.diagram.type_label == hl
    )
    W = mr.generate_weyl(rs_of(gl[0], int(gl[1])))
    sub, _ = mr.embed_weyl(pair, W)
    rho = pair.rho
    roots = mr.build_root_system(pair.g_diagram).roots
    for perm in sub.perms:
        for idx, beta in enumerate(roots):
            image = rho.project(beta)
            moved = rho.project(roots[perm[idx]])
            assert len(rho.fibers[image]) == len(rho.fibers[moved])


def relabel(diagram, sigma, perm):
    n = diagram.rank
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i
    cartan = tuple(
        tuple(diagram.cartan[perm[i]][perm[j]] for j in range(n)) for i in range(n)
    )
    mapping = tuple(inv[sigma.mapping[perm[i]]] for i in range(n))
    relabeled = mr.DynkinDiagram(diagram.type_label, cartan, diagram.vertices)
    return relabeled, mr.FoldingInvolution(mapping)


@given(st.randoms(use_true_random=False))
def test_canonical_key_is_relabel_invariant(rnd):
    """Vertex renumbering does not change the dedup key."""
    diagram, sigma = fold_of("A", 3, [("1", "3")])
    perm = list(range(3))
    rnd.shuffle(perm)
    other, other_sigma = relabel(diagram, sigma, tuple(perm))
    assert _canonical_key(diagram.cartan, sigma.mapping) == _canonical_key(
        other.cartan, other_sigma.mapping
    )
    report = mr.validate_candidate(other, other_sigma)
    assert report.ok
    assert report.pair.h_colored.diagram.type_label == "C2"


def test_restriction_map_rejects_a_nonorthogonal_two_fiber():
    diagram, sigma = fold_of("C", 3, [("1", "3")])
    with pytest.raises(ValueError, match="not orthogonal"):
        mr.restriction_map(diagram, sigma)
    report = mr.validate_candidate(diagram, sigma)
    assert (report.failed_check, report.tag) == ("b", "nonorthogonal_fiber")


def test_folded_simple_system_rejects_an_image_that_is_not_a_root_system():
    diagram, sigma = fold_of("A", 4, [("1", "3")])
    rho = mr.restriction_map(diagram, sigma)
    with pytest.raises(ValueError, match="root set"):
        mr.folded_simple_system(rho)


def forbid_root_permutations(monkeypatch):
    """Make perm_closure, reflection_perms and word_perm fail the test
    under every name a minrank module binds them to."""
    import sys

    from minrank import weyl

    def refuse(*args, **kwargs):
        raise AssertionError("a root permutation was built")

    originals = (weyl.perm_closure, weyl.reflection_perms, weyl.word_perm)
    for name, module in list(sys.modules.items()):
        if name == "minrank" or name.startswith("minrank."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize(
    "letter,rank,pairs,h_label",
    [
        ("D", 7, [("6", "7")], "B6"),
        ("E", 6, [("1", "6"), ("3", "5")], "F4"),
        ("A", 7, [("1", "7"), ("2", "6"), ("3", "5")], "C4"),
    ],
)
def test_validation_builds_no_root_permutation(
    monkeypatch, letter, rank, pairs, h_label
):
    forbid_root_permutations(monkeypatch)
    diagram, sigma = fold_of(letter, rank, pairs)
    report = mr.validate_candidate(diagram, sigma)
    assert report.ok
    assert report.pair.h_colored.diagram.type_label == h_label


def test_classify_builds_no_root_permutation(monkeypatch, classified6):
    forbid_root_permutations(monkeypatch)
    pairs = mr.classify(6)
    assert mr.classification_to_json(pairs) == mr.classification_to_json(classified6)


def fold_candidates():
    """Every orthogonal involution on the connected diagrams and on the
    unions of two connected diagrams of ambient rank <= 6, then the rank-2
    table's candidates."""
    connected = [
        mr.build_dynkin(letter, r)
        for rank in range(1, 7)
        for letter, r in _identification_candidates(rank)
    ]
    diagrams = connected + [
        mr.disjoint_union(d1, d2)
        for i, d1 in enumerate(connected)
        for d2 in connected[i:]
        if d1.rank + d2.rank <= 6
    ]
    candidates = [(g, s) for g in diagrams for s in _orthogonal_involutions(g)]
    return candidates + [(row.g, row.sigma) for row in mr.rank2_table()]


def sum_per_orbit_restriction(g, sigma):
    """Reference for restriction_map: one ``sum`` per orbit per root, then
    the same checks in the same order, as (orbits, image roots, fibers)."""
    rs = mr.build_root_system(g)
    for i, j in sigma.two_cycles:
        if g.cartan[i][j] != 0:
            raise _CheckFailed(
                "a", "nonorthogonal_pair", f"vertices {i} and {j} are not orthogonal"
            )
    orbits = sigma.orbits
    fibers = {}
    for r in rs.roots:
        img = tuple(sum(r[j] for j in orbit) for orbit in orbits)
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
    return orbits, tuple(sorted(fibers)), [(k, tuple(f)) for k, f in fibers.items()]


def restriction_or_failure(restrict, g, sigma):
    try:
        return restrict(g, sigma)
    except _CheckFailed as exc:
        return exc.check, exc.tag, str(exc)


def test_restriction_map_agrees_with_the_sum_per_orbit_projection():
    """Same orbits, image roots and fibers, in content and insertion order,
    or the same (check, tag, message), on every candidate of fold_candidates,
    rank 1 and the single-orbit folds of A1 and A1+A1 among them."""

    def restrict(g, sigma):
        rho = mr.restriction_map(g, sigma)
        return rho.orbits, rho.image_roots, list(rho.fibers.items())

    single_orbit = 0
    for g, sigma in fold_candidates():
        got = restriction_or_failure(restrict, g, sigma)
        assert got == restriction_or_failure(sum_per_orbit_restriction, g, sigma), (
            g.type_label, sigma.mapping
        )
        single_orbit += len(sigma.orbits) == 1
    assert single_orbit >= 2


def test_basis_pairing_agrees_with_the_root_string():
    """Check (c)'s folded Cartan entries equal string_pairing on the basis
    directions of every image that passes checks (a) and (b)."""
    images = 0
    for g, sigma in fold_candidates():
        try:
            image_set = mr.restriction_map(g, sigma).image_set
        except _CheckFailed:
            continue
        m = len(sigma.orbits)
        basis = [tuple(int(i == k) for i in range(m)) for k in range(m)]
        for i, j in itertools.permutations(range(m), 2):
            assert _basis_pairing(image_set, m, i, j) == string_pairing(
                image_set, basis[i], basis[j]
            ), (g.type_label, sigma.mapping, i, j)
        images += 1
    assert images >= 1300


def test_fiber_sizes_and_simple_preimages_hold_past_check_c():
    """The two identities that make a root-count check and a simple-preimage
    check unnecessary: every root lies in exactly one fiber, and the roots
    over the folded simple roots are exactly the ambient simple roots."""
    reached = 0
    for g, sigma in fold_candidates():
        try:
            rho = mr.restriction_map(g, sigma)
            mr.folded_simple_system(rho)
        except _CheckFailed:
            continue
        rs = mr.build_root_system(g)
        assert sum(len(fiber) for fiber in rho.fibers.values()) == len(rs.roots)
        m = len(rho.orbits)
        simples = {tuple(int(i == k) for i in range(m)) for k in range(m)}
        preimage = {r for img in simples for r in rho.fibers[img]}
        assert preimage == set(rs.simple_roots), (g.type_label, sigma.mapping)
        reached += 1
    assert reached >= 250


def test_orthogonal_involutions_with_k_cycles_filter_the_full_list():
    """The k-cycle listing is the full list's subsequence with exactly k
    2-cycles, in the same order, on every connected type of rank <= 8."""
    for rank in range(1, 9):
        for letter, r in _identification_candidates(rank):
            diagram = mr.build_dynkin(letter, r)
            full = _orthogonal_involutions(diagram)
            for k in range(-1, rank // 2 + 2):
                assert _orthogonal_involutions(diagram, k) == [
                    s for s in full if len(s.two_cycles) == k
                ], (diagram.type_label, k)


def filter_candidates():
    """Every orthogonal involution on the connected diagrams of rank <= 7
    and on the ordered unions of two of them of ambient rank <= 6."""
    connected = [
        mr.build_dynkin(letter, r)
        for rank in range(1, 8)
        for letter, r in _identification_candidates(rank)
    ]
    small = [d for d in connected if d.rank <= 6]
    diagrams = connected + [
        mr.disjoint_union(d1, d2)
        for d1 in small
        for d2 in small
        if d1.rank + d2.rank <= 6
    ]
    return [(g, s) for g in diagrams for s in _orthogonal_involutions(g)]


def test_may_fold_onto_keeps_every_fold_that_validates_with_its_label(monkeypatch):
    """On every candidate of filter_candidates, against every standard type
    of its orbit count: a fold that validates with label Y may fold onto
    Y, and wherever check (c) is reached, the matrix read off the positive
    images equals the one check (c) reads, and both are the root-string
    pairings of the image."""
    read = []
    real = folding._folded_cartan

    def recorded(image_set, m):
        read.append((image_set, real(image_set, m)))
        return read[-1][1]

    monkeypatch.setattr(folding, "_folded_cartan", recorded)
    candidates = filter_candidates()
    accepted = reached = tried = kept = 0
    for g, sigma in candidates:
        read.clear()
        report = mr.validate_candidate(g, sigma)
        m = len(sigma.orbits)
        if read:
            (image_set, presented), = read
            basis = [tuple(int(i == k) for i in range(m)) for k in range(m)]
            strings = tuple(
                tuple(string_pairing(image_set, basis[i], basis[j]) for j in range(m))
                for i in range(m)
            )
            positive = frozenset(
                _projection(sigma.orbits, mr.build_root_system(g).positive_roots)
            )
            assert real(positive, m) == presented == strings, (
                g.type_label, sigma.mapping
            )
            reached += 1
        label = report.pair.h_colored.diagram.type_label if report.ok else None
        for letter, rank in _identification_candidates(m):
            may = _may_fold_onto(g, sigma, mr.build_dynkin(letter, rank))
            assert may or label != f"{letter}{rank}", (g.type_label, sigma.mapping)
            tried += 1
            kept += may
        accepted += report.ok
    assert (len(candidates), accepted, reached) == (3389, 203, 2565)
    assert (tried, kept) == (14707, 304)


def relabeled_swaps():
    """Two component swaps by a diagram isomorphism other than i <-> i + n:
    A3+A3 through the flip of A3, and D4+D4 with the second block relabeled
    so that its branch vertex comes first."""
    a3a3 = mr.disjoint_union(mr.build_dynkin("A", 3), mr.build_dynkin("A", 3))
    flip = mr.FoldingInvolution.from_pairs(a3a3, [("1", "6"), ("2", "5"), ("3", "4")])
    d4 = mr.build_dynkin("D", 4).cartan
    p = (1, 0, 2, 3)  # vertex a of the second block is standard vertex p[a]
    block = [[d4[p[a]][p[b]] for b in range(4)] for a in range(4)]
    cartan = tuple(
        tuple(d4[a][b] if a < 4 and b < 4 else 0 for b in range(8))
        if a < 4
        else tuple(0 if b < 4 else block[a - 4][b - 4] for b in range(8))
        for a in range(8)
    )
    d4d4 = mr.DynkinDiagram("D4+D4", cartan, tuple(str(i + 1) for i in range(8)))
    swap = mr.FoldingInvolution(tuple(4 + p.index(i) for i in range(4)) + p)
    return [(a3a3, flip), (d4d4, swap)]


def test_exempt_candidates_validate_with_the_folded_group_order():
    """Every candidate whose embedded order validation takes as known
    passes, and its folded generators generate a group of order |W(h)|.
    The closure is listed up to ambient rank 5: on the identities of rank 6
    it would be W(g) itself, up to 51,840 elements."""
    candidates = fold_candidates() + relabeled_swaps()
    exempt = [(g, s) for g, s in candidates if _order_is_known(g, s)]
    assert sum(not s.is_identity for _, s in exempt) >= 9
    for g, sigma in exempt:
        report = mr.validate_candidate(g, sigma)
        assert report.ok, (g.type_label, sigma.mapping)
        if sigma.is_identity and g.rank > 5:
            continue
        rs = mr.build_root_system(g)
        gens = [word_perm(rs, word) for word in report.pair.wh_generators]
        h_label = report.pair.h_colored.diagram.type_label
        order = math.prod(
            oracles.weyl_order(t[0], int(t[1:])) for t in h_label.split("+")
        )
        assert len(perm_closure(gens, len(rs.roots))) == order, h_label


def candidate(g, label=None, sigma=()):
    obj = diagram_to_json(g)
    if label is not None:
        obj["type"] = label
    return json.dumps({"g": obj, "sigma": [list(p) for p in sigma]})


AFFINE_A1 = json.dumps({
    "g": {"type": "X", "rank": 2, "cartan": [[2, -2], [-2, 2]], "vertices": ["1", "2"]},
    "sigma": [],
})


@pytest.mark.parametrize(
    "selector, message",
    [
        ('{"g": 1', "malformed candidate JSON: Expecting ',' delimiter: line 1 column 8 (char 7)"),
        ('{"g": {}}', "malformed candidate JSON: malformed diagram object: 'type'"),
        (
            AFFINE_A1,
            "candidate diagram g: closure exceeded 240 roots on component (0, 1); "
            "diagram is not of finite type",
        ),
        (
            candidate(mr.build_dynkin("A", 3), "E8"),
            "candidate diagram g: type 'E8' does not match its Cartan matrix",
        ),
        ("a3_c2", "malformed type 'a3', expected e.g. A3 or E6"),
        ("A3_", "malformed type '', expected e.g. A3 or E6"),
        ("A3\n_C2", "malformed type 'A3\\n', expected e.g. A3 or E6"),
        ("E9_a1", "malformed type 'a1', expected e.g. A3 or E6"),
        ("identity:H3", "malformed type 'H3', expected e.g. A3 or E6"),
        ("identity:E9", "invalid rank 9 for type E"),
        ("diag:B1", "invalid rank 1 for type B"),
        ("E6_A4", "no valid pair matches selector 'E6_A4'"),
        ("A3_B1", "no valid pair matches selector 'A3_B1'"),
        ("A3_A3", "no valid pair matches selector 'A3_A3'"),
        ("bogus", "unrecognized pair selector 'bogus'"),
        (" bogus ", "unrecognized pair selector ' bogus '"),
    ],
)
def test_resolve_pair_refuses_a_selector_with_its_message(selector, message):
    with pytest.raises(SelectorError) as info:
        resolve_pair(selector)
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)


def test_resolve_pair_refuses_a_key_matching_two_classes(monkeypatch):
    monkeypatch.setattr(folding, "_canonical_key", lambda cartan, mapping: mapping)
    with pytest.raises(SelectorError) as info:
        resolve_pair("D4_B3")
    assert str(info.value) == "selector 'D4_B3' matches several pairs"


def test_resolve_pair_lets_a_budget_error_through():
    with pytest.raises(BudgetExceededError, match="F4"):
        resolve_pair("E6_F4", budget=1000)


@pytest.mark.parametrize(
    "selector, g_label, h_label",
    [
        ("A3_C2", "A3", "C2"),
        ("A03_C02", "A3", "C2"),
        ("identity:B4", "B4", "B4"),
        ("diag:A2", "A2+A2", "A2"),
        (candidate(mr.build_dynkin("C", 2), "B2"), "B2", "C2"),
    ],
)
def test_resolve_pair_names_the_pair(selector, g_label, h_label):
    report = resolve_pair(selector)
    assert report.ok
    assert report.pair.g_diagram.type_label == g_label
    assert report.pair.h_colored.diagram.type_label == h_label


def test_resolve_pair_reports_a_rejected_explicit_candidate():
    report = resolve_pair(candidate(mr.build_dynkin("C", 3), sigma=[("1", "3")]))
    assert not report.ok
    assert report.pair is None
    assert (report.failed_check, report.tag) == ("b", "nonorthogonal_fiber")
