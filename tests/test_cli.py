import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import minrank as mr
from minrank import folding
from minrank.cli import main
from minrank.root_system import _isomorphisms, diagram_to_json

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def a3_candidate(pairs):
    return json.dumps({"g": diagram_to_json(mr.build_dynkin("A", 3)), "sigma": pairs})


def test_classify_requires_a_positive_max_rank(capsys):
    code, _, err = run_cli(capsys, "classify", "--max-rank", "0")
    assert code == 2
    assert "minrank:" in err


def test_classify_rank_1_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--max-rank", "1")
    assert code == 0
    records = json.loads(out)
    assert [r["g"]["type"] for r in records] == ["A1", "A1+A1"]
    assert [r["family"] for r in records] == ["identity", "diagonal"]
    assert records[1]["sigma"] == [["1", "2"]]
    assert records[1]["black"] == ["1"]


def test_classify_text_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "--max-rank", "1", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A1  sigma=id  ->  A1  black={}  family=identity"
    assert lines[1] == "A1+A1  sigma=(1 2)  ->  A1  black={1}  family=diagonal"


def test_classify_rejects_dot_format(capsys):
    code, _, err = run_cli(capsys, "classify", "--max-rank", "2", "--format", "dot")
    assert code == 2
    assert "dot" in err


def test_classify_is_deterministic(capsys):
    first = run_cli(capsys, "classify", "--max-rank", "2")
    second = run_cli(capsys, "classify", "--max-rank", "2")
    assert first == second
    assert first[0] == 0


def test_out_writes_the_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "cls.json"
    code, out, _ = run_cli(
        capsys, "classify", "--max-rank", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    records = json.loads(target.read_text())
    assert len(records) == 2


def test_out_to_a_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "poincare", "--pair", "A3_C2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"minrank: cannot write {target}: ")
    assert not target.exists()


def test_verify_unknown_selector(capsys):
    code, _, err = run_cli(capsys, "verify", "--pair", "bogus")
    assert code == 2
    assert "selector" in err


def test_verify_refuses_a_type_name_with_a_trailing_newline(capsys):
    code, out, err = run_cli(capsys, "verify", "--pair", "A3\n_C2")
    assert (code, out) == (2, "")
    assert err == "minrank: malformed type 'A3\\n', expected e.g. A3 or E6\n"


def test_verify_unmatched_family_key(capsys):
    code, _, err = run_cli(capsys, "verify", "--pair", "A4_C2")
    assert code == 2
    assert "no valid pair" in err


def test_verify_family_selector(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "A3_C2")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["orbits"] == 3
    assert obj["Q"] == [1, 1, 1]
    assert all(obj["checks"].values())


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "A3_C2", "--format", "text")
    assert code == 0
    assert out.startswith("pair A3 -> C2: 3 orbits, Q=[1, 1, 1]")
    assert ": FAIL" not in out


def test_verify_explicit_candidate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", a3_candidate([["1", "3"]]))
    assert code == 0
    assert json.loads(out)["orbits"] == 3


def test_verify_rejected_candidate_exits_1_with_a_report(capsys):
    bad = json.dumps(
        {"g": diagram_to_json(mr.build_dynkin("A", 2)), "sigma": [["1", "2"]]}
    )
    code, out, _ = run_cli(capsys, "verify", "--pair", bad)
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["validation"] == {"failed_check": "a", "tag": "nonorthogonal_pair"}


def _a3_json():
    return diagram_to_json(mr.build_dynkin("A", 3))


def _with_entry(i, j, value):
    g = _a3_json()
    g["cartan"][i][j] = value
    return {"g": g, "sigma": [["1", "3"]]}


def _with_vertices(vertices, sigma):
    g = _a3_json()
    g["vertices"] = vertices
    return {"g": g, "sigma": sigma}


COERCED_CANDIDATES = {
    "float_entry": (_with_entry(0, 0, 2.7), "expected int"),
    "float_zero": (_with_entry(0, 2, -0.4), "expected int"),
    "string_entry": (_with_entry(1, 1, "2"), "expected int"),
    "bool_entry": (_with_entry(0, 2, False), "expected int"),
    "float_rank": ({"g": {**_a3_json(), "rank": 3.0}, "sigma": []}, "expected int"),
    "number_vertex_ids": (_with_vertices([1, 2, 3], [["1", "3"]]), "expected str"),
    "number_sigma_ids": (_with_vertices(["1", "2", "3"], [[1, 3]]), "expected str"),
    "string_sigma_pair": (_with_vertices(["1", "2", "3"], ["13"]), "expected list"),
    "rank_0": (
        {"g": {"type": "A0", "rank": 0, "cartan": [], "vertices": []}, "sigma": []},
        "at least one vertex",
    ),
}


@pytest.mark.parametrize("case", sorted(COERCED_CANDIDATES))
def test_explicit_candidate_is_taken_as_given_not_coerced(capsys, case):
    candidate, message = COERCED_CANDIDATES[case]
    code, out, err = run_cli(capsys, "verify", "--pair", json.dumps(candidate))
    assert code == 2
    assert out == ""
    assert err.startswith("minrank: malformed candidate JSON:") and message in err


def test_verify_malformed_candidate_json(capsys):
    code, _, err = run_cli(capsys, "verify", "--pair", "{not json")
    assert code == 2
    assert "malformed" in err


def test_graph_rejected_candidate_is_a_usage_error(capsys):
    bad = json.dumps(
        {"g": diagram_to_json(mr.build_dynkin("A", 2)), "sigma": [["1", "2"]]}
    )
    code, _, err = run_cli(capsys, "graph", "--pair", bad)
    assert code == 2
    assert "fails validation" in err


def test_graph_identity_selector(capsys):
    code, out, _ = run_cli(capsys, "graph", "--pair", "identity:A2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 1
    assert obj["edges"] == []
    assert obj["dG"] == obj["dH"] == 3


def test_graph_diag_selector(capsys):
    code, out, _ = run_cli(capsys, "graph", "--pair", "diag:A2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 6
    assert obj["Q"] == [1, 2, 2, 1]


def test_graph_dot_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "--pair", "A3_C2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph orbits {")
    assert '"c0/d4" -> "c1/d5" [label="1"];' in out
    assert out.endswith("}\n")


def test_graph_dot_escapes_quotes_and_backslashes_in_labels(capsys):
    names = ['a"b', "x\\y", "c"]
    g = {**diagram_to_json(mr.build_dynkin("A", 3)), "vertices": names}
    selector = json.dumps({"g": g, "sigma": [['a"b', "c"]]})
    code, out, _ = run_cli(capsys, "graph", "--pair", selector, "--format", "dot")
    assert code == 0
    # every quoted DOT string closes before the end of its line
    quoted = r'([^"]|"([^"\\]|\\.)*")*'
    assert all(re.fullmatch(quoted, line) for line in out.splitlines())
    assert re.findall(r'label="((?:[^"\\]|\\.)*)"', out) == ['a\\"b', "c", "x\\\\y"]


def test_graph_export_of_a_relabeled_pair_uses_its_own_vertex_names(capsys):
    """A3_C2 and the same fold on vertices a, b, c share a Cartan matrix and
    an involution; the second export must not reuse the first one's graph."""
    g = {**diagram_to_json(mr.build_dynkin("A", 3)), "vertices": ["a", "b", "c"]}
    relabeled = json.dumps({"g": g, "sigma": [["a", "c"]]})
    run_cli(capsys, "graph", "--pair", "A3_C2", "--format", "dot")
    code, out, _ = run_cli(capsys, "graph", "--pair", relabeled, "--format", "dot")
    assert code == 0
    assert re.findall(r'label="(\w+)"', out) == ["a", "c", "b"]
    code, out, _ = run_cli(capsys, "graph", "--pair", relabeled)
    assert code == 0
    assert [label for _, _, label in json.loads(out)["edges"]] == ["a", "c", "b"]


def test_graph_text_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "--pair", "A3_C2", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "3 vertices, 3 edges, dims 4..6"


def test_poincare_identity(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--pair", "identity:A1")
    assert code == 0
    obj = json.loads(out)
    assert obj["P_G"] == obj["P_H"] == [1, 1]
    assert obj["Q"] == [1]
    assert obj["factorization_ok"] is True


def test_poincare_family(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--pair", "D4_B3")
    assert code == 0
    obj = json.loads(out)
    assert obj["Q"] == [1, 1, 1, 1]
    assert obj["pair"]["g"]["type"] == "D4"
    assert obj["pair"]["h"]["type"] == "B3"


def test_budget_flag_exhaustion_exits_3(capsys):
    code, _, err = run_cli(capsys, "verify", "--pair", "A3_C2", "--budget", "10")
    assert code == 3
    assert "minrank:" in err


A17 = diagram_to_json(mr.build_dynkin("A", 17))


@pytest.mark.parametrize(
    "selector, label",
    [
        ("identity:A17", "A17"),
        ("diag:B13", "B13+B13"),
        (json.dumps({"g": A17, "sigma": []}), "A17"),
    ],
    ids=["identity:A17", "diag:B13", "explicit A17"],
)
def test_types_with_more_roots_than_e8_reach_the_budget(capsys, selector, label):
    code, out, err = run_cli(capsys, "verify", "--pair", selector)
    assert code == 3
    assert out == ""
    assert f"Weyl group of {label} has order" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MINRANK_BUDGET", "10")
    code, _, _ = run_cli(capsys, "verify", "--pair", "A3_C2")
    assert code == 3
    monkeypatch.setenv("MINRANK_BUDGET", "cheap")
    code, _, err = run_cli(capsys, "verify", "--pair", "A3_C2")
    assert code == 2
    assert "MINRANK_BUDGET" in err


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("MINRANK_BUDGET", "10")
    code, out, _ = run_cli(
        capsys, "verify", "--pair", "A3_C2", "--budget", "100000"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_missing_subcommand_and_bad_flags(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["classify"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["graph", "--pair", "A3_C2", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_json_output_is_sorted_and_newline_terminated(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--pair", "identity:A1")
    assert code == 0
    assert out.endswith("\n")
    obj = json.loads(out)
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_verify_diag_a4_past_the_enumeration_rank_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "diag:A4")
    assert code == 0
    obj = json.loads(out)
    assert obj["orbits"] == 120
    assert len(obj["checks"]) == 11
    assert all(passed is True for passed in obj["checks"].values())
    assert obj["ok"] is True


def test_poincare_identity_e7_without_listing_the_group(capsys, forbid_group_listing):
    code, out, _ = run_cli(capsys, "poincare", "--pair", "identity:E7")
    assert code == 0
    obj = json.loads(out)
    assert tuple(obj["P_G"]) == oracles.poincare_product("E", 7)
    assert obj["P_H"] == obj["P_G"]
    assert obj["Q"] == [1]
    assert obj["factorization_ok"] is True


def test_poincare_identity_e8_is_refused_before_anything_is_built(
    capsys, forbid_group_listing
):
    code, out, err = run_cli(capsys, "poincare", "--pair", "identity:E8")
    assert code == 3
    assert out == ""
    assert "E8" in err and str(oracles.weyl_order("E", 8)) in err


def test_graph_over_budget_names_the_group_and_its_order(capsys):
    code, out, err = run_cli(capsys, "graph", "--pair", "E6_F4", "--budget", "1000")
    assert code == 3
    assert out == ""
    named = re.search(r"Weyl group of ([A-G])(\d+) has order (\d+)", err)
    assert named is not None, err
    letter, rank, order = named.group(1), int(named.group(2)), int(named.group(3))
    assert (letter, rank) in {("E", 6), ("F", 4)}
    assert order == oracles.weyl_order(letter, rank) > 1000


AFFINE_CANDIDATES = [
    {"type": "X", "rank": 2, "cartan": [[2, -2], [-2, 2]], "vertices": ["1", "2"]},
    {
        "type": "X",
        "rank": 3,
        "cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        "vertices": ["1", "2", "3"],
    },
]


@pytest.mark.parametrize("command", ["verify", "graph", "poincare"])
@pytest.mark.parametrize("g", AFFINE_CANDIDATES)
def test_candidate_not_of_finite_type_is_a_usage_error(capsys, command, g):
    selector = json.dumps({"g": g, "sigma": []})
    code, out, err = run_cli(capsys, command, "--pair", selector)
    assert code == 2
    assert out == ""
    assert "not of finite type" in err


def labelled(diagram, label, sigma):
    g = diagram_to_json(diagram)
    g["type"] = label
    return json.dumps({"g": g, "sigma": sigma})


C2_A1 = mr.disjoint_union(mr.build_dynkin("C", 2), mr.build_dynkin("A", 1))


@pytest.mark.parametrize(
    "diagram, label, sigma, code",
    [
        (mr.build_dynkin("A", 3), "E8", [["1", "3"]], 2),
        (mr.build_dynkin("A", 3), "E8", [["1", "2"]], 2),
        (mr.build_dynkin("A", 3), "A3+A1", [], 2),
        (C2_A1, "A1+C2", [], 2),
        (mr.build_dynkin("B", 2), "G2", [], 2),
        (mr.build_dynkin("A", 3), "A03", [], 2),
        (mr.build_dynkin("A", 3), "D3", [["1", "3"]], 0),
        (mr.build_dynkin("D", 3), "A3", [], 0),
        (mr.build_dynkin("C", 2), "B2", [], 0),
        (C2_A1, "B2+A1", [], 0),
    ],
    ids=[
        "A3_as_E8", "rejected_A3_as_E8", "A3_as_A3+A1", "C2+A1_as_A1+C2",
        "B2_as_G2", "A3_as_A03", "A3_as_D3", "D3_as_A3", "C2_as_B2", "C2+A1_as_B2+A1",
    ],
)
def test_type_field_must_name_each_component_in_order(
    capsys, diagram, label, sigma, code
):
    """Each "+"-part of "type" must build a diagram isomorphic to the
    component in its place; B2 and D3 stay accepted as C2 and A3."""
    got, out, err = run_cli(
        capsys, "verify", "--pair", labelled(diagram, label, sigma), "--format", "text"
    )
    assert got == code
    if code == 2:
        assert out == ""
        assert err == (
            f"minrank: candidate diagram g: type {label!r} does not match "
            "its Cartan matrix\n"
        )
    else:
        assert out.startswith(f"pair {label} -> ")


def names_block(part, cartan, comp):
    """Reference for the "type" check: the CLI's own matcher before it used
    the package's type identification.  True when ``part`` is a type like
    A3 whose standard diagram is isomorphic to the block on ``comp``."""
    m = re.match(r"^([A-G])([0-9]+)$", part)
    if m is None or part != f"{m.group(1)}{len(comp)}":
        return False
    try:
        std = mr.build_dynkin(m.group(1), len(comp)).cartan
    except ValueError:
        return False
    return next(_isomorphisms(std, cartan, comp), None) is not None


def test_type_field_check_agrees_with_the_block_matcher(monkeypatch):
    """Every standard block of rank <= 9, as given and reversed, against
    every label X<r> and X0<r> with X in A-H and r in 0-10."""
    # each block is identified once, not once per label
    monkeypatch.setattr(
        folding, "typed_components", functools.lru_cache(maxsize=None)(folding.typed_components)
    )
    blocks = []
    for letter in "ABCDEFG":
        for rank in range(1, 10):
            try:
                cartan = mr.build_dynkin(letter, rank).cartan
            except ValueError:
                continue
            blocks.append(cartan)
            blocks.append(tuple(row[::-1] for row in cartan[::-1]))
    labels = [f"{x}{z}{r}" for x in "ABCDEFGH" for z in ("", "0") for r in range(11)]
    compared = 0
    for cartan in blocks:
        n = len(cartan)
        for label in labels:
            diagram = mr.DynkinDiagram(label, cartan, tuple(map(str, range(1, n + 1))))
            try:
                folding._check_type_field(diagram)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == names_block(label, cartan, tuple(range(n))), (label, cartan)
            compared += 1
    assert compared == 13024


@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_flag_below_one_is_a_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "classify", "--max-rank", "2", "--budget", value)
    assert code == 2
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_env_var_below_one_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("MINRANK_BUDGET", value)
    code, out, err = run_cli(capsys, "classify", "--max-rank", "2")
    assert code == 2
    assert out == ""
    assert "MINRANK_BUDGET" in err


@pytest.mark.parametrize("command", ["verify", "graph", "poincare"])
def test_selector_does_not_spend_the_budget_on_folds_of_another_rank(
    capsys, command
):
    # D6 has no involution with a single orbit; its B5 fold (|W| = 3840)
    # must not be validated on the way to saying so
    code, out, err = run_cli(capsys, command, "--pair", "D6_A1", "--budget", "1000")
    assert code == 2
    assert out == ""
    assert "no valid pair matches" in err


@pytest.mark.parametrize("command", ["verify", "graph", "poincare"])
def test_selector_does_not_spend_the_budget_on_folds_of_another_type(capsys, command):
    # E6's four-orbit folds land on F4 (|W| = 1152) or fail validation;
    # none can land on A4, so none is validated
    code, out, err = run_cli(capsys, command, "--pair", "E6_A4", "--budget", "1000")
    assert code == 2
    assert out == ""
    assert err == "minrank: no valid pair matches selector 'E6_A4'\n"


def test_selector_spends_the_budget_on_the_fold_it_names(capsys):
    code, out, err = run_cli(capsys, "graph", "--pair", "E6_F4", "--budget", "1000")
    assert code == 3
    assert out == ""
    assert "Weyl group of F4 has order 1152" in err


@pytest.mark.parametrize(
    "selector", ["A3_B1", "A5_D2", "E7_F5", "D5_G3", "E6_E9", "A3_A0"]
)
def test_selector_whose_folded_label_names_no_diagram_matches_nothing(capsys, selector):
    # build_dynkin refuses the right label, so no fold can land on it
    code, out, err = run_cli(capsys, "verify", "--pair", selector)
    assert code == 2
    assert out == ""
    assert err == f"minrank: no valid pair matches selector {selector!r}\n"


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(folding, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(folding, name, counted)
    return calls


@pytest.mark.parametrize(
    "command, selector, validations, keys",
    [
        ("verify", "D7_B6", 1, 0),
        ("graph", "E6_F4", 1, 0),
        ("poincare", "A7_C4", 1, 0),
        ("verify", "D4_B3", 3, 3),
    ],
)
def test_selector_validates_only_involutions_with_the_folded_rank(
    capsys, monkeypatch, command, selector, validations, keys
):
    validated = _count_calls(monkeypatch, "validate_candidate")
    keyed = _count_calls(monkeypatch, "_canonical_key")
    code, _, _ = run_cli(capsys, command, "--pair", selector)
    assert code == 0
    assert len(validated) == validations
    assert len(keyed) == keys


def test_verify_d4_b3_resolves_its_three_conjugate_folds_to_the_last(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "D4_B3")
    assert code == 0
    obj = json.loads(out)
    assert obj["pair"]["sigma"] == [["3", "4"]]
    assert obj["pair"]["black"] == ["3"]
    assert obj["pair"]["family"] == "Dn_Bn-1"
    assert obj["orbits"] == 4
    assert all(obj["checks"].values())


def test_selector_matching_two_classes_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(folding, "_canonical_key", lambda cartan, mapping: mapping)
    code, out, err = run_cli(capsys, "verify", "--pair", "D4_B3")
    assert code == 2
    assert out == ""
    assert "matches several pairs" in err


def test_verify_reports_a_graph_without_a_unique_bottom(capsys, patch_graph):
    # without the edges into vertex 1 both 0 and 1 are minimal
    patch_graph(edges=lambda graph: tuple(e for e in graph.edges if e[1] != 1))
    code, out, _ = run_cli(capsys, "verify", "--pair", "A3_C2")
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["checks"]["unique_minimum"] is False
    assert obj["checks"]["order_reflexive"] is False
    assert "witnesses" not in obj
    code, out, _ = run_cli(capsys, "verify", "--pair", "A3_C2", "--format", "text")
    assert code == 1
    assert "  order_transitive: FAIL\n" in out


def test_verify_text_names_the_witness_of_a_failing_order_check(capsys, patch_graph):
    def corrupt(graph):
        action = [list(row) for row in graph.action]
        action[0][2] = 0
        return tuple(tuple(row) for row in action)

    patch_graph(action=corrupt)
    code, out, _ = run_cli(capsys, "verify", "--pair", "A3_C2", "--format", "text")
    assert code == 1
    assert "  order_path_independent: FAIL (witness 0, 1, 3)\n" in out
    assert "  order_transitive: pass\n" in out


def test_verify_names_the_witness_of_a_failing_factorization(capsys, patch_pg):
    patch_pg(mr.build_dynkin("A", 3), (1, 3, 4, 7, 5, 3, 1))
    code, out, _ = run_cli(capsys, "verify", "--pair", "A3_C2")
    assert code == 1
    obj = json.loads(out)
    assert obj["checks"]["q_times_ph_equals_pg"] is False
    assert obj["witnesses"] == {"q_times_ph_equals_pg": [2, 5, 4]}
    code, out, _ = run_cli(capsys, "verify", "--pair", "A3_C2", "--format", "text")
    assert code == 1
    assert "  q_times_ph_equals_pg: FAIL (witness 2, 5, 4)\n" in out
    assert "  q_palindromic: pass\n" in out


def run_module(*argv):
    """``python -m minrank ARGV`` in a fresh interpreter on this package."""
    src = str(Path(mr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "minrank", *argv], capture_output=True, text=True, env=env
    )


def test_python_m_minrank_reports_a_usage_error():
    proc = run_module("verify", "--pair", "bogus")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "minrank: unrecognized pair selector 'bogus'\n"


def test_python_m_minrank_reproduces_the_golden_classification():
    proc = run_module("classify", "--max-rank", "6")
    assert proc.returncode == 0
    assert proc.stderr == ""
    golden = Path(__file__).resolve().parent / "golden" / "classify_rank6.json"
    assert proc.stdout == golden.read_text()
