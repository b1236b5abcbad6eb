import dataclasses
import functools
import sys

import pytest
from hypothesis import HealthCheck, settings

import minrank as mr
from minrank import orbits, weyl

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def classified6() -> list[mr.MinimalRankPair]:
    return mr.classify(6)


@pytest.fixture(scope="session")
def find_pair(classified6):
    """Look a classified pair up by (ambient label, folded label)."""

    def find(g_label: str, h_label: str) -> mr.MinimalRankPair:
        for p in classified6:
            if (
                p.g_diagram.type_label == g_label
                and p.h_colored.diagram.type_label == h_label
            ):
                return p
        raise KeyError((g_label, h_label))

    return find


@pytest.fixture(scope="session")
def group_of():
    def get(letter: str, rank: int) -> mr.WeylGroup:
        return mr.generate_weyl(mr.build_root_system(mr.build_dynkin(letter, rank)))

    return get


@pytest.fixture
def forbid_group_listing(monkeypatch):
    """Make any call of generate_weyl, under any module name, fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("generate_weyl was called")

    original = mr.weyl.generate_weyl
    for name, module in list(sys.modules.items()):
        if name == "minrank" or name.startswith("minrank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)


@pytest.fixture
def patch_graph(monkeypatch):
    """Make ``build_graph`` hand out a copy of the real graph with some
    fields replaced; each keyword maps a field to a function of the real
    graph giving its new value."""

    def patch(**changes):
        real = orbits.build_graph

        def fake(pair, budget=orbits.DEFAULT_BUDGET):
            graph = real(pair, budget=budget)
            return dataclasses.replace(
                graph, **{field: f(graph) for field, f in changes.items()}
            )

        monkeypatch.setattr(orbits, "build_graph", fake)

    return patch


@pytest.fixture
def patch_pg(monkeypatch):
    """Make the orbit model read ``p_g`` as P_G of ``diagram``, through a
    ``diagram_data`` cache of its own for ``orbits``."""

    def patch(diagram, p_g):
        private = functools.lru_cache(maxsize=None)(weyl.DiagramData)
        monkeypatch.setattr(orbits, "diagram_data", private)
        private(diagram).poincare = p_g

    return patch
