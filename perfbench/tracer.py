"""Layer spans for the benchmark's traced runs.

In a job process, ``Tracer.install`` replaces each layer function below by
a wrapper that records a span: name, parent span, phase, start and end
(``perf_counter_ns``) and a few counts taken from the returned value. The
modules of ``minrank`` bind each other's functions at import time
(``from .weyl import generate_weyl``), so a function is replaced under
every module attribute that holds it, not only where it is defined. Spans
stay in memory until the job process ends.

In the benchmark process, ``summarize`` turns the spans of a pass into
per-layer metrics and checks that the spans nest and account for the
traced time.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# Layer function -> (name of its time metric, extra metrics). Leaf layers
# report inclusive time ("s"); layers that call other layers report self
# time ("self_s"), their span minus the spans of their children.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "root_system.build_root_system": ("s", ("calls",)),
    "weyl.generate_weyl": ("s", ("calls", "elements", "hit_ratio", "rss_mb")),
    "weyl.perm_closure": ("s", ("calls", "elements")),
    "weyl.coset_decomposition": ("s", ("cosets",)),
    "weyl.length_poincare": ("s", ()),
    "folding.classify": ("self_s", ()),
    "folding.validate_candidate": ("self_s", ("calls", "accept_ratio")),
    "folding.embed_weyl": ("self_s", ("calls",)),
    "orbits.build_graph": (
        "self_s", ("calls", "hit_ratio", "vertices", "edges")
    ),
    "orbits.verify_pair": ("self_s", ()),
    "orbits.poincare_triple": ("self_s", ()),
    "cli.main": ("self_s", ()),
}

# Ratios reported for the warm phase too: they show whether the reuse
# path was taken.
WARM_RATIOS = ("weyl.generate_weyl.hit_ratio", "orbits.build_graph.hit_ratio")

UNITS = {
    "s": "s",
    "self_s": "s",
    "calls": "count",
    "elements": "count",
    "cosets": "count",
    "vertices": "count",
    "edges": "count",
    "hit_ratio": "ratio",
    "accept_ratio": "ratio",
    "rss_mb": "MB",
}

# Counts read from a layer's return value. For the cached layers they are
# taken on a miss only, so they count work done, not results handed out.
_COUNTERS = {
    "weyl.generate_weyl": lambda group: {"elements": group.order},
    "weyl.perm_closure": lambda perms: {"elements": len(perms)},
    "weyl.coset_decomposition": lambda out: {"cosets": len(out[0])},
    "folding.validate_candidate": lambda report: {"accepted": int(report.ok)},
    "orbits.build_graph": lambda graph: {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
    },
}
# A call is a hit when it returns an object already returned earlier in
# the process.
_CACHED = ("weyl.generate_weyl", "orbits.build_graph")
_RSS = ("weyl.generate_weyl",)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder for one job process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "cold"
        self.ticks_outside_spans_ns: dict[str, int] = {}
        self._stack: list[int] = []
        self._returned: dict[int, object] = {}

    def on_tick(self, ns: int) -> None:
        """Charge a calibration tick to the innermost open span, so that it
        can be taken out of the layer times."""
        if self._stack:
            span = self.spans[self._stack[-1]]
            span["tick_ns"] = span.get("tick_ns", 0) + ns
        else:
            outside = self.ticks_outside_spans_ns
            outside[self.phase] = outside.get(self.phase, 0) + ns

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items()
            if n == "minrank" or n.startswith("minrank.")
        ]
        for name in LAYERS:
            module_name, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules["minrank." + module_name], fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        cached = name in _CACHED
        rss = name in _RSS
        spans, stack, returned = self.spans, self._stack, self._returned

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": stack[-1] if stack else -1,
                "phase": self.phase,
            }
            stack.append(len(spans))
            spans.append(span)
            if rss:
                before = _maxrss_kb()
            span["t0"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter_ns()
                stack.pop()
            hit = False
            if cached:
                hit = id(result) in returned
                returned[id(result)] = result
                span["hit"] = int(hit)
            if count is not None and not hit:
                span.update(count(result))
            if rss:
                span["rss_kb"] = _maxrss_kb() - before
            return result

        return traced


# --- benchmark-process side ---------------------------------------------------


def _analyse(spans: list[dict], phase: str, problems: list[str]) -> dict:
    """Per-layer sums over one process's spans of one phase, with the
    calibration ticks taken out of every span that contains them.

    Appends to ``problems`` every child span that does not lie inside its
    parent and every negative self time.
    """
    child_ns = [0] * len(spans)
    subtree_tick_ns = [span.get("tick_ns", 0) for span in spans]
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        p = spans[i]["parent"]
        if p >= 0:
            child_ns[p] += spans[i]["t1"] - spans[i]["t0"]
            subtree_tick_ns[p] += subtree_tick_ns[i]
    totals: dict[str, dict] = {}
    top_ns = 0
    for i, span in enumerate(spans):
        if span["phase"] != phase:
            continue
        dur = span["t1"] - span["t0"]
        self_ns = dur - child_ns[i] - span.get("tick_ns", 0)
        if self_ns < 0:
            problems.append(f"span {i} {span['name']} has self time {self_ns} ns")
        p = span["parent"]
        if p < 0:
            top_ns += dur
        elif not (spans[p]["t0"] <= span["t0"] <= span["t1"] <= spans[p]["t1"]):
            problems.append(f"span {i} {span['name']} is not inside span {p}")
        t = totals.setdefault(span["name"], {"calls": 0, "ns": 0, "self_ns": 0})
        t["calls"] += 1
        t["ns"] += dur - subtree_tick_ns[i]
        t["self_ns"] += self_ns
        for key in ("elements", "cosets", "vertices", "edges", "hit",
                    "accepted", "rss_kb"):
            if key in span:
                t[key] = t.get(key, 0) + span[key]
    return {"layers": totals, "top_ns": top_ns}


def summarize(processes: list[dict], phase: str) -> tuple[dict, int, list[str]]:
    """Layer metrics of one phase over the job processes of a traced pass.

    ``processes`` holds one entry per job process: its spans, the phase's
    traced time ``wall_ns`` as the job process measured it, and
    ``outside_ns``, the phase's calibration ticks that fell outside every
    span. Returns the metrics, the traced time that neither a span nor a
    tick covers (summed over the processes), and the problems found.
    """
    problems: list[str] = []
    sums: dict[str, dict] = {}
    rss_kb = 0
    unattributed_ns = 0
    for proc in processes:
        got = _analyse(proc["spans"], phase, problems)
        gap = proc["wall_ns"] - got["top_ns"] - proc["outside_ns"]
        if gap < 0:
            problems.append(f"spans cover {-gap} ns more than the traced time")
        unattributed_ns += gap
        for name, t in got["layers"].items():
            acc = sums.setdefault(name, {})
            for key, value in t.items():
                acc[key] = acc.get(key, 0) + value
        rss_kb = max(rss_kb, got["layers"].get("weyl.generate_weyl", {}).get("rss_kb", 0))
    metrics: dict[str, float] = {}
    for name, (time_key, extras) in LAYERS.items():
        t = sums.get(name, {})
        calls = t.get("calls", 0)
        ns = t.get("ns" if time_key == "s" else "self_ns", 0)
        metrics[f"{name}.{time_key}"] = ns / 1e9
        for extra in extras:
            if extra == "calls":
                value = calls
            elif extra == "hit_ratio":
                value = t.get("hit", 0) / calls if calls else 0.0
            elif extra == "accept_ratio":
                value = t.get("accepted", 0) / calls if calls else 0.0
            elif extra == "rss_mb":
                value = rss_kb / 1024
            else:
                value = t.get(extra, 0)
            metrics[f"{name}.{extra}"] = value
    return metrics, unattributed_ns, problems


def metric_unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
