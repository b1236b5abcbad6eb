"""End-to-end and per-layer benchmark of minrank.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload {classify,fold_graphs,survey}
                           [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One client, one job at a time, no threads: a closed loop. Every job runs
in a fresh interpreter (runner.py), which imports ``minrank`` from
``src/`` of this checkout. A run repeats passes over the workload's jobs
while another pass still fits in ``--seconds`` (at least one pass), and
reports medians over passes. ``--seed`` permutes the job order of each
pass. With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each pass is run untraced and then
traced, and the JSON holds the per-layer metrics of the traced pass.
``--workload all`` runs every workload both ways and prints every metric.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import oracle
import tracer
from runner import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "minrank"
GOLDEN = ROOT / "tests" / "golden" / "classify_rank6.json"
RUNNER = HERE / "runner.py"

# A run must exit within 180 s: no pass starts unless it is expected to end
# before this limit, and a job still running at the limit is killed.
RUN_LIMIT_S = 170
SETUP_PROBES = 5
# survey's warm pass is short (under 2 s), so an untraced survey process
# repeats it and reports the median; a traced one runs it once.
SURVEY_WARM_PASSES = 5
# Smallest tolerance of the traced run's self-check, as a share of the
# traced time of a phase (see layer_metrics).
TRACE_CHECK_FLOOR = 0.01

CLI_JOBS = {
    "classify": (("classify", "--max-rank", "6"),),
    "fold_graphs": (
        ("verify", "--pair", "D7_B6"),
        ("graph", "--pair", "E6_F4", "--format", "dot"),
        ("poincare", "--pair", "A7_C4"),
    ),
}
WORKLOADS = ("classify", "fold_graphs", "survey")

END_TO_END = {
    "wall_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class Reference:
    """Outputs the program must reproduce, none of them produced by it."""

    def __init__(self) -> None:
        self.golden = GOLDEN.read_bytes()
        self.survey_pairs = sorted(
            (r["g"]["type"], r["h"]["type"], r["family"])
            for r in json.loads(self.golden)
            if r["g"]["rank"] <= 6
        )


# --- output checks -------------------------------------------------------------


def _check_pair_json(obj: dict, g: str, h: str) -> str | None:
    got = (obj["pair"]["g"]["type"], obj["pair"]["h"]["type"])
    if got != (g, h):
        return f"pair is {got[0]}_{got[1]}, expected {g}_{h}"
    return None


def check_report(obj: dict, g: str, h: str) -> str | None:
    """A ``verify`` report: every check passes and the numbers match the
    degree products."""
    problem = _check_pair_json(obj, g, h)
    if problem:
        return problem
    failing = [name for name, ok in obj["checks"].items() if ok is not True]
    if obj["ok"] is not True or failing:
        return f"{g}_{h}: ok={obj['ok']}, failing checks {failing}"
    if obj["orbits"] != oracle.orbit_count(g, h):
        return f"{g}_{h}: {obj['orbits']} orbits, expected {oracle.orbit_count(g, h)}"
    if tuple(obj["P_G"]) != oracle.poincare(g):
        return f"{g}_{h}: P_G differs from the degree product"
    if tuple(obj["P_H"]) != oracle.poincare(h):
        return f"{g}_{h}: P_H differs from the degree product"
    return None


_DOT_VERTEX = re.compile(r'^  "(c\d+/d\d+)";$')
_DOT_EDGE = re.compile(r'^  "(c\d+/d\d+)" -> "(c\d+/d\d+)" \[label="[^"]+"\];$')


def check_dot(text: str, g: str, h: str) -> str | None:
    lines = text.splitlines()
    vertices = {m.group(1) for m in map(_DOT_VERTEX.match, lines) if m}
    edges = [m.groups() for m in map(_DOT_EDGE.match, lines) if m]
    expected = oracle.orbit_count(g, h)
    if len(vertices) != expected:
        return f"{g}_{h}: DOT has {len(vertices)} vertices, expected {expected}"
    if not edges or any(a not in vertices or b not in vertices for a, b in edges):
        return f"{g}_{h}: DOT edges do not join declared vertices"
    if len(lines) != 3 + len(vertices) + len(edges):
        return f"{g}_{h}: DOT has unparsed lines"
    return None


def check_poincare(obj: dict, g: str, h: str) -> str | None:
    problem = _check_pair_json(obj, g, h)
    if problem:
        return problem
    p_g, p_h, q = tuple(obj["P_G"]), tuple(obj["P_H"]), tuple(obj["Q"])
    if p_g != oracle.poincare(g) or p_h != oracle.poincare(h):
        return f"{g}_{h}: P_G or P_H differs from the degree product"
    if oracle.poly_mul(q, p_h) != p_g or obj["factorization_ok"] is not True:
        return f"{g}_{h}: Q * P_H != P_G"
    if sum(q) != oracle.orbit_count(g, h):
        return f"{g}_{h}: Q counts {sum(q)} orbits, expected {oracle.orbit_count(g, h)}"
    return None


def checked(check, *args) -> str | None:
    """Run an output check; malformed output is a failed check, not a crash."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def check_cli_output(argv: tuple[str, ...], text: str, ref: Reference) -> str | None:
    if argv[0] == "classify":
        if text.encode() != ref.golden:
            return "output differs from tests/golden/classify_rank6.json"
        return None
    g, h = argv[argv.index("--pair") + 1].split("_")
    if argv[0] == "graph":
        return check_dot(text, g, h)
    obj = json.loads(text)
    if argv[0] == "verify":
        return check_report(obj, g, h)
    return check_poincare(obj, g, h)


# --- passes --------------------------------------------------------------------


@dataclass
class Pass:
    """One pass over a workload's jobs.

    ``*_ns`` are times as measured; ``wall_s`` and ``warm_s`` are the same
    times at the reference speed (calibrate.py).
    """

    order: list[str] = field(default_factory=list)
    wall_ns: int = 0
    warm_ns: int = 0
    wall_s: float = 0.0
    warm_s: float = 0.0
    rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    def add_timing(self, record: dict) -> None:
        """Add a job's times; a phase run several times counts its median."""
        phases = [("cold", 0)] + [("warm", k) for k in range(len(record["phase_ns"]["warm"]))]
        busy: dict[str, list[tuple[int, float]]] = {"cold": [], "warm": []}
        for i, (phase, k) in enumerate(phases):
            ticks = record["ticks"][phase][k]
            busy_ns = record["phase_ns"][phase][k] - sum(ns for _, ns in ticks)
            speed = calibrate.speed(record["cal"][i:i + 2] + ticks)
            busy[phase].append((busy_ns, busy_ns / 1e9 * speed))
        self.wall_ns += busy["cold"][0][0]
        self.wall_s += busy["cold"][0][1]
        self.warm_ns += statistics.median(ns for ns, _ in busy["warm"])
        self.warm_s += statistics.median(s for _, s in busy["warm"])
        self.rss_kb = max(self.rss_kb, record["cold_maxrss_kb"])
        self.records.append(record)


def spawn(spec: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one job process; return its record, or None and the reason."""
    env = {
        k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MINRANK_BUDGET")
    }
    before = calibrate.sample()
    spawned_ns = time.monotonic_ns()
    with subprocess.Popen(
        [sys.executable, str(RUNNER), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "killed at the run's time limit"
    last = err.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith(MARKER):
        return None, f"exit {proc.returncode} without a record: {err[-400:]!r}"
    record = json.loads(last[len(MARKER):])
    if "error" in record:
        return None, record["error"].rstrip().rsplit("\n", 1)[-1]
    record["setup_ns"] = record["imported_ns"] - spawned_ns
    speed = calibrate.speed([before, record["cal"][0]])
    record["setup_s"] = record["setup_ns"] / 1e9 * speed
    return record, ""


def cli_pass(workload: str, seed: int, trace: bool, deadline: float,
             ref: Reference) -> Pass:
    jobs = list(CLI_JOBS[workload])
    random.Random(seed).shuffle(jobs)
    p = Pass(order=[" ".join(argv) for argv in jobs])
    for argv in jobs:
        p.attempted += 2
        record, why = spawn({"mode": "cli", "argv": list(argv), "trace": trace}, deadline)
        if record is None:
            p.fail(2, f"{' '.join(argv)}: {why}")
            continue
        for call in record["calls"]:
            if call["error"] is not None:
                problem = call["error"].rstrip().rsplit("\n", 1)[-1]
            elif call["code"] != 0:
                problem = f"exit code {call['code']}"
            else:
                problem = checked(check_cli_output, argv, call["stdout"], ref)
            if problem:
                p.fail(1, f"{call['phase']} {' '.join(argv)}: {problem}")
        p.add_timing(record)
    return p


def _check_survey_pairs(reports: list[dict], ref: Reference) -> str | None:
    got = sorted(
        (r["pair"]["g"]["type"], r["pair"]["h"]["type"], r["pair"]["family"])
        for r in reports
    )
    if got != ref.survey_pairs:
        return "verified other pairs than the golden file lists"
    return None


def survey_pass(seed: int, trace: bool, deadline: float, ref: Reference) -> Pass:
    n = len(ref.survey_pairs)
    warm_passes = 1 if trace else SURVEY_WARM_PASSES
    p = Pass(order=[f"survey pair order seed {seed}"], attempted=1 + n * (1 + warm_passes))
    spec = {"mode": "survey", "seed": seed, "warm_passes": warm_passes, "trace": trace}
    record, why = spawn(spec, deadline)
    if record is None:
        p.fail(p.attempted, f"survey: {why}")
        return p
    if record["classify_json"].encode() != ref.golden:
        p.fail(1, "classify(6) differs from tests/golden/classify_rank6.json")
    for k, reports in enumerate(record["passes"]):
        phase = "cold" if k == 0 else "warm"
        problem = checked(_check_survey_pairs, reports, ref)
        if problem:
            p.fail(n, f"{phase} survey: {problem}")
            continue
        for r in reports:
            problem = checked(check_report, r, r["pair"]["g"]["type"], r["pair"]["h"]["type"])
            if problem:
                p.fail(1, f"{phase} verify_pair {problem}")
    p.add_timing(record)
    return p


def one_pass(workload: str, seed: int, trace: bool, deadline: float,
             ref: Reference) -> Pass:
    if workload == "survey":
        return survey_pass(seed, trace, deadline, ref)
    return cli_pass(workload, seed, trace, deadline, ref)


# --- metrics -------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def layer_metrics(untraced: Pass, traced: Pass) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, with its self-check problems."""
    out: dict[str, float] = {}
    problems: list[str] = []
    phases = (
        ("cold", "", traced.wall_s - untraced.wall_s),
        ("warm", "warm.", traced.warm_s - untraced.warm_s),
    )
    for phase, prefix, overhead_s in phases:
        procs = [
            {
                "spans": r["spans"],
                "wall_ns": sum(r["phase_ns"][phase]),
                "outside_ns": r["ticks_outside_spans_ns"].get(phase, 0),
            }
            for r in traced.records
        ]
        traced_ns = traced.wall_ns if phase == "cold" else traced.warm_ns
        untraced_ns = untraced.wall_ns if phase == "cold" else untraced.warm_ns
        metrics, unattributed_ns, found = tracer.summarize(procs, phase)
        # The overhead is the difference of two passes, so it is known only
        # to within their noise, which is several percent of a phase.
        tolerance_s = max(abs(overhead_s), TRACE_CHECK_FLOOR * traced_ns / 1e9)
        if unattributed_ns / 1e9 > tolerance_s:
            found.append(
                f"{phase}: layer self times miss {unattributed_ns} ns of the traced "
                f"time, more than the tracing overhead {overhead_s:.6f} s or "
                f"{TRACE_CHECK_FLOOR:.0%} of the traced time"
            )
        problems += found
        for name, value in metrics.items():
            if phase == "cold" or tracer.metric_unit(name) == "s" or name in tracer.WARM_RATIOS:
                out[prefix + name] = value
        out[f"trace.{phase}.traced_s"] = traced_ns / 1e9
        out[f"trace.{phase}.untraced_s"] = untraced_ns / 1e9
        out[f"trace.{phase}.overhead_s"] = overhead_s
        out[f"trace.{phase}.unattributed_s"] = unattributed_ns / 1e9
    out["trace.spans"] = sum(len(r["spans"]) for r in traced.records)
    return out, problems


def per_layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "count" if name == "trace.spans" else "s"
    return tracer.metric_unit(name)


def machine_facts() -> str:
    mem_mb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20
    src_lines = sum(f.read_text().count("\n") for f in sorted(SRC.glob("*.py")))
    return (
        f"machine: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} mem_total_mb={mem_mb}; "
        f"src/minrank lines={src_lines} (informational, not gated)"
    )


def measure(workload: str, seed: int, seconds: int, trace: bool,
            ref: Reference) -> dict:
    """One run: passes until ``seconds`` are used, then the metrics."""
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probes: list[dict] = []
    probe_failures = 0
    if not trace:
        for _ in range(SETUP_PROBES):
            record, why = spawn({"mode": "probe"}, deadline)
            if record is None:
                probe_failures += 1
                print(f"  FAIL setup probe: {why}")
            else:
                probes.append(record)
    runs: list[tuple[Pass, Pass | None]] = []
    while True:
        began = time.monotonic()
        pass_seed = rng.randrange(2**32)
        untraced = one_pass(workload, pass_seed, False, deadline, ref)
        traced = one_pass(workload, pass_seed, True, deadline, ref) if trace else None
        runs.append((untraced, traced))
        took = time.monotonic() - began
        elapsed = time.monotonic() - start
        for p in filter(None, (untraced, traced)):
            kind = "traced" if p is traced else "untraced"
            print(
                f"  pass {len(runs)} {kind}: wall_s={p.wall_s:.4f} "
                f"(measured {p.wall_ns / 1e9:.4f}) warm_s={p.warm_s:.4f} "
                f"(measured {p.warm_ns / 1e9:.4f}) peak_rss_mb={p.rss_kb / 1024:.1f} "
                f"order: {'; '.join(p.order)}"
            )
            for message in p.failures:
                print(f"    FAIL {message}")
        if elapsed + took > seconds or elapsed + 1.5 * took > RUN_LIMIT_S:
            break

    passes = [p for pair in runs for p in pair if p is not None]
    attempted = SETUP_PROBES * (not trace) + sum(p.attempted for p in passes)
    failed = probe_failures + sum(p.failed for p in passes)
    problems: list[str] = []
    if trace:
        per_pass = []
        for untraced, traced in runs:
            values, found = layer_metrics(untraced, traced)
            per_pass.append(values)
            problems += found
        metrics = {
            name: {"value": _median([v[name] for v in per_pass]),
                   "unit": per_layer_unit(name)}
            for name in per_pass[0]
        }
        _print_layer_shares(metrics)
    else:
        setup = probes + [r for p in passes for r in p.records]
        print(f"  measured: wall_s={_median([p.wall_ns for p in passes]) / 1e9:.6g} "
              f"warm_s={_median([p.warm_ns for p in passes]) / 1e9:.6g} "
              f"setup_s={_median([r['setup_ns'] for r in setup]) / 1e9:.6g}, of which "
              f"imports {_median([r['imported_ns'] - r['ready_ns'] for r in setup]) / 1e9:.6g}")
        values = {
            "wall_s": _median([p.wall_s for p in passes]),
            "warm_s": _median([p.warm_s for p in passes]),
            "setup_s": _median([r["setup_s"] for r in setup]),
            "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for message in problems:
        print(f"  TRACE CHECK FAILED {message}")
    print(f"  passes={len(runs)} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4f} trace_check="
          f"{'ok' if not problems else 'FAILED'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _print_layer_shares(metrics: dict) -> None:
    """Each layer's time as a share of the traced time of its phase."""
    for phase, prefix in (("cold", ""), ("warm", "warm.")):
        total = metrics[f"trace.{phase}.traced_s"]["value"]
        shares = sorted(
            (
                (m["value"] / total if total else 0.0, name[len(prefix):])
                for name, m in metrics.items()
                if m["unit"] == "s" and not name.startswith("trace.")
                and name.startswith("warm.") == (phase == "warm")
            ),
            reverse=True,
        )
        listed = ", ".join(f"{name} {share:.1%}" for share, name in shares if share >= 0.01)
        print(f"  {phase} shares of traced {total:.3f} s: {listed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"perfbench: needs {SRC} and {GOLDEN} in this checkout",
              file=sys.stderr)
        return 2
    ref = Reference()
    print(machine_facts())
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), ref)
        print(json.dumps(result))
        return 0
    results = {
        f"{w}.trace{t}": measure(w, args.seed, args.seconds, bool(t), ref)
        for w in WORKLOADS
        for t in (0, 1)
    }
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
