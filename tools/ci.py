"""The continuous-integration checks, runnable offline.

Usage, from anywhere:

  python3 tools/ci.py STEP [STEP ...]
  python3 tools/ci.py all

Each step prints PASS or FAIL with its time and, on failure, what it
found; the last line is a summary, and the exit status is 1 when any step
failed (2 for an unknown step).  Standard library only.  The workflow in
.github/workflows/tests.yml calls one step at a time; the installed
``minrank`` console script is checked there, since that needs the package
installed.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "minrank"
GOLDEN = ROOT / "tests" / "golden" / "classify_rank6.json"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)


def tier1() -> list[str]:
    """The tier-1 test suite, its output passed through."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    code = subprocess.run(argv, cwd=ROOT, env=_env()).returncode
    return [f"pytest exited {code}"] if code else []


def no_assert() -> list[str]:
    """No check in src/minrank relies on assert."""
    pattern = re.compile(r"^\s*assert\b")
    return [
        f"{path.relative_to(ROOT)}:{number}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.match(line)
    ]


def integer_stdlib() -> list[str]:
    """src/minrank uses integer arithmetic and the standard library only.

    Fails on a float or complex literal, / or /=, a float() or complex()
    call, and an import that is neither relative nor of the standard
    library."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append((path, node, f"{type(node.value).__name__} literal"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append((path, node, "true division"))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "complex"):
                found.append((path, node, f"{node.func.id}() call"))
            found += [
                (path, node, f"import of {name}")
                for name in modules
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {what}" for path, node, what in found]


def _import_check(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; it prints the missing names."""
    proc = _run([sys.executable, "-c", code])
    if proc.returncode != 0:
        return [proc.stderr.strip() or f"exited {proc.returncode}"]
    missing = json.loads(proc.stdout)
    return [f"missing: {name}" for name in missing]


def tracer_layers() -> list[str]:
    """Every benchmark tracer layer names a live function."""
    return _import_check(
        "import importlib, json, sys; sys.path.insert(0, 'perfbench'); import tracer; "
        "print(json.dumps([n for n in tracer.LAYERS if not hasattr("
        "importlib.import_module('minrank.' + n.rsplit('.', 1)[0]), n.rsplit('.', 1)[1])]))"
    )


def exports() -> list[str]:
    """Every name in minrank.__all__ resolves."""
    return _import_check(
        "import json, minrank; "
        "print(json.dumps([n for n in minrank.__all__ if not hasattr(minrank, n)]))"
    )


def cli_public() -> list[str]:
    """cli.py imports no underscore-named name from the package."""
    path = PACKAGE / "cli.py"
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: imports {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "minrank")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def golden() -> list[str]:
    """``python -m minrank`` reproduces the golden classification."""
    proc = _run([sys.executable, "-m", "minrank", "classify", "--max-rank", "6"])
    problems = [] if proc.returncode == 0 else [f"exited {proc.returncode}: {proc.stderr.strip()}"]
    if proc.stdout != GOLDEN.read_text():
        problems.append(f"stdout differs from {GOLDEN.relative_to(ROOT)}")
    return problems


def _benchmark(workload: str):
    def check() -> list[str]:
        proc = _run([
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "1", "--seconds", "1",
        ])
        lines = proc.stdout.strip().splitlines()
        problems = [] if proc.returncode == 0 else [f"exited {proc.returncode}: {proc.stderr.strip()}"]
        try:
            correct = json.loads(lines[-1])["correct"] if lines else None
        except (ValueError, KeyError, TypeError):
            correct = None
        if correct is not True:
            problems.append(f"last line does not report correct: true: {lines[-1:]}")
        return problems

    check.__doc__ = f"Benchmark oracle checks on the {workload} workload."
    return check


def census() -> list[str]:
    """Every census invocation matches tests/golden/census.json."""
    proc = _run([sys.executable, "tools/census.py", "--jobs", "2"])
    lines = proc.stdout.strip().splitlines()
    return [] if proc.returncode == 0 else lines[1:] or [f"exited {proc.returncode}: {proc.stderr.strip()}"]


STEPS = {
    "tier1": tier1,
    "no-assert": no_assert,
    "integer-stdlib": integer_stdlib,
    "tracer-layers": tracer_layers,
    "exports": exports,
    "cli-public": cli_public,
    "golden": golden,
    "bench-classify": _benchmark("classify"),
    "bench-fold_graphs": _benchmark("fold_graphs"),
    "bench-survey": _benchmark("survey"),
    "census": census,
}


def main(argv: list[str]) -> int:
    names = list(STEPS) if argv == ["all"] else argv
    unknown = [name for name in names if name not in STEPS]
    if not names or unknown:
        print(f"usage: ci.py STEP [STEP ...] | all; steps: {', '.join(STEPS)}", file=sys.stderr)
        return 2
    failed = []
    for name in names:
        start = time.perf_counter()
        problems = STEPS[name]()
        status = "FAIL" if problems else "PASS"
        print(f"{status} {name} ({time.perf_counter() - start:.1f} s): {STEPS[name].__doc__.splitlines()[0]}")
        for problem in problems:
            print(f"  {problem}")
        if problems:
            failed.append(name)
    passed = len(names) - len(failed)
    print(f"ci: {passed} of {len(names)} steps passed" + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
