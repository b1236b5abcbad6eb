"""The outputs census: a fixed list of CLI invocations and what each printed.

Usage, from anywhere:

  python3 tools/census.py                 compare this tree with the manifest
  python3 tools/census.py --write         rewrite the manifest from this tree
  python3 tools/census.py --against PATH  compare this tree with the checkout at PATH

  --jobs N   run N invocations at a time (default 2)

Each invocation runs in a fresh interpreter as
``python -c "from minrank.cli import run; run()" ARGS`` with PYTHONPATH set
to the tree's ``src`` and MINRANK_BUDGET unset, so any checkout of the
package can be run, one with no ``python -m minrank`` too.  For each it
records the exit code and the sha256 of stdout and of stderr.  The manifest,
``tests/golden/census.json``, holds those records by case name; a change
that means to change an output rewrites it, and its diff lists the
invocations whose output changed.  Every invocation that differs is
printed; the exit status is 1 when any differs.  Standard library only.

The list: the 35 pairs of ambient rank <= 6 of the golden classification,
each as a selector and as an explicit candidate; larger and over-budget
pairs; "type"-label cases; rejected, malformed and extra-key candidates;
malformed and unmatched selectors.  Each runs under ``verify`` (json,
text), ``graph`` (json, dot, text) and ``poincare`` (json, text, dot), at
the default budget and at ``--budget 1000``.  Then ``classify --max-rank``
0, 1, 6 and 8 in every format at both budgets, and argument errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "census.json"
CLASSIFICATION = ROOT / "tests" / "golden" / "classify_rank6.json"
RUN = "from minrank.cli import run; run()"
FORMATS = {"verify": ("json", "text"), "graph": ("json", "dot", "text"), "poincare": ("json", "text", "dot")}
BUDGETS = ((), ("--budget", "1000"))


def _chain(letter: str, n: int) -> list[list[int]]:
    """Cartan matrix of A_n, B_n or C_n, Bourbaki numbering."""
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    if letter == "B":
        a[n - 2][n - 1] = -2
    if letter == "C":
        a[n - 1][n - 2] = -2
    return a


def _candidate(label: str, cartan, sigma, **extra) -> str:
    n = len(cartan)
    g = {"type": label, "rank": n, "cartan": cartan, "vertices": [str(i + 1) for i in range(n)]}
    return json.dumps({"g": g, "sigma": sigma, **extra})


def selectors() -> list[tuple[str, str]]:
    """(case name, --pair value) for every selector of the census, each once."""
    out = []
    for rec in json.loads(CLASSIFICATION.read_text()):
        g, h = rec["g"], rec["h"]
        if g["rank"] > 6:
            continue
        if rec["family"] == "identity":
            name = f"identity:{g['type']}"
        elif rec["family"] == "diagonal":
            name = f"diag:{g['type'].split('+')[0]}"
        else:
            name = f"{g['type']}_{h['type']}"
        out.append((name, name))
        out.append((f"json:{name}", json.dumps({"g": g, "sigma": rec["sigma"]})))
    for name in ("D7_B6", "E6_F4", "A7_C4", "A9_C5", "D8_B7", "D4_B3", "identity:E8", "diag:D5"):
        out.append((name, name))
    a3, c2 = _chain("A", 3), _chain("C", 2)
    for label in ("A3", "D3", "B3", "E8", "A03", "A3+A1", "", "a3"):
        out.append((f"json:A3 as {label!r}", _candidate(label, a3, [["1", "3"]])))
    for label in ("C2", "B2", "G2", "A2"):
        out.append((f"json:C2 as {label!r}", _candidate(label, c2, [])))
    out += [
        ("json:rejected A2 (1 2)", _candidate("A2", _chain("A", 2), [["1", "2"]])),
        ("json:rejected C3 (1 3)", _candidate("C3", _chain("C", 3), [["1", "3"]])),
        ("json:rejected C4 (1 3)(2 4)", _candidate("C4", _chain("C", 4), [["1", "3"], ["2", "4"]])),
        ("json:rejected A4 (1 3)", _candidate("A4", _chain("A", 4), [["1", "3"]])),
        ("json:rejected B4 (1 3)", _candidate("B4", _chain("B", 4), [["1", "3"]])),
        ("json:affine A1", _candidate("X", [[2, -2], [-2, 2]], [])),
        ("json:truncated", '{"g": 1'),
        ("json:empty object", "{}"),
        ("json:empty g", '{"g": {}}'),
        ("json:sigma of one vertex", _candidate("A3", a3, [["1"]])),
        ("json:sigma of an unknown vertex", _candidate("A3", a3, [["1", "9"]])),
        ("json:overlapping sigma", _candidate("A3", a3, [["1", "3"], ["3", "1"]])),
        ("json:sigma a string", _candidate("A3", a3, "13")),
        ("json:float entry", _candidate("A3", [[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]], [])),
        ("json:extra key", _candidate("A3", a3, [["1", "3"]], extra=1)),
        ("json:extra key in g", _candidate("A3", a3, [["1", "3"]]).replace('"rank"', '"name": "x", "rank"')),
    ]
    for name in (
        "A03_C02", "a3_c2", "H3_A1", "E6_A4", "D6_A1", "identity:E9",
        "identity:A17", "diag:B13", "bogus", "A3_", "_C2",
    ):
        out.append((name, name))
    return list(dict(out).items())  # D4_B3 and E6_F4 are named twice


def invocations() -> list[tuple[str, list[str], dict]]:
    """(case name, argv, environment overrides), in a fixed order."""
    out = []
    for name, pair in selectors():
        for command, formats in FORMATS.items():
            for fmt in formats:
                for budget in BUDGETS:
                    argv = [command, "--format", fmt, *budget]
                    out.append((" ".join(argv + ["--pair", name]), argv + ["--pair", pair], {}))
    for rank in ("0", "1", "6", "8"):
        for fmt in ("json", "text", "dot"):
            for budget in BUDGETS:
                argv = ["classify", "--max-rank", rank, "--format", fmt, *budget]
                out.append((" ".join(argv), argv, {}))
    for argv in (
        [], ["frobnicate"], ["verify"], ["classify"], ["classify", "--max-rank", "x"],
        ["classify", "--max-rank", "2", "--budget", "0"], ["verify", "--pair", "A3_C2", "--format", "svg"],
        ["verify", "--pair", "A3_C2", "--out", "/nonexistent-census-dir/out.json"],
    ):
        out.append((" ".join(argv) or "(no arguments)", argv, {}))
    for value in ("cheap", "0", "1000"):
        argv = ["graph", "--pair", "E6_F4"]
        out.append((f"MINRANK_BUDGET={value} " + " ".join(argv), argv, {"MINRANK_BUDGET": value}))
    return out


def _run(tree: Path, argv: list[str], env: dict) -> list:
    full = {k: v for k, v in os.environ.items() if k != "MINRANK_BUDGET"}
    full.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=tree, env=full, capture_output=True)
    return [proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest()]


def census(tree: Path, jobs: int) -> dict[str, list]:
    """Case name -> [exit code, sha256 of stdout, sha256 of stderr]."""
    cases = invocations()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(lambda case: _run(tree, case[1], case[2]), cases)
        return {name: result for (name, _, _), result in zip(cases, results)}


def differences(ours: dict, theirs: dict) -> list[str]:
    fields = ("exit code", "stdout", "stderr")
    out = []
    for name in sorted(ours.keys() | theirs.keys()):
        a, b = ours.get(name), theirs.get(name)
        if a is None or b is None:
            out.append(f"{name}: only in {'the other' if a is None else 'this'} census")
        elif a != b:
            changed = ", ".join(f for f, x, y in zip(fields, a, b) if x != y)
            out.append(f"{name}: {changed} changed (exit {b[0]} -> {a[0]})")
    return out


def _write(records: dict) -> None:
    lines = [f"  {json.dumps(name)}: {json.dumps(records[name])}" for name in sorted(records)]
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="census.py", description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, metavar="N")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="PATH", type=Path, help="another checkout")
    mode.add_argument("--write", action="store_true", help="rewrite the manifest")
    ns = parser.parse_args(argv)
    if ns.jobs < 1:
        parser.error("--jobs must be at least 1")
    ours = census(ROOT, ns.jobs)
    codes = [record[0] for record in ours.values()]
    tally = ", ".join(f"{code}: {codes.count(code)}" for code in sorted(set(codes)))
    print(f"census: {len(ours)} invocations; exit codes {tally}")
    if ns.write:
        _write(ours)
        print(f"wrote {MANIFEST.relative_to(ROOT)}")
        return 0
    if ns.against is not None:
        theirs, source = census(ns.against.resolve(), ns.jobs), str(ns.against)
    else:
        theirs, source = json.loads(MANIFEST.read_text()), str(MANIFEST.relative_to(ROOT))
    found = differences(ours, theirs)
    for line in found:
        print(line)
    print(f"census: {len(found)} of {len(ours)} invocations differ from {source}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
