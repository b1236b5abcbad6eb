"""One job of the benchmark, run in a fresh interpreter.

Usage: python3 runner.py SPEC, where SPEC is a JSON object:

  {"mode": "probe"}                          import minrank and exit
  {"mode": "cli", "argv": [...]}             minrank.cli.main(argv), cold
                                             then warm in the same process
  {"mode": "survey", "seed": n,              classify(6), then verify_pair
   "warm_passes": k}                         on the 35 pairs of ambient rank
                                             <= 6 cold, then k times warm

plus "trace": true to record layer spans. The job records when the
interpreter was ready and when ``import minrank`` finished (on the
system-wide monotonic clock, so the benchmark process can subtract its
spawn time), the time of each phase with speed samples taken around and
during it (calibrate.py), the maximum RSS after the cold phase, and the
outputs the benchmark checks. The record is the last line of stderr, after
the marker below.
"""

import time

READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

MARKER = "PERFBENCH-RECORD "
SRC = Path(__file__).resolve().parent.parent / "src"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _phase(record: dict, phase: str, tracer, fn):
    """Run ``fn`` as one timed phase, sampling the machine's speed during it
    and after it (calibrate.py)."""
    ticker = calibrate.Ticker()
    if tracer is not None:
        tracer.phase = phase
        ticker.on_tick = tracer.on_tick
    with ticker:
        t0 = time.perf_counter_ns()
        result = fn()
        t1 = time.perf_counter_ns()
    record["phase_ns"].setdefault(phase, []).append(t1 - t0)
    record["ticks"].setdefault(phase, []).append(ticker.samples)
    record["cal"].append(calibrate.sample())
    return result


def _cli_call(minrank, argv: list[str]) -> dict:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = minrank.cli.main(argv)
    except Exception:
        return {"code": None, "stdout": out.getvalue(), "error": traceback.format_exc()}
    return {"code": code, "stdout": out.getvalue(), "error": None}


def run_cli(minrank, argv: list[str], record: dict, tracer) -> None:
    cold = _phase(record, "cold", tracer, lambda: _cli_call(minrank, argv))
    record["cold_maxrss_kb"] = _maxrss_kb()
    warm = _phase(record, "warm", tracer, lambda: _cli_call(minrank, argv))
    record["calls"] = [dict(cold, phase="cold"), dict(warm, phase="warm")]


def run_survey(minrank, seed: int, warm_passes: int, record: dict, tracer) -> None:
    rng = random.Random(seed)

    def cold_pass():
        pairs = minrank.classify(6)
        subset = [p for p in pairs if p.g_diagram.rank <= 6]
        rng.shuffle(subset)
        return pairs, subset, [minrank.verify_pair(p) for p in subset]

    def warm_pass():
        rng.shuffle(subset)
        return [minrank.verify_pair(p) for p in subset]

    pairs, subset, cold = _phase(record, "cold", tracer, cold_pass)
    record["cold_maxrss_kb"] = _maxrss_kb()
    warm = [_phase(record, "warm", tracer, warm_pass) for _ in range(warm_passes)]
    record["classify_json"] = (
        json.dumps(minrank.classification_to_json(pairs), sort_keys=True, indent=2)
        + "\n"
    )
    record["passes"] = [
        [minrank.report_to_json(r) for r in reports] for reports in [cold] + warm
    ]


def main() -> int:
    spec = json.loads(sys.argv[1])
    record: dict = {"ready_ns": READY_NS, "phase_ns": {}, "ticks": {}, "cal": []}
    try:
        sys.path.insert(0, str(SRC))
        import minrank
        import minrank.cli

        record["imported_ns"] = time.monotonic_ns()
        if Path(minrank.__file__).resolve().parent != SRC / "minrank":
            raise RuntimeError(f"imported minrank from {minrank.__file__}, not {SRC}")
        record["cal"].append(calibrate.sample())
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if spec["mode"] == "cli":
            run_cli(minrank, spec["argv"], record, tracer)
        elif spec["mode"] == "survey":
            run_survey(minrank, spec["seed"], spec["warm_passes"], record, tracer)
        if tracer is not None:
            record["spans"] = tracer.spans
            record["ticks_outside_spans_ns"] = tracer.ticks_outside_spans_ns
    except Exception:
        record["error"] = traceback.format_exc()
    sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
