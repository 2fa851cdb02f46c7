"""Benchmark of `fockbundle verify` / `sweep`, from the outside.

    python3 perfbench/run.py --workload deep-lift --seed 1 --seconds 24 --trace 0

Every pass is a fresh interpreter that imports ``fockbundle.cli`` and
calls ``cli.main(argv)`` for each CLI call of the workload, so no cache
carries over between passes, as between real CLI invocations.  Timings
are reported in reference-speed seconds: a pass's raw seconds *
REF_NOMINAL_S / the time of a fixed pure-Python kernel sampled in the
same process during the pass; an import's raw seconds *
REF_IMPORT_NOMINAL_S / the time of a fixed standard-library import in a
fresh interpreter started just before (see refkernel.py).  Raw seconds
and reference times of every process are kept in .bench_out/ for audit.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced passes, which
alternate with untraced ones so that the tracing overhead is measured
in the same run.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from gate import gate_sweep, gate_verify  # noqa: E402
from refkernel import REF_IMPORT_NOMINAL_S, REF_NOMINAL_S  # noqa: E402
from tracer import SPAN_LAYERS  # noqa: E402

THETAS = ["--theta", "1", "--theta=-1", "--theta", "0"]
VERIFY_WORKLOADS = {
    "deep-lift": [("spinrep", 48), ("veronese", 48)],
    "wide-grid": [("charts", 768), ("fock", 768), ("propagator", 768)],
}
SWEEP_THETAS = 20
SWEEP_NMAX = 6
WORKLOADS = list(VERIFY_WORKLOADS) + ["theta-sweep"]

SETUP_STARTS = 12  # import-only cold starts per run, each after a reference start
IMPORTTIME_STARTS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
HARD_LIMIT_S = 140  # start no pass after this, so a run ends well within 180 s
PASS_DEADLINE_S = 160  # a pass still running this long after the start is killed


def expected_path(suite: str, nmax: int) -> Path:
    return HERE / "expected" / f"{suite}-nmax{nmax}.json"


def verify_argv(suite: str, nmax: int, seed: int) -> list:
    return ["verify", "--suite", suite, *THETAS, "--nmax", str(nmax), "--seed", str(seed)]


def sweep_values(seed: int) -> list:
    """SWEEP_THETAS seeded detunings, half in [-2, -0.001] and half in
    [0.001, 2], plus exactly 0, in ascending order.  Equal halves keep the
    work per pass the same for every seed: the checks differ by sign."""
    rng = random.Random(seed)
    half = [rng.uniform(1e-3, 2.0) for _ in range(SWEEP_THETAS)]
    values = [-v for v in half[: SWEEP_THETAS // 2]] + half[SWEEP_THETAS // 2 :] + [0.0]
    return [f"{v:.6f}" for v in sorted(values)]


def workload_calls(workload: str, seed: int) -> list:
    """The CLI calls of one pass, each with the gate for its output."""
    if workload == "theta-sweep":
        values = sweep_values(seed)
        argv = ["sweep", "--suite", "all", "--axis", "theta", "--nmax", str(SWEEP_NMAX), "--seed", str(seed)]
        return [(argv + ["--values", *values], lambda out: gate_sweep(out, values))]
    calls = []
    for suite, nmax in VERIFY_WORKLOADS[workload]:
        expected = json.loads(expected_path(suite, nmax).read_text())["checks"]
        calls.append((verify_argv(suite, nmax, seed), lambda out, e=expected: gate_verify(out, e)))
    return calls


# -- processes ---------------------------------------------------------------


def run_child(
    argvs: list,
    trace: bool = False,
    spans: str | None = None,
    flags: tuple = (),
    reference: bool = False,
    timeout: float = CHILD_TIMEOUT_S,
) -> dict:
    """Run child.py in a fresh interpreter; return its result, or a dict
    with ``crashed`` set when it died, timed out or printed no result."""
    job = {"src": str(SRC), "argvs": argvs, "trace": trace, "spans": spans, "reference": reference}
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, *flags, str(CHILD)],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=str(ROOT),
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return {"crashed": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    result["stderr"] = proc.stderr
    return result


def cold_starts(n: int, flags: tuple = ()) -> list:
    """``n`` import-only starts, each right after a reference start; each
    result gets the reference time, the factor that normalises its raw
    seconds and the normalised seconds."""
    starts = []
    for _ in range(n):
        ref = run_child([], reference=True)
        r = run_child([], flags=flags)
        if "crashed" in ref and "crashed" not in r:
            r = {"crashed": f"reference start: {ref['crashed']}"}
        if "crashed" not in r:
            r["reference_s"] = ref["reference_s"]
            r["setup_factor"] = REF_IMPORT_NOMINAL_S / ref["reference_s"]
            r["setup_norm_s"] = r["setup_raw_s"] * r["setup_factor"]
        starts.append(r)
    return starts


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> tuple:
    """(raw seconds to import the package at top level, raw seconds to import numpy)."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    top = min(indent for indent, _, _ in entries)
    package = sum(
        cumulative
        for indent, name, cumulative in entries
        if indent == top and (name == "fockbundle" or name.startswith("fockbundle."))
    )
    numpy = next((cumulative for _, name, cumulative in entries if name == "numpy"), 0.0)
    return package, numpy


# -- statistics ----------------------------------------------------------------


def tail_percentile(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, none with 10 beyond it"
    return f"n={n}, p{100 * (n - 10) / n:.1f}={sorted(values)[n - 11]:.6g}"


def layer_metrics(traced: list, untraced_pass_s: list) -> dict:
    """Per-layer metrics: medians over the traced passes, normalised."""
    rows = []
    for r in traced:
        factor, summary = r["pass"]["factor"], r["trace"]
        row = {}
        for layer in SPAN_LAYERS:
            row[f"{layer}_s"] = summary["self_s"][layer] * factor
            row[f"{layer}_calls"] = summary["calls"][layer]
        row.update(summary["counts"])
        scan = sum(row[f"{k}_s"] for k in ("operators.scan", "opmatrix.scan", "operators.support", "opmatrix.strings"))
        evals = row["symbols.evals"]
        row["symbols.us_per_eval"] = scan / evals * 1e6 if evals else 0.0
        row["report.bytes"] = sum(len(o["out"]) for o in r["outputs"])
        row["pass_s"] = r["pass"]["norm_s"]
        rows.append(row)
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["trace.overhead"] = out.pop("pass_s") / statistics.median(untraced_pass_s)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name == "symbols.us_per_eval":
        return "us"
    if name == "report.bytes":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    return "count"


# -- main ------------------------------------------------------------------------


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fockbundle" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'fockbundle'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calls = workload_calls(args.workload, args.seed)
    argvs = [argv for argv, _ in calls]

    cold_starts(1)  # warm-up: writes bytecode and fills the file cache; not timed
    setups = cold_starts(SETUP_STARTS)
    passes = []  # (traced, result)
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    stop = time.monotonic() + args.seconds
    while time.monotonic() - started < HARD_LIMIT_S and (time.monotonic() < stop or len(passes) < min_passes):
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = str(OUT / f"spans-{args.workload}.json") if traced else None
        timeout = min(CHILD_TIMEOUT_S, started + PASS_DEADLINE_S - time.monotonic())
        passes.append((traced, run_child(argvs, trace=traced, spans=spans, timeout=timeout)))
    importtimes = cold_starts(IMPORTTIME_STARTS if args.trace else 0, flags=("-X", "importtime"))

    attempted = failed = 0
    problems = []
    for _, r in passes:
        outputs = r.get("outputs") or [None] * len(calls)
        for (_, gate), out in zip(calls, outputs):
            a, f, p = gate(out)
            attempted, failed = attempted + a, failed + f
            problems += p
        if "crashed" in r:
            problems.append(f"pass crashed: {r['crashed']}")
    crashed_setups = [r["crashed"] for r in setups + importtimes if "crashed" in r]
    problems += [f"cold start crashed: {c}" for c in crashed_setups]

    ok = [(traced, r) for traced, r in passes if "crashed" not in r]
    untraced_pass = [r["pass"]["norm_s"] for traced, r in ok if not traced]
    setup_samples = [r["setup_norm_s"] for r in setups if "crashed" not in r]
    if not untraced_pass or not setup_samples:
        print("error: no pass completed; " + "; ".join(problems[:5]), file=sys.stderr)
        return 1

    if args.trace:
        traced_rows = [r for traced, r in ok if traced]
        if not traced_rows:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        values = layer_metrics(traced_rows, untraced_pass)
        cli_import = [(parse_importtime(r["stderr"]), r["setup_factor"]) for r in importtimes if "crashed" not in r]
        if not cli_import:
            print("error: no -X importtime start completed", file=sys.stderr)
            return 1
        values["cli.import_s"] = statistics.median(p * f for (p, _), f in cli_import)
        values["cli.import_numpy_s"] = statistics.median(n * f for (_, n), f in cli_import)
        absent = traced_rows[0]["trace"]["absent"]
    else:
        values = {
            "pass_s": statistics.median(untraced_pass),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": max(r["max_rss_kib"] for _, r in ok) / 1024.0,
        }
        absent = []
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_import_nominal_s": REF_IMPORT_NOMINAL_S,
        "argvs": argvs,
        "problems": problems,
        "pass_tail": tail_percentile(untraced_pass),
        "absent": absent,
        "setups": [_audit(r) for r in setups],
        "passes": [dict(_audit(r), traced=traced) for traced, r in passes],
        "metrics": metrics,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, {len(setup_samples)} cold starts")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'pass_s tail':28s} {tail_percentile(untraced_pass)}")
    fail_ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':28s} {fail_ratio:.6g} ratio (failed {failed} of {attempted} checks)")
    for name in absent:
        print(f"  absent {name}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _audit(r: dict) -> dict:
    """Raw seconds and reference times of one process, beside what they normalise to."""
    keys = ("crashed", "setup_raw_s", "reference_s", "setup_norm_s", "pass", "max_rss_kib")
    return {k: r[k] for k in keys if k in r}


if __name__ == "__main__":
    raise SystemExit(main())
