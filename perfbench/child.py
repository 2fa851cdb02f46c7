"""One cold start of the program, run in a fresh interpreter by run.py.

Reads a JSON job from stdin: ``src`` (directory holding the package),
``argvs`` (CLI argument lists, run in order through ``cli.main``; empty
for a start that only imports), ``trace`` (bool), ``spans`` (a path for
the span dump, or null) and ``reference`` (bool: import the set-up
reference modules instead of the package).  Writes one JSON line with
the raw seconds of the import; for the CLI work, the raw seconds, the
reference-kernel samples taken during it and the normalised seconds;
plus the CLI outputs and the peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from refkernel import REF_NOMINAL_S, SpeedProbe, reference_import  # noqa: E402


def measured(probe: SpeedProbe, t0: float, t1: float) -> dict:
    """Raw seconds of [t0, t1] without the probe's slices, and what they normalise to."""
    raw = t1 - t0 - probe.inside_s
    return {
        "raw_s": raw,
        "probe_slices": len(probe.samples),
        "probe_inside_s": probe.inside_s,
        "probe_mean_s": probe.mean_s,
        "factor": REF_NOMINAL_S / probe.mean_s,
        "norm_s": probe.normalise(raw),
    }


def main() -> int:
    job = json.load(sys.stdin)
    if job["reference"]:
        print(json.dumps({"reference_s": reference_import()}))
        return 0
    sys.path.insert(0, job["src"])

    t0 = time.perf_counter()
    from fockbundle import cli

    result = {"setup_raw_s": time.perf_counter() - t0}
    if not job["argvs"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs = []
    probe = SpeedProbe(on_sample=tracer.exclude if tracer else None)
    probe.start()
    t0 = time.perf_counter()
    for argv in job["argvs"]:
        buf = io.StringIO()
        rc, error = None, ""
        root = tracer.begin() if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit):  # a crashed pass is recorded, then gated as failed
            error = traceback.format_exc()
        if tracer:
            tracer.end(root)
        outputs.append({"rc": rc, "out": buf.getvalue(), "error": error})
    t1 = time.perf_counter()
    probe.stop()
    result["pass"] = measured(probe, t0, t1)
    result["outputs"] = outputs
    result["max_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = tracer.summary()
        if job["spans"]:
            tracer.dump(job["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
