"""Record the check names and exclusion sets the verify gate expects.

    python3 perfbench/record_expected.py

Runs each verify call of the benchmark once, in process, and writes
``expected/<suite>-nmax<N>.json``.  Run it only at a commit whose reports
are known to be right: the gate treats these files as the truth.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import SRC, VERIFY_WORKLOADS, expected_path, verify_argv

sys.path.insert(0, str(SRC))

from fockbundle import cli  # noqa: E402


def main() -> int:
    for calls in VERIFY_WORKLOADS.values():
        for suite, nmax in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(verify_argv(suite, nmax, seed=0))
            if rc != 0:
                print(f"{suite}: exit {rc}, not recorded", file=sys.stderr)
                return 1
            checks = [[c["name"], c["excluded_states"]] for c in json.loads(buf.getvalue())["checks"]]
            path = expected_path(suite, nmax)
            path.parent.mkdir(exist_ok=True)
            record = {"argv": verify_argv(suite, nmax, seed=0)[:-2], "checks": checks}
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{path.name}: {len(checks)} checks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
