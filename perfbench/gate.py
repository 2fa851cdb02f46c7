"""Correctness gate for the CLI outputs of one pass.

Every function returns ``(attempted, failed, problems)``.  ``attempted``
counts the checks the pass was expected to make (plus any it made that
were not expected); ``failed`` counts those that are missing, failed or
changed.  A CLI call that crashed, or whose output cannot be read,
fails all of its expected checks.
"""

from __future__ import annotations

import csv
import io
import json
from typing import List, Optional, Tuple

Verdict = Tuple[int, int, List[str]]


def gate_verify(output: Optional[dict], expected: List[list]) -> Verdict:
    """``verify --format json``: exit code 0, every check passed, and the
    check names (in order) and ``excluded_states`` equal ``expected``, a
    list of ``[name, excluded_states]`` pairs."""
    total = len(expected)
    if output is None or output.get("error"):
        return total, total, ["verify crashed: " + (output or {}).get("error", "no output")[-300:]]
    try:
        checks = json.loads(output["out"])["checks"]
        got = [(c["name"], c["excluded_states"], c["pass"]) for c in checks]
    except (ValueError, KeyError, TypeError) as err:
        return total, total, [f"verify report unreadable: {err!r}"]
    problems = []
    by_name = {name: (excl, ok) for name, excl, ok in got}
    failed = 0
    for name, excl in expected:
        if name not in by_name:
            problems.append(f"missing check {name}")
        elif by_name[name][0] != excl:
            problems.append(f"{name}: excluded_states {by_name[name][0]} != {excl}")
        elif by_name[name][1] is not True:
            problems.append(f"{name}: failed")
        else:
            continue
        failed += 1
    expected_names = [name for name, _ in expected]
    extra = [name for name, _, _ in got if name not in set(expected_names)]
    problems += [f"unexpected check {name}" for name in extra]
    if not extra and [name for name, _, _ in got] != expected_names:
        problems.append("checks out of order or duplicated")
        failed = max(failed, 1)
    if output["rc"] != 0:
        problems.append(f"verify exited {output['rc']}")
        if failed == 0:
            failed = total
    return total + len(extra), failed + len(extra), problems


def gate_sweep(output: Optional[dict], values: List[str]) -> Verdict:
    """``sweep`` CSV: one row per axis value, in order, each with its
    ``pass`` flag (the last field) set.

    Only the first and last fields of a row are read: the header comes
    from the first value's checks, so rows of other values can have a
    different number of fields.
    """
    total = len(values)
    if output is None or output.get("error"):
        return total, total, ["sweep crashed: " + (output or {}).get("error", "no output")[-300:]]
    if output["rc"] != 0:
        return total, total, [f"sweep exited {output['rc']}"]
    rows = list(csv.reader(io.StringIO(output["out"])))[1:]
    problems = []
    if len(rows) != total:
        problems.append(f"{len(rows)} rows for {total} values")
    failed = 0
    for i, value in enumerate(values):
        row = rows[i] if i < len(rows) else None
        if row is None or row[0] != repr(float(value)):
            problems.append(f"no row for value {value}")
        elif row[-1] != "1":
            problems.append(f"value {value}: pass={row[-1]}")
        else:
            continue
        failed += 1
    return total, failed, problems
