"""Structured pass/fail records, the base of the immutable records and deterministic report serialization."""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

Exclusions = Mapping[int, Iterable[int]]  # 1-based slot -> excluded basis states


class Frozen:
    """Base of the immutable records: ``__init__`` sets the fields, any later assignment or deletion raises."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class CheckResult:
    """Outcome of one numerical identity check on a basis grid, built only
    by the constructor of its assertion kind below, which decides ``passed``.

    ``excluded`` maps a 1-based component slot to the sorted basis
    indices that were skipped because a coefficient is singular there.
    Those exclusion sets are the Dirac strings of the checked object;
    they are always reported, never silently dropped.
    """

    name: str
    max_deviation: float
    tol: float
    passed: bool
    excluded: Dict[int, List[int]]
    detail: str

    def __init__(self, name: str, max_deviation: float, tol: float, passed: bool, excluded=None, detail: str = ""):
        self.name, self.max_deviation, self.tol, self.passed = name, max_deviation, tol, passed
        self.excluded, self.detail = {} if excluded is None else excluded, detail

    def __eq__(self, other):  # by value, like the records of a rerun; unhashable, as it is mutable
        return type(other) is CheckResult and vars(other) == vars(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": self.max_deviation,
            "tol": self.tol,
            "pass": self.passed,
            "excluded_states": {str(k): sorted(v) for k, v in sorted(self.excluded.items())},
            "detail": self.detail,
        }

    def text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        excl = " excluded=" + format_excluded(self.excluded) if self.excluded else ""
        return f"{status} {self.name} max_dev={self.max_deviation:.3e} tol={self.tol:.1e}{excl}"


def upper_bound_check(
    name: str,
    max_deviation: float,
    tol: float,
    excluded: Exclusions | None = None,
    grid_states: int = 1,
    detail: str = "",
) -> CheckResult:
    """An identity that holds off the strings: passes when the deviation
    is at most ``tol`` and ``excluded`` leaves at least one of the
    ``grid_states`` states scanned.

    The defaults describe a check with nothing excluded from one state,
    such as a numeric check.  A NaN deviation never passes, and ``tol``
    must be positive.  The record keeps ``excluded`` as given, as
    ``excluded_rows`` lists a check's mask: no constructor sorts again.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    passed = grid_states > sum(map(len, (excluded or {}).values())) and max_deviation <= tol
    return CheckResult(name, max_deviation, tol, passed, excluded, detail)


def lower_bound_check(
    name: str, max_deviation: float, floor: float, excluded: Exclusions, grid_states: int, detail: str
) -> CheckResult:
    """An identity that must break: passes when a non-empty scan finds a
    finite deviation above ``floor``."""
    passed = grid_states > sum(map(len, excluded.values())) and math.isfinite(max_deviation) and max_deviation > floor
    return CheckResult(name, max_deviation, floor, passed, excluded, detail)


def exact_set_check(name: str, computed: Exclusions, claimed: Exclusions) -> CheckResult:
    """Computed exclusion sets against the claimed ones, state by state.

    The deviation is the number of states in exactly one of the two;
    the check passes when it is zero.  The computed sets are the record's
    exclusions and the claimed ones its detail.
    """
    computed, claimed = merge_excluded(computed), merge_excluded(claimed)
    mismatch = sum(len(set(computed.get(s, ())) ^ set(claimed.get(s, ()))) for s in set(computed) | set(claimed))
    return CheckResult(name, float(mismatch), 0.0, mismatch == 0, computed, f"claimed {claimed!r}")


def monotone_check(name: str, values: Sequence[float], detail: str) -> CheckResult:
    """A decay: passes when ``values`` are finite and strictly decreasing.

    The record carries the last value as its deviation and the first as
    its tolerance.
    """
    passed = len(values) > 1 and all(map(math.isfinite, values)) and all(b < a for a, b in zip(values, values[1:]))
    return CheckResult(name, values[-1], values[0], passed, {}, detail)


def format_excluded(excluded: Exclusions) -> str:
    """Exclusions as the text and CSV reports write them: ``slot1:[0];slot2:[0]``."""
    return ";".join(f"slot{k}:{sorted(v)}" for k, v in sorted(excluded.items()))


def excluded_rows(mask: np.ndarray) -> List[Dict[int, List[int]]]:
    """Per row of a (rows, slots, n_max + 1) exclusion mask, the map a record holds: the one
    place a mask becomes states, for all rows at once.  Its flat indices come in row, slot, n
    order, so the slots come in order and each one's states sorted."""
    rows, slots, size = mask.shape
    maps: List[Dict[int, List[int]]] = [{} for _ in range(rows)]
    for k in np.flatnonzero(mask).tolist():
        maps[k // (slots * size)].setdefault(k // size % slots + 1, []).append(k % size)
    return maps


def merge_excluded(*maps: Exclusions) -> Dict[int, List[int]]:
    """The union of hand-written exclusion maps: sorted states per slot, in slot order, no empty slot."""
    out: Dict[int, set] = {}
    for m in maps:
        for slot, states in m.items():
            if states:
                out.setdefault(slot, set()).update(states)
    return {slot: sorted(out[slot]) for slot in sorted(out)}


class VerificationReport:
    """A suite run: configuration, per-check records, and an overall verdict."""

    suite: str
    config: dict
    checks: List[CheckResult]

    def __init__(self, suite: str, config: dict, checks: List[CheckResult] | None = None):
        self.suite, self.config, self.checks = suite, config, [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "suite": self.suite,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        # sort_keys + fixed separators keep the output byte-stable
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines += [c.text_line() for c in self.checks]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
