"""Structured pass/fail records and deterministic report serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class CheckResult:
    """Outcome of one numerical identity check on a basis grid.

    ``excluded`` maps a 1-based component slot to the sorted basis
    indices that were skipped because a coefficient is singular there.
    Those exclusion sets are the Dirac strings of the checked object;
    they are always reported, never silently dropped.
    """

    name: str
    max_deviation: float
    tol: float
    passed: bool
    excluded: Dict[int, List[int]] = field(default_factory=dict)
    detail: str = ""

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
        excl = (
            " excluded=" + ";".join(f"slot{k}:{sorted(v)}" for k, v in sorted(self.excluded.items()))
            if self.excluded
            else ""
        )
        return f"{status} {self.name} max_dev={self.max_deviation:.3e} tol={self.tol:.1e}{excl}"


def upper_bound_check(
    name: str,
    max_deviation: float,
    tol: float,
    excluded: Dict[int, List[int]] | None = None,
    grid_states: int = 1,
    detail: str = "",
) -> CheckResult:
    """A check that passes when the deviation is at most ``tol`` and
    ``excluded`` leaves at least one of the ``grid_states`` states scanned.

    The defaults describe a check with nothing excluded from one state,
    such as a numeric check.  A NaN deviation never passes.
    """
    excluded = {} if excluded is None else excluded
    scanned = grid_states - sum(len(v) for v in excluded.values())
    return CheckResult(
        name=name,
        max_deviation=max_deviation,
        tol=tol,
        passed=scanned > 0 and max_deviation <= tol,
        excluded=excluded,
        detail=detail,
    )


def merge_excluded(*maps: Dict[int, set]) -> Dict[int, List[int]]:
    out: Dict[int, set] = {}
    for m in maps:
        for slot, states in m.items():
            if states:
                out.setdefault(slot, set()).update(states)
    return {slot: sorted(states) for slot, states in out.items()}


@dataclass
class VerificationReport:
    """A suite run: configuration, per-check records, and an overall verdict."""

    suite: str
    config: dict
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, results) -> None:
        self.checks.extend(results)

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
