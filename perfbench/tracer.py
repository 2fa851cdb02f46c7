"""Outside-in layer trace: wraps the program's public functions and methods.

Nothing in the program is edited.  Each wrapped function records a span
(layer, parent span, start, end) in memory; a few hot entry points are
only counted, because a span per coefficient evaluation would cost more
than the evaluation.  A layer's self time is its spans' durations minus
the time covered by their child spans.

A name listed here that the program no longer defines is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "fockbundle"

# layer -> (module, qualified name) of every function that belongs to it
SPAN_LAYERS = {
    "operators.mul": [
        ("operators", "FockOperator.__mul__"),
        ("operators", "FockOperator.__rmul__"),
        ("operators", "FockOperator.scale"),
    ],
    "operators.add": [
        ("operators", "FockOperator.__add__"),
        ("operators", "FockOperator.__sub__"),
        ("operators", "FockOperator.__neg__"),
    ],
    "operators.dagger": [("operators", "FockOperator.dagger")],
    "operators.scan": [("operators", "op_equal")],
    "operators.support": [("operators", "FockOperator.singular_support")],
    "opmatrix.matmul": [("opmatrix", "OpMatrix.__matmul__"), ("opmatrix", "OpMatrix.kron")],
    "opmatrix.dagger": [("opmatrix", "OpMatrix.dagger")],
    "opmatrix.scan": [("opmatrix", "matrix_grid_deviation")],
    "opmatrix.strings": [("opmatrix", "OpMatrix.column_singular_map")],
    "jc.build": [
        ("jc", name)
        for name in (
            "r_symbol",
            "r_operator",
            "build_h_jc",
            "qdm_factorization",
            "chart_core",
            "chart_unitary",
            "chart_diagonal",
            "build_chart",
            "transition_operator",
            "projector_pjc",
            "propagator_closed_form",
            "local_coordinate_z",
        )
    ],
    "jc.strings": [
        ("jc", name) for name in ("dirac_string_map", "projector_singular_map", "transition_singular_map")
    ],
    "jc.oracle": [("jc", "propagator_block_oracle")],
    "veronese.build": [
        ("veronese", name)
        for name in (
            "x_symbol",
            "x_operator",
            "y_operator",
            "z_operator",
            "build_family",
            "lift",
            "op_power",
            "projector_pn",
            "oike_layout",
        )
    ],
    "spinrep.build": [("spinrep", "chart_matrix"), ("spinrep", "nc_spin_rep")],
    "spinrep.numeric": [
        ("spinrep", name)
        for name in (
            "random_su2",
            "spin_rep",
            "cg_decompose_pair",
            "cg_decompose_triple",
            "pair_block_target",
            "triple_block_target",
        )
    ],
    "classical.sample": [("classical", "verify_sample")],
    "report.render": [
        ("report", "VerificationReport.to_json"),
        ("report", "VerificationReport.to_text"),
        ("cli", "render"),
    ],
}

# counter -> (module, qualified name) of the function whose calls it counts
COUNTERS = {
    "symbols.evals": ("symbols", "DiagonalSymbol.__call__"),
    "symbols.nodes": ("symbols", "DiagonalSymbol.__init__"),
    "symbols.singular": ("symbols", "SingularPoint.__init__"),
}

ROOT = "pass"


class Tracer:
    """Spans and counters of one process; install once, after the package import."""

    def __init__(self) -> None:
        self.layers = [ROOT] + list(SPAN_LAYERS)
        self.counter_names = list(COUNTERS)
        self.counts = [0] * len(self.counter_names)
        self.parents: list = []
        self.layer_ids: list = []
        self.starts: list = []
        self.ends: list = []
        self.stack: list = []
        self.absent: list = []
        self.excluded: list = []  # (innermost open span, seconds) not spent in the program

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, targets in SPAN_LAYERS.items():
            lid = self.layers.index(layer)
            for module, qualname in targets:
                self._patch(module, qualname, lambda fn, lid=lid: self._span_wrapper(fn, lid))
        for i, (module, qualname) in enumerate(COUNTERS.values()):
            self._patch(module, qualname, lambda fn, i=i: self._count_wrapper(fn, i))

    def _patch(self, module: str, qualname: str, make) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = None if owner is None else vars(owner).get(attr)
        if not callable(original):
            self.absent.append(f"{module}.{qualname}")
            return
        wrapped = make(original)
        if owner_name:
            setattr(owner, attr, wrapped)
            return
        # a function imported by name elsewhere is bound in that module too
        for name, other in list(sys.modules.items()):
            if other is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    def _span_wrapper(self, fn, lid: int):
        parents, layer_ids, starts, ends, stack = self.parents, self.layer_ids, self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            layer_ids.append(lid)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, fn, i: int):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[i] += 1
            return fn(*args, **kwargs)

        return counted

    # -- recording --------------------------------------------------------

    def begin(self) -> int:
        """Open a root span around one CLI call."""
        sid = len(self.starts)
        self.parents.append(-1)
        self.layer_ids.append(0)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` spent just now outside the program (a speed
        probe slice) out of the self time of the innermost open span."""
        self.excluded.append((self.stack[-1] if self.stack else -1, seconds))

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Self seconds and call counts per layer, plus the counters."""
        n = len(self.starts)
        child = [0.0] * n
        for sid in range(n):
            parent = self.parents[sid]
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        self_s = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        for sid in range(n):
            lid = self.layer_ids[sid]
            self_s[lid] += self.ends[sid] - self.starts[sid] - child[sid]
            calls[lid] += 1
        for sid, seconds in self.excluded:
            if sid >= 0:
                self_s[self.layer_ids[sid]] -= seconds
        return {
            "self_s": dict(zip(self.layers, self_s)),
            "calls": dict(zip(self.layers, calls)),
            "counts": dict(zip(self.counter_names, self.counts)),
            "absent": list(self.absent),
        }

    def dump(self, path: str) -> None:
        """Write every span (parent id, layer, start, end) as JSON."""
        spans = [
            [self.parents[i], self.layer_ids[i], self.starts[i], self.ends[i]] for i in range(len(self.starts))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "spans": spans}, fh, separators=(",", ":"))
