"""Fixed pure-Python reference kernel that measures interpreter speed.

The kernel is a small tree of closures in the style of the program's
coefficient symbols (nested calls, complex arithmetic, guarded square
roots), evaluated over a fixed index range.  It imports neither the
program nor numpy, so its time tracks only how fast this process runs
Python code at that moment.

On a shared host that speed swings by tens of percent within a tenth of
a second, so a kernel timed only before and after the work misses most
of it.  SpeedProbe therefore runs one short kernel slice every
PROBE_INTERVAL_S *during* the timed work, from a SIGALRM handler, and
reports the mean slice time.  Normalised seconds are

    (raw seconds - time spent in slices) * REF_NOMINAL_S / mean slice time

which removes the host's drift in speed from one pass to the next.

Import time does not track that speed: it is part file access and
loading of C extensions, and when the kernel runs 2x slower an import
runs only about 1.6x slower.  Set-up times are therefore normalised by
a second reference, ``reference_import``: the time a fresh interpreter
takes to import a fixed set of standard-library modules.
"""

from __future__ import annotations

import importlib
import math
import signal
import time

# Frozen: about the median slice time on the 2-vCPU host the benchmark
# was written on, so normalised seconds read close to raw seconds there.
# Never change it: every normalised figure ever recorded is scaled by it.
REF_NOMINAL_S = 0.001

# Frozen, like REF_NOMINAL_S: about the median time of reference_import
# on the same host.
REF_IMPORT_NOMINAL_S = 0.06

# Standard-library modules, C extensions and pure-Python packages alike,
# that child.py does not load before it calls reference_import.
REF_IMPORT_MODULES = (
    "decimal",
    "sqlite3",
    "ctypes",
    "xml.etree.ElementTree",
    "email.parser",
    "http.client",
    "unittest",
    "inspect",
    "ast",
    "dataclasses",
    "argparse",
    "csv",
    "fractions",
    "statistics",
    "tarfile",
    "logging",
)

PROBE_INTERVAL_S = 0.02
_SPAN = 12


class _Singular(Exception):
    pass


def _build():
    def leaf(k):
        return lambda n, k=k: complex(n + k)

    def add(a, b):
        return lambda n, a=a, b=b: a(n) + b(n)

    def mul(a, b):
        return lambda n, a=a, b=b: a(n) * b(n)

    def shift(a, d):
        return lambda n, a=a, d=d: a(n + d)

    def gsqrt(a):
        def fn(n, a=a):
            v = complex(a(n))
            if v.real < -1e-12:
                raise _Singular(n)
            return math.sqrt(max(v.real, 0.0))

        return fn

    level = [leaf(k) for k in range(4)]
    for _ in range(3):
        level = [
            gsqrt(add(mul(level[i], shift(level[(i + 1) % 4], 1)), level[(i + 2) % 4]))
            for i in range(4)
        ]
    return level


_FNS = _build()


def kernel_slice() -> float:
    """Run one fixed slice of the kernel; return its raw seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for n in range(_SPAN):
        for f in _FNS:
            try:
                acc += abs(f(n - 2))
            except _Singular:
                acc += 1.0
    elapsed = time.perf_counter() - t0
    if acc <= 0.0:
        raise RuntimeError("reference kernel computed nothing")
    return elapsed


class SpeedProbe:
    """Samples kernel speed during a timed region.

    ``start`` and ``stop`` each run one slice just outside the region;
    in between, SIGALRM runs one slice every PROBE_INTERVAL_S.  Those
    inner slices are counted in ``inside_s`` so callers can take them
    out of the region's raw time; ``on_sample(seconds)`` is told of each.
    """

    def __init__(self, on_sample=None) -> None:
        self.samples: list = []
        self.inside_s = 0.0
        self.on_sample = on_sample

    def _tick(self, signum, frame) -> None:
        dt = kernel_slice()
        self.samples.append(dt)
        self.inside_s += dt
        if self.on_sample:
            self.on_sample(dt)

    def start(self) -> None:
        self.samples.append(kernel_slice())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(kernel_slice())

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def normalise(self, raw_s: float) -> float:
        """Reference-speed seconds of ``raw_s`` (which must exclude ``inside_s``)."""
        return raw_s * REF_NOMINAL_S / self.mean_s


def reference_import() -> float:
    """Import REF_IMPORT_MODULES; return the raw seconds it took.  Call
    it once, in a fresh interpreter."""
    t0 = time.perf_counter()
    for name in REF_IMPORT_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - t0
