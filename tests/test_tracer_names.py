"""The benchmark's layer trace (``perfbench/tracer.py``) wraps program
functions by name and reports a name it cannot find as absent instead of
failing.  This keeps every name it lists defined, so that a rename in the
package shows up here rather than as a silently empty layer."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_the_package():
    tracer = _load_tracer()
    targets = [target for targets in tracer.SPAN_LAYERS.values() for target in targets]
    targets += list(tracer.COUNTERS.values())
    missing = []
    for module, qualname in targets:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        # the tracer looks the name up in the owner's own namespace, not through inheritance
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{qualname}")
    assert len(targets) > 40
    assert missing == []
