"""The benchmark tracer's targets still exist in the package.

A traced benchmark run wraps each (owner, attribute) in bench/tracer.py's
TARGETS; a target renamed or deleted here would otherwise fail only that run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # the owners are looked up at import
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracer.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"tracer targets missing from the package: {missing}"
