"""The benchmark's tracer wraps functions by (module, attribute) name;
a renamed or moved function would otherwise fail only a traced run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, *_ in tracing.TARGETS:
        owner = importlib.import_module(f"holant3.{module}")
        assert callable(getattr(owner, attr, None)), f"holant3.{module}.{attr}"
