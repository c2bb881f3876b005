"""The benchmark's span tracer (refbench/spans.py) looks up each traced
function by name on the package; a rename or deletion must fail here, not
only in the minute-long benchmark self-test."""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "refbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_refbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"retrodyn.{module}.{name}" for module, name in spans.TRACED
               if not callable(getattr(importlib.import_module(f"retrodyn.{module}"),
                                       name, None))]
    assert not missing, missing
