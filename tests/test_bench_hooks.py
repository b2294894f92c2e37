"""The benchmark's traced run wraps exproof functions at the module attributes
listed in `bench/spans.py`; a renamed or removed attribute would only print a
"not found" line there, so check here that every one still resolves."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_wrapped_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [
        f"{module}.{attr}"
        for module, attr, _span, _sizes in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
