"""Guards on the repository's tooling that the package's own tests would miss."""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_in_the_package():
    # bench/spans.py patches these names by lookup: a renamed function or
    # method would break every traced benchmark run, so it fails here first
    spans = _load_spans()
    missing = []
    for module, attr in spans.SPANS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            # the tracer reads the class's own __dict__, so an inherited
            # method would not do
            target = vars(cls).get(meth) if cls is not None else None
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert not missing, f"bench/spans.py traces names the package lacks: {missing}"
    assert {module for module, _ in spans.SPANS} <= set(spans.LAYERS)
