"""Every binding the benchmark's tracer wraps exists in the package.

``bench/run.py --trace 1`` patches each ``(module, attribute path)`` of
``bench/spans.py``'s ``SPANS`` and refuses to run when one is missing,
so deleting or renaming a traced function must fail here, in the fast
suite, and not only in the slow benchmark tests.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_binding_resolves():
    spans = load_spans()
    assert spans
    missing = []
    for module_name, path, _name, _count in spans:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
