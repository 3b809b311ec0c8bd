"""The benchmark tracer wraps names in the package; every one of them must exist.

``perfbench/tracing.py`` rebinds each ``(module, attribute)`` of ``TARGETS``
when a traced pass starts. A name missing from the package makes the install
fail and every operation of the traced pass fail with it, so the contract is
checked here, before a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = load_tracing().TARGETS
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
