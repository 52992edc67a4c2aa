"""The benchmark tracer's targets still name functions of the package.

perfbench/tracer.py patches each target of SPANS and LEAVES where
Tracer.install looks it up: in the __dict__ of its digitop module, or of
the class it names.  A function that is deleted or renamed fails here,
in the package's own tests, and not only in the benchmark's self-tests.
The tracer is read from its file and nothing in it is changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(target: str, modules: tuple) -> bool:
    """Whether Tracer.install finds target: module.attr or module.Class.attr."""
    module, *path = target.split(".")
    if module not in modules:
        return False
    owner = importlib.import_module(f"digitop.{module}")
    if len(path) == 2:
        owner = getattr(owner, path[0], None)
    return callable(getattr(owner, "__dict__", {}).get(path[-1]))


def test_every_traced_target_resolves_as_the_tracer_looks_it_up():
    tracer = load_tracer()
    targets = {**tracer.SPANS, **tracer.LEAVES}
    assert [t for t in targets if not resolves(t, tracer.MODULES)] == []

