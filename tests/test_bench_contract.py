"""The functions the benchmark profiles must stay defined in the package source.

``bench/layers.py`` names (module, function) pairs whose profile entries give
the per-layer metrics; a metric whose function is gone reads as missing.  The
layer list is loaded by file path, because ``bench/child.py`` runs a workload
when imported, and the source is searched the way the benchmark searches it:
by compiling each module and walking its nested code objects.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.FUNCTIONS


def _defined_names(module: str) -> set[str]:
    path = ROOT / "src" / "ringpoints" / f"{module}.py"
    stack = [compile(path.read_text(), str(path), "exec")]
    names = set()
    while stack:
        code = stack.pop()
        names.add(code.co_name)
        stack += [c for c in code.co_consts if hasattr(c, "co_code")]
    return names


def test_profiled_functions_are_defined():
    functions = _layer_functions()
    assert functions
    missing = [f"{mod}.{fn}" for mod, fn in functions if fn not in _defined_names(mod)]
    assert not missing, f"functions named in bench/layers.py but not defined: {missing}"
