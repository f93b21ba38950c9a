"""numpy, bound lazily: it loads on the first attribute access.

Each CLI command is its own process, and features, evaluate, --help
and usage errors never touch an array, so they never pay numpy's
import. Modules that compute bind ``from ._numpy import np``.
"""

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
