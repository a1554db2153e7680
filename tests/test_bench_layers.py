"""The benchmark's layer trace still finds every name it wraps.

``bench/layers.py`` wraps each traced layer under the (module, attribute)
name its callers look it up by; a rename in the package would otherwise
only show as a failing ``--trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    layers = load_layers()
    originals = {
        site: getattr(importlib.import_module(site[0]), site[1])
        for sites in layers.LAYERS.values()
        for site in sites
    }
    tracer = layers.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in originals.items():
            assert getattr(importlib.import_module(module_name), attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is original
