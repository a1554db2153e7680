"""Layer trace: self time and call counts at the boundaries between modules.

The tracer wraps each layer's public function under the name its caller
looks it up by (for example ``slopecert.replay.cone_find``, which the replay
imported by name, and ``slopecert.kernels.find_candidate``, which callers
reach through the module).  Nothing in the program changes; ``uninstall``
puts every original back.

A layer's self time is the time inside its calls minus the time of the
traced calls nested in them.  The leaf helpers (lattice, weyl, conj, errors)
are not traced separately; their time counts toward the layer that called them.
"""

from __future__ import annotations

import importlib
import time

# layer name -> the (module, attribute) names its callers look it up by
LAYERS = {
    "cli.run_job": (("slopecert.cli", "run_job"),),
    "replay.replay_symplectic": (("slopecert.cli", "replay_symplectic"),),
    "replay.replay_orthogonal": (("slopecert.cli", "replay_orthogonal"),),
    "replay.verify_certificate": (("slopecert.cli", "verify_certificate"),),
    "cone.cone_find": (("slopecert.replay", "cone_find"),),
    "satake.change_refinement": (("slopecert.replay", "change_refinement"),),
    "admissibility.alignment_check": (("slopecert.replay", "alignment_check"),),
    "replay.certify_splittings": (("slopecert.replay", "certify_splittings"),),
    "kernels.find_candidate": (("slopecert.kernels", "find_candidate"),),
    "scan.run_scan": (("slopecert.scan", "run_scan"),),
    "symbols.hilbert": (("slopecert.cli", "hilbert"), ("slopecert.symbols", "hilbert")),
    "symbols.hilbert_solvable": (("slopecert.cli", "hilbert_solvable"),),
    "symbols.waldspurger_sign_product": (("slopecert.cli", "waldspurger_sign_product"),),
    "principal.refinement_orbit": (("slopecert.cli", "refinement_orbit"),),
}
FOUND = "kernels.find_candidate.found"  # kernel calls that returned a candidate


class Tracer:
    def __init__(self):
        self._stack = []  # child time accumulated by each open span
        self._saved = []
        self.reset()

    def reset(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.found = 0

    def _wrap(self, layer, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                self.self_s[layer] += span - child
                self.calls[layer] += 1
                if stack:
                    stack[-1] += span
            if layer == "kernels.find_candidate" and result[0]:
                self.found += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for layer, sites in LAYERS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
