"""Outside-in layer tracing for the traced benchmark run.

The library is not edited.  Wrappers defined here replace each public layer
entry point at every module binding it has, because the library's modules
import names (``from .system import freeze``) rather than reaching through
the defining module.  A wrapper counts calls, sums inclusive time, and sums
self time: its duration minus the time covered by wrapped calls made inside
it.  Statistics go to the current bucket, so set-up, solves and the final
checks are kept apart.

``system.term_evals`` is the one count taken at a private name, the per-term
evaluator that ``freeze`` and ``evaluate`` share.  When a target is missing
its metrics are reported as absent, never as zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (layer, defining module, attribute) for plain functions.
FUNCTIONS = (
    ("system.freeze", "madmm.system", "freeze"),
    ("system.evaluate", "madmm.system", "evaluate"),
    ("system.term_evals", "madmm.system", "_eval_term"),
    ("system.circ_conv2", "madmm.system", "circ_conv2"),
    ("prox.quad_block_solve", "madmm.prox", "quad_block_solve"),
    ("solver.step", "madmm.solver", "step"),
)
FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn")
# Layer names of the objective terms' methods.
TERM_METHODS = (("prox", "prox.prox_map"), ("value", "prox.term_value"),
                ("grad", "prox.term_grad"))


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Call counts and inclusive and self times per layer, by bucket."""

    def __init__(self):
        self.buckets = defaultdict(lambda: defaultdict(Stat))
        self.bucket = self.buckets["setup"]
        self.missing = set()
        self._stack = []
        self._patched = []   # (owner, attribute, original), in patch order

    def use(self, name: str) -> None:
        self.bucket = self.buckets[name]

    def wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat = self.bucket[layer]
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child[0]

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _patch_bindings(self, layer: str, fn) -> None:
        """Replace ``fn`` wherever a madmm module binds it."""
        wrapper = self.wrap(layer, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "madmm"
                                      or mod_name.startswith("madmm.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attribute, wrapper)

    def install(self) -> None:
        for layer, mod_name, attribute in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attribute, None)
            if fn is None:
                self.missing.add(layer)
            else:
                self._patch_bindings(layer, fn)
        for attribute in FFT_FUNCTIONS:
            self._patch(np.fft, attribute,
                        self.wrap("numpy.fft", getattr(np.fft, attribute)))
        zoo = sys.modules["madmm.zoo"]
        for family in zoo.zoo_names():
            builder = getattr(zoo, family, None)
            if callable(builder):
                self._patch_bindings("zoo.build", builder)
        prox = sys.modules["madmm.prox"]
        for cls in vars(prox).values():
            if isinstance(cls, type) and issubclass(cls, prox.ObjectiveTerm):
                for method, layer in TERM_METHODS:
                    if method in vars(cls):
                        self._patch(cls, method,
                                    self.wrap(layer, vars(cls)[method]))

    def wrap_custom_updaters(self, problem) -> None:
        """Time a built problem's bespoke block updaters by block name."""
        for name, fn in problem.custom_updaters.items():
            problem.custom_updaters[name] = self.wrap(
                f"zoo.custom_update.{name}", fn)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

