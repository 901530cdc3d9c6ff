"""Spans around calls into each `topoinv` layer, recorded from outside the package.

`Tracer.installed()` rebinds every listed public function, in every loaded
`topoinv` module namespace that holds it (the package itself included), to a
wrapper that records a span: name, start, end and the enclosing span.  Calls
between modules and within a module both go through a module global, so the
wrappers see them.  Spans stay in memory; self time is a span's duration
minus the durations of its direct children.

Spans are lost in forked pool workers, so a traced run uses one worker.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer (module) -> public functions traced in it
LAYERS = {
    "models": ("build_hamiltonian", "insert_flux"),
    "spectral": ("diagonalize", "fermi_projection", "detect_gap"),
    "invariants": ("chern_projection", "chern_unitary", "fermi_unitary", "pair_index",
                   "dirac_phase", "trs_fredholm", "z2_kernel_parity", "spin_chern",
                   "veg_invariant"),
    "boundary": ("make_half_space", "exp_map", "boundary_winding", "boundary_current"),
    "flow": ("spectral_flow", "flow_trace", "halfflux_kernel_parity"),
    "serialize": ("model_from_config",),
    "harness": ("run_experiment", "sweep"),
}

HASHED = "spectral.diagonalize"  # matrices hashed to count distinct eigensolves


def _matrix_digest(sample) -> bytes:
    matrix = np.ascontiguousarray(getattr(sample, "matrix", sample))
    return hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.digests = []  # one per call of HASHED, in call order
        self._open = []  # indices of spans not yet ended

    def _wrap(self, name, fn):
        spans, digests, open_ = self.spans, self.digests, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == HASHED:
                digests.append(_matrix_digest(args[0] if args else kwargs["sample"]))
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the listed functions for the duration of the block."""
        wrappers = {}  # id of original -> (original, wrapper)
        for layer, names in LAYERS.items():
            module = sys.modules[f"topoinv.{layer}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        rebound = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "topoinv" and not mod_name.startswith("topoinv."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    def layer_stats(self) -> dict:
        """Per traced function: {"calls": n, "self_s": seconds}."""
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            stats[name]["calls"] += 1
            stats[name]["self_s"] += (end - start) - children
        return stats
