"""Span tracer for the benchmark's traced runs.

:class:`Tracer` wraps every public function of the thermalmimic layer modules
and records one span per call: name, start, end and the span that was open
when the call began (its parent). Each wrapper is installed under every name
a caller can look the function up by, so ``mimic.coherent_pure`` is traced as
well as ``fock.coherent_pure``, and ``tomo.fock_wavefunctions`` as well as
``homodyne.fock_wavefunctions``. The program's source is not touched.

A span's self time is its duration minus the durations of its direct
children. Self times of all spans add up to the durations of the root spans
(the ``cli.main`` calls); :func:`summarize` reports the difference as
``unaccounted_s`` and refuses spans that do not nest.

Two functions also report the work they did, computed from array sizes and
exact iteration counts (not measured hardware rates):

* ``homodyne.quadrature_pdf`` on a grid of G points with a dim-D state does
  G * D^2 complex multiply-adds (8 real flops each) and streams the G x D
  complex128 wavefunction array (16 bytes per entry) once.
* ``tomo.mle_reconstruct`` over K records at dimension D, per iteration, does
  at least one K x D^2 pass of the quadratic form p_k = d_k^H rho d_k and
  streams the K x D complex128 measurement matrix once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("fock", "mimic", "metrics", "homodyne", "tomo", "physical", "cli")

#: Real flops of one complex multiply-add, and bytes of one complex128 entry.
FLOPS_PER_CMAC = 8
BYTES_PER_COMPLEX = 16


def _pdf_work(args, kwargs, result) -> dict:
    rho = args[0] if args else kwargs["rho"]
    grid = getattr(result, "size", 1)
    dim = rho.cutoff + 1
    return {
        "homodyne.pdf_flops": FLOPS_PER_CMAC * grid * dim * dim,
        "homodyne.pdf_bytes": BYTES_PER_COMPLEX * grid * dim,
    }


def _mle_work(args, kwargs, result) -> dict:
    records = (args[0] if args else kwargs["data"]).count
    dim = result.rho.cutoff + 1
    return {
        "tomo.iterations": result.iterations,
        "tomo.unconverged": int(not result.converged),
        "tomo.kernel_flops": FLOPS_PER_CMAC * result.iterations * records * dim * dim,
        "tomo.kernel_bytes": BYTES_PER_COMPLEX * result.iterations * records * dim,
    }


WORK_PROBES = {
    "homodyne.quadrature_pdf": _pdf_work,
    "tomo.mle_reconstruct": _mle_work,
}


class Tracer:
    """Records spans of the layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.work = Counter()
        self._stack = []

    def _wrap(self, name: str, func):
        probe = WORK_PROBES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, None, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                self.work.update(probe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"thermalmimic.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in [importlib.import_module("thermalmimic"), *modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


def summarize(spans: list[list]) -> dict:
    """Per-function calls, self time and inclusive durations, per-layer self
    time, and the accounting of self times against the root spans."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if end is None:
            raise RuntimeError(f"span {name} never closed")
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                raise RuntimeError(f"span {name} lies outside its parent {spans[parent][0]}")
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    durations = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        own = (end - start) - child_time[index]
        calls[name] += 1
        self_s[name] += own
        durations[name].append(end - start)
        layer_self[name.split(".", 1)[0]] += own
        if parent is None:
            root_s += end - start
    return {
        "calls": calls,
        "self_s": self_s,
        "p50_s": {name: statistics.median(d) for name, d in durations.items()},
        "layer_self_s": layer_self,
        "root_s": root_s,
        "unaccounted_s": root_s - sum(layer_self.values()),
    }
