"""Spans around the public functions of lorentz_embed, installed from outside.

install() wraps every public function defined in the traced modules and
rebinds each wrapper wherever a module of the package holds the original
(montecarlo and cli import these names directly, so patching the defining
module alone would miss their calls). It also counts the numpy generators
built by RandomStream and its subclasses. The package's code is unchanged.

A span records its name, its parent span, start and end perf_counter()
readings, the rise of the process's peak RSS during the call, and the work
counts below. Spans stay in memory until dump().

Work counts per span ("columns", "entries", "entries_sorted"): the column
count and n * m of the (n, m) matrix passed in, and the part of those
entries the function sorts -- all of them for grad_functional_columns, all
but the Euclidean case IVb for sharp_norm_columns, and none for
lorentz_norm_columns when its weights are constant (it skips the sort then).
"""

import functools
import inspect
import resource
import sys
import time

import numpy as np

TRACED_MODULES = ("norms", "sharp", "embedding", "montecarlo", "cli")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _matrix_counts(X, sorted_: bool) -> dict:
    if np.ndim(X) != 2:
        return {}  # the function itself rejects such input
    n, m = np.shape(X)
    return {"columns": m, "entries": n * m, "entries_sorted": n * m if sorted_ else 0}


def _count_lorentz_norm_columns(params, X):
    w = params.weight_values()
    return _matrix_counts(X, sorted_=bool(w[-1] != w[0]))


def _count_sharp_norm_columns(spec, X):
    return _matrix_counts(X, sorted_=spec.case != "IVb")


def _count_grad_functional_columns(r, p, X):
    return _matrix_counts(X, sorted_=True)


COUNTERS = {
    "norms.lorentz_norm_columns": _count_lorentz_norm_columns,
    "sharp.sharp_norm_columns": _count_sharp_norm_columns,
    "sharp.grad_functional_columns": _count_grad_functional_columns,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, rss rise, counts]
        self.open = []   # indices of the spans now running, innermost last
        self.generators = 0

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = counter(*args, **kwargs) if counter else {}
            index = len(self.spans)
            parent = self.open[-1] if self.open else -1
            span = [name, parent, 0.0, 0.0, 0.0, counts]
            self.spans.append(span)
            self.open.append(index)
            rss = _maxrss_mb()
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[4] = _maxrss_mb() - rss
                self.open.pop()
        return wrapper

    def count_generators(self, method):
        @functools.wraps(method)
        def wrapper(stream):
            self.generators += 1
            return method(stream)
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "generators": self.generators}


def install() -> Tracer:
    tracer = Tracer()
    package = {name: mod for name, mod in sys.modules.items()
               if name == "lorentz_embed" or name.startswith("lorentz_embed.")}
    for short in TRACED_MODULES:
        module = package["lorentz_embed." + short]
        for attr, fn in vars(module).copy().items():
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            wrapped = tracer.wrap(f"{short}.{attr}", fn)
            for holder in package.values():
                for key, value in vars(holder).copy().items():
                    if value is fn:
                        setattr(holder, key, wrapped)
    stream_cls = package["lorentz_embed.streams"].RandomStream
    for cls in [stream_cls] + stream_cls.__subclasses__():
        if "generator" in vars(cls):
            cls.generator = tracer.count_generators(vars(cls)["generator"])
    return tracer
