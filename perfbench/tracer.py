"""Outside-in tracing of gibbsim: wraps the public functions of each module.

Modules import functions by name (`from .numkernel import trace_distance`),
so a wrapper is installed on every module binding of the function it wraps,
and methods are wrapped on their class.  Spans nest through one stack; a
span's self time is its duration minus the durations of the spans it
encloses.  Spans are aggregated per name in memory: calls, total and self
seconds.  Single-threaded use only (the benchmark runs `--threads 1`).
"""

import dataclasses
import functools
import inspect
import time
from contextlib import contextmanager

LAYERS = ("numkernel", "model", "jumps", "liouville", "dynamics", "circuit", "noisefit", "chaos", "cli")
MARK = "_perfbench_traced"


class Tracer:
    def __init__(self, package, result_hooks=None):
        """result_hooks maps a span name to fn(result) -> {counter: amount}."""
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self._hooks = result_hooks or {}
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    def _record(self, name, duration):
        child = self._stack.pop()
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1] += duration

    @contextmanager
    def span(self, name):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, time.perf_counter() - start)

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._record(name, time.perf_counter() - start)
            if hook is not None:
                for key, amount in hook(result).items():
                    self.counters[key] = self.counters.get(key, 0) + amount
            return result

        setattr(traced, MARK, True)
        return traced

    def _targets(self):
        """(span name, owner class or None, attribute, function) to wrap."""
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", None, attr, obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in vars(obj).items():
                        if not inspect.isfunction(fn):
                            continue
                        if meth == "__init__" and not dataclasses.is_dataclass(obj):
                            yield f"{layer}.{attr}", obj, meth, fn
                        elif not meth.startswith("_"):
                            yield f"{layer}.{attr}.{meth}", obj, meth, fn

    def install(self):
        bindings = [self.package, *self.modules]
        for name, owner, attr, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            if owner is not None:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in bindings:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def leftover_wrappers(self):
        """Names still bound to a wrapper; empty after uninstall()."""
        left = []
        for module in [self.package, *self.modules]:
            for key, value in vars(module).items():
                if getattr(value, MARK, False):
                    left.append(f"{module.__name__}.{key}")
                if inspect.isclass(value):
                    left += [
                        f"{module.__name__}.{key}.{m}"
                        for m, fn in vars(value).items()
                        if getattr(fn, MARK, False)
                    ]
        return left
