"""Span and count tracing of the package's layers, from outside the package.

Every public module-level function of each layer module is wrapped at every
name it is looked up under: its own module, each layer module that imported
it by name, and the package namespace.  ``partial_measure`` is thus timed
when ``channel`` calls it, but reported under the module that defines it,
as ``quantum.partial_measure``.  ``SeededGenerator`` gets counting-only
wrappers for built streams and drawn doubles.

A name that a later version of the package no longer defines is simply not
wrapped; its metrics come out absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "depqkd"
LAYERS = ("protocol", "quantum", "channel", "device", "cli", "states")
#: Exact counts besides the per-function ``.calls``.
COUNTS = ("quantum.draws", "quantum.generators")


class Tracer:
    def __init__(self) -> None:
        # qualified name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        # child time accumulated under each open span, innermost last
        self._open: list[float] = []
        # exact counts, present only once their wrappers are installed
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0

    def _span(self, fn, name: str):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        originals: dict[object, str] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
            modules.append(mod)
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    originals[obj] = f"{layer}.{name}"
        wrappers = {fn: self._span(fn, name) for fn, name in originals.items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
        self._count_draws(modules)

    def _count_draws(self, modules) -> None:
        quantum = next((m for m in modules if m.__name__.endswith(".quantum")), None)
        gen_cls = getattr(quantum, "SeededGenerator", None)
        if gen_cls is None:
            return
        counts = self.counts
        draws, generators = COUNTS
        counts[generators] = 0
        init = gen_cls.__init__

        def counted_init(gen, *args, **kwargs):
            counts[generators] += 1
            init(gen, *args, **kwargs)

        self._set(gen_cls, "__init__", counted_init)
        if not (hasattr(gen_cls, "uniform") and hasattr(gen_cls, "uniforms")):
            return
        counts[draws] = 0
        uniform, uniforms = gen_cls.uniform, gen_cls.uniforms

        def counted_uniform(gen):
            counts[draws] += 1
            return uniform(gen)

        def counted_uniforms(gen, n):
            counts[draws] += int(n)
            return uniforms(gen, n)

        self._set(gen_cls, "uniform", counted_uniform)
        self._set(gen_cls, "uniforms", counted_uniforms)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def metrics(self) -> dict[str, float]:
        """Every traced quantity since the last reset, times in ms."""
        out: dict[str, float] = dict(self.counts)
        for name, (calls, total, own) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = total * 1000.0
            out[f"{name}.self_ms"] = own * 1000.0
        return out
