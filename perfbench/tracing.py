"""Layer-boundary spans around the public functions of defectwalk.

The tracer replaces every public function of the five defectwalk modules
(``cli``, ``walk``, ``series``, ``spectral``, ``limits``) with a wrapper,
in every module namespace that binds it, and restores the originals on
``uninstall``.  The program itself is not edited.

A span is recorded only where a call crosses a layer boundary: from the
benchmark into a module, or from one module into another.  Calls inside one
module (``time_average`` calling ``step``, ``psi_origin`` calling
``psi_origin_sequence``) pass straight through, so each span is one call
into its layer and a layer's self time is the time spent in its own code.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "walk", "series", "spectral", "limits")


class Tracer:
    """Spans of one traced pass, kept in memory until ``collect``.

    ``work`` maps a qualified function name (``"walk.evolve"``) to a function
    of the call's bound arguments that returns a work count for the span,
    such as the number of walk steps the call requests.
    """

    def __init__(self, package, work=None):
        self._package = package
        self._work = dict(work or {})
        self.names = []       # qualified name per function id
        self.layers = []      # layer per function id
        self.spans = []       # (fid, start, end, parent, failed, work)
        self._open = []       # (span index, layer) of the spans now open
        self._patches = []    # (namespace, attribute, original)

    def install(self):
        modules = [getattr(self._package, layer) for layer in LAYERS]
        namespaces = [self._package] + modules
        for layer, module in zip(LAYERS, modules):
            for attr, func in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(func, layer, f"{layer}.{attr}")
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is func:
                            self._patches.append((ns, name, func))
                            setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, func in reversed(self._patches):
            setattr(ns, name, func)
        self._patches.clear()

    def _wrap(self, func, layer, qualname):
        fid = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter
        count = self._work.get(qualname)
        signature = inspect.signature(func) if count else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if open_spans and open_spans[-1][1] == layer:
                return func(*args, **kwargs)
            work = 0
            if count is not None:
                work = count(signature.bind(*args, **kwargs).arguments)
            parent = open_spans[-1][0] if open_spans else -1
            index = len(spans)
            spans.append(None)
            open_spans.append((index, layer))
            failed = True
            start = clock()
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (fid, start, end, parent, failed, work)

        return traced

    def collect(self):
        """Fold the recorded spans into per-layer and per-function totals
        and clear them.

        Returns ``(layers, functions)``: ``layers[name]`` has ``calls`` and
        ``self_s``; ``functions[qualname]`` has ``calls``, ``s`` (inclusive
        time), ``errors`` (spans that raised) and ``work``.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        functions = {
            name: {"calls": 0, "s": 0.0, "errors": 0, "work": 0}
            for name in self.names
        }
        for i, (fid, start, end, _, failed, work) in enumerate(self.spans):
            layer = layers[self.layers[fid]]
            layer["calls"] += 1
            layer["self_s"] += (end - start) - child_s[i]
            fn = functions[self.names[fid]]
            fn["calls"] += 1
            fn["s"] += end - start
            fn["errors"] += failed
            fn["work"] += work
        self.spans.clear()
        return layers, functions
