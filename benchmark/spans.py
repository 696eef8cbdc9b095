"""Span tracing around the package's public names, from outside the package.

``Tracer.install`` replaces each listed binding (a module attribute or a
class attribute) with a wrapper that records one span per call: name,
operation id, parent span, start and end.  Bindings are wrapped where the
package looks them up, e.g. ``slsctrl.isls.build_stacked`` is the name
``isls_optimize`` calls, so spans nest the way the calls do.  A binding that
no longer exists is an error naming every missing one: a renamed function
must not silently drop out of the per-layer figures.
"""

from __future__ import annotations

import importlib
import time


class MissingBinding(RuntimeError):
    """A name the tracer is asked to wrap does not exist."""


def _resolve(path):
    """'pkg.mod:Class.attr' or 'pkg.mod:attr' -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(attr)
    return owner, attr


class Tracer:
    """In-memory span recorder; spans are (name, op, parent, start, end)."""

    def __init__(self):
        self.spans = []
        self.sizes = []          # (name, op, value) computed at span end
        self.active = False
        self.op = None
        self._stack = []
        self._patched = []

    def install(self, bindings, measures=None):
        """Wrap every binding; ``bindings`` maps 'module:attr' -> span name.

        ``measures`` maps a span name to a function of the call's result
        that returns a size to record with the span.
        """
        measures = measures or {}
        resolved, missing = [], []
        for path, name in bindings.items():
            try:
                resolved.append((_resolve(path), name))
            except (ImportError, AttributeError):
                missing.append(path)
        if missing:
            raise MissingBinding("cannot wrap missing name(s): " + ", ".join(missing))
        for (owner, attr), name in resolved:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, measures.get(name)))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, measure):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (name, tracer.op, parent, start, end)
            if measure is not None:
                tracer.sizes.append((name, tracer.op, measure(result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def per_op(self):
        """{op: {name: [self seconds, calls]}} with self = span minus children."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, (name, op, parent, start, end) in enumerate(self.spans):
            rec = out.setdefault(op, {}).setdefault(name, [0.0, 0])
            rec[0] += (end - start) - child[sid]
            rec[1] += 1
        return out

    def write(self, path):
        """All spans as CSV: id,name,op,parent,start,end."""
        with open(path, "w") as fh:
            fh.write("id,name,op,parent,start,end\n")
            for sid, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{name},{op},{parent},{start:.9f},{end:.9f}\n")
