"""Per-layer tracing from outside the program.

Each traced function is replaced by a wrapper wherever a caller looks its
name up: the class attribute for a method, and every souschef module global
that refers to the same function object (``grammar.match`` as well as
``features.match``).  Spans (name, start, end, parent, run id) stay in
memory and are written as JSONL when the benchmark ends.

Three wrapper kinds keep the overhead where it can be afforded:

* ``span``  -- one span per call; calls, total time and self time.
* ``timed`` -- calls and total time, no span kept (``Bindings.bind``: 0.75 M
  calls in one recipes cycle).
* ``count`` -- calls only (``unify``: 10 M calls in the same cycle).

Self time is a span's duration minus the time of the traced calls made
inside it, ``timed`` ones included; ``count`` calls stay in their caller's
self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """targets: (module, qualname, kind, observe) tuples for install()."""

    def __init__(self, targets=()):
        self.targets = list(targets)
        self.spans: list = []      # (name, start, end, parent index, run id)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)   # time of traced callees, per name
        self.counters = defaultdict(int)  # extra counts from observers
        self.run_id = 0
        self._stack: list = []     # [name, span index or None, child time]
        self._undo: list = []

    # -- installing wrappers --------------------------------------------------

    def install(self, module, qualname: str, kind: str = "span",
                observe=None) -> None:
        """Wrap module.<qualname> ("f" or "Class.method") at every lookup site.

        observe(tracer, args, kwargs, result) runs after each call and may
        add to tracer.counters.
        """
        owner = module
        parts = qualname.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p)
        attr = parts[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"
        wrapper = self._wrap(original, name, kind, observe)
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("souschef"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        sites.append((mod, key))
        for site, key in sites:
            self._undo.append((site, key, original))
            setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()

    @contextlib.contextmanager
    def active(self):
        """Every target wrapped inside the block, none outside it."""
        for target in self.targets:
            self.install(*target)
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn, name, kind, observe):
        calls, total, child, stack = self.calls, self.total, self.child, \
            self._stack
        spans = self.spans

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        keep = kind == "span"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else None
            idx = None
            if keep:
                idx = len(spans)
                pidx = parent[1] if parent is not None else None
                spans.append([name, 0.0, 0.0, pidx, self.run_id])
            frame = [name, idx, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                total[name] += dur
                child[name] += frame[2]
                if parent is not None:
                    parent[2] += dur
                if keep:
                    spans[idx][1], spans[idx][2] = start, end
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return traced

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """<module>.<function>.<calls|total_ms|self_ms> for every wrapper."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            if name in self.total:
                out[f"{name}.total_ms"] = self.total[name] * 1e3
                out[f"{name}.self_ms"] = \
                    (self.total[name] - self.child[name]) * 1e3
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")
