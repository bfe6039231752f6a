"""Layer tracing from outside the program.

`Tracer.install` replaces each public recmono function at the module
attribute its callers look up with a timing wrapper: in the caller's
namespace for a name it imported (`recmono.cli.build_report`), in the
home module for a module it imported (`report` calls
`oracle.check_p2_window`, so `recmono.oracle.check_p2_window`).  Only
calls that cross a module boundary are timed on their own, so a layer
is a module and a call inside one module stays in that module's self
time; the one exception is the per-cell membership tests, which
`rasterize` looks up in its own module.  Operator calls on `QuadElem`
values count toward the module that makes them.

A wrapped call keeps one stack frame.  Its self time is its duration
minus the durations of the wrapped calls directly under it, so for each
operation the self times of all its calls sum to the root call's
duration exactly.  Most calls also record a span (operation, id, parent
id, name, start, end); calls made once per raster cell only add to their
counters, which keeps a traced raster run small in memory.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "report", "decisions", "oracle", "recurrence", "riccati",
          "qfield", "regions", "numtheory")

# (module, function) wrapped where their own module looks them up
INTRA_MODULE = {("regions", "contains_coeff_plane"), ("regions", "contains_root_plane")}
# called once per cell or per comparison: counted, no span each
AGGREGATED = {"qfield.cmp_abs", "regions.contains_coeff_plane", "regions.contains_root_plane"}


class Tracer:
    def __init__(self):
        self.spans = []  # (op, id, parent, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.observers = {}  # name -> callable(result), for counts read from results
        self._stack = [[0.0, None]]  # [child time, span id]; bottom is a sentinel
        self._next_id = 0
        self._op = None
        self._op_self = self._op_root = 0.0
        self._patches = []

    def wrap(self, fn, name):
        stack, span = self._stack, name not in AGGREGATED
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                self._next_id += 1
                frame = [0.0, self._next_id]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                parent[0] += duration
                own = duration - frame[0]
                self.calls[name] += 1
                self.self_s[name] += own
                self.total_s[name] += duration
                self._op_self += own
                if parent is stack[0]:
                    self._op_root += duration
                if span:
                    self.spans.append((self._op, frame[1], parent[1], name, start, end))
            observe = self.observers.get(name)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of `package`'s layer modules."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        public = {}
        for layer, mod in modules.items():
            for fname in getattr(mod, "__all__", ()):
                obj = getattr(mod, fname)
                if inspect.isfunction(obj):
                    public[obj] = f"{layer}.{fname}"
        # modules some other layer imports whole, calling through them
        imported_whole = {layer for layer, mod in modules.items()
                          if any(mod in vars(other).values()
                                 for other in modules.values() if other is not mod)}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = public.get(obj) if inspect.isfunction(obj) else None
                if name is None:
                    continue
                home, fname = name.split(".", 1)
                if (home == layer and layer not in imported_whole
                        and (home, fname) not in INTRA_MODULE):
                    continue
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, name))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def begin_op(self, op: int) -> None:
        self._op, self._op_self, self._op_root = op, 0.0, 0.0

    def end_op(self) -> tuple[float, float]:
        """(sum of all self times, sum of root-call durations) of the operation."""
        return self._op_self, self._op_root

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
