"""In-memory span tracing of the ``lise`` package from outside it.

:class:`Tracer` wraps every public function of the package's layer modules
(and ``SystemModel.step``) and rebinds the wrapper wherever the original is
looked up: the defining module, every module that bound it with
``from .x import y``, the package namespace, and module-level dicts that hold
it as a value (such as ``simulate._INITS`` and ``simulate._STEPS``, filled at
import).  Each call records one span (name, parent span, start, end) in flat
arrays; self time is derived afterwards from the parent links.  Nothing in the
package's files is edited, and :meth:`Tracer.remove` undoes every rebinding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "config", "model", "decomposition", "linalg", "filters",
          "structural", "signals", "simulate")


class Tracer:
    """Records spans into the current pass; see :meth:`start_pass`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._undo: list = []
        self.passes: list[dict] = []
        self._cur = None
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def start_pass(self):
        self._cur = {"name": array("i"), "parent": array("i"),
                     "t0": array("d"), "t1": array("d")}
        self.passes.append(self._cur)
        del self._stack[1:]

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cur = self._cur
            i = len(cur["t0"])
            cur["name"].append(nid)
            cur["parent"].append(stack[-1])
            cur["t1"].append(0.0)
            stack.append(i)
            cur["t0"].append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                cur["t1"][i] = clock()
                stack.pop()

        return traced

    def root_wrapper(self, name: str, fn):
        """``fn`` wrapped as one benchmark operation: a span with no parent."""
        return self._wrap(fn, name)

    def install(self, package) -> "Tracer":
        """Wrap the public functions of every layer module of ``package``."""
        mods = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and obj not in wrappers):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
        model_cls = sys.modules[f"{package.__name__}.model"].SystemModel
        orig_step = model_cls.__dict__["step"]
        model_cls.step = self._wrap(orig_step, "model.step")
        self._undo.append((functools.partial(setattr, model_cls), "step", orig_step))

        def wrapped(obj):
            return inspect.isfunction(obj) and obj in wrappers

        for mod in mods + [package]:
            for attr, obj in list(vars(mod).items()):
                if wrapped(obj):
                    setattr(mod, attr, wrappers[obj])
                    self._undo.append((functools.partial(setattr, mod), attr, obj))
                elif isinstance(obj, dict) and attr != "__builtins__":
                    for key, val in list(obj.items()):
                        if wrapped(val):
                            obj[key] = wrappers[val]
                            self._undo.append((obj.__setitem__, key, val))
        return self

    def remove(self):
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()

    def pass_arrays(self, index: int):
        p = self.passes[index]
        return (np.array(p["name"], dtype=np.int64), np.array(p["parent"], dtype=np.int64),
                np.array(p["t0"], dtype=np.float64), np.array(p["t1"], dtype=np.float64))

    def summarize(self, index: int) -> "PassSummary":
        return PassSummary(self.names, *self.pass_arrays(index))

    def save(self, path: str):
        """Write every recorded span, one array per field plus a pass index."""
        cols = [self.pass_arrays(i) for i in range(len(self.passes))]
        fields = [np.concatenate([c[j] for c in cols]) for j in range(4)]
        pass_index = np.concatenate([np.full(c[0].shape, i) for i, c in enumerate(cols)])
        np.savez_compressed(path, names=np.array(self.names), name=fields[0],
                            parent=fields[1], t0=fields[2], t1=fields[3],
                            pass_index=pass_index)


class PassSummary:
    """Per-name call counts, inclusive time and self time of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children (spans are strictly nested: one thread, one caller).
    Inclusive time counts only the outermost span of each name, so a function
    reached again below itself is not counted twice.
    """

    def __init__(self, names, name, parent, t0, t1):
        self.names = list(names)
        self.name = name
        self.parent = parent
        self.dur = t1 - t0
        child = np.zeros_like(self.dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        n = len(self.names)
        self.outer = self._outermost()
        self.calls = np.bincount(name, minlength=n)
        self.self_by_name = np.bincount(name, weights=self.self_time, minlength=n)
        self.incl_by_name = np.bincount(name, weights=self.dur * self.outer, minlength=n)

    def _outermost(self) -> np.ndarray:
        # ancestor name sets, built top-down: parents always precede children
        keep = np.ones(self.name.shape, dtype=bool)
        ancestors: list = [None] * len(self.name)
        empty = frozenset()
        for i, (nm, p) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            above = ancestors[p] if p >= 0 else empty
            if nm in above:
                keep[i] = False
                ancestors[i] = above
            else:
                ancestors[i] = above | {nm}
        return keep

    def _idx(self, name: str):
        return self.names.index(name) if name in self.names else None

    def count(self, name: str) -> int:
        i = self._idx(name)
        return 0 if i is None else int(self.calls[i])

    def incl(self, name: str) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self.incl_by_name[i])

    def self_s(self, name: str) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self.self_by_name[i])

    def layer_self(self, layer: str) -> float:
        return float(sum(self.self_by_name[i] for i, n in enumerate(self.names)
                         if n.startswith(layer + ".")))

    def incl_via(self, name: str, callers: dict) -> dict:
        """Inclusive time of ``name`` split by its nearest ancestor that one of
        the ``callers`` predicates (label -> predicate on a span name) accepts."""
        out = {label: 0.0 for label in callers}
        i = self._idx(name)
        if i is None:
            return out
        for s in np.flatnonzero((self.name == i) & self.outer):
            p = self.parent[s]
            while p >= 0:
                pname = self.names[self.name[p]]
                label = next((lab for lab, pred in callers.items() if pred(pname)), None)
                if label is not None:
                    out[label] += float(self.dur[s])
                    break
                p = self.parent[p]
        return out
