"""Span tracing of the calls into ``qcontour``, from outside the program.

Every public function of a ``qcontour`` module is wrapped by rebinding its
name in each ``qcontour.*`` module that holds it: modules import names
directly (``from .dynamics import propagate``), so wrapping only the
defining module would miss their calls.  Class constructors and the public
methods a class defines are wrapped on the class itself.  ``numpy.linalg.eigh``
is counted (not timed) while tracing, as ``dynamics.eigh``.  ``restore``
puts every original back.

Spans live in memory as parallel lists (name, parent span, unit, start,
end) and are written out once, when the run ends.  Self time is a span's
duration minus the durations of its direct children.

The hooks on ``propagate`` and ``delta_psi`` only keep their arguments;
keys are made in ``summary``, so hashing adds nothing to any span.  A
schedule is keyed by identity and kept alive, so its id is never reused; a
history is keyed by content (times, states, labels), so the distinct count
holds whether the program reuses history objects or builds them afresh.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "qcontour"
#: modules whose public functions are traced; each is one layer
MODULES = ("linalg", "contour", "dynamics", "histories", "measure", "oracle",
           "envariance", "models", "cli")


def _content(obj):
    """A hashable key for a value made of arrays, dataclasses and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(_content(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, tuple(
            _content(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return obj


def _targets():
    """(span name, owner, attribute) for every traced callable."""
    out = []
    for mod_name in MODULES:
        module = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if module is None:  # a later version may drop or rename a module
            continue
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__",
                                               None) != module.__name__:
                continue
            if inspect.isfunction(value):
                out.append((f"{mod_name}.{attr}", module, attr))
            elif inspect.isclass(value):
                for meth, fn in vars(value).items():
                    if not inspect.isfunction(fn):
                        continue
                    if meth == "__init__":
                        out.append((f"{mod_name}.{attr}", value, meth))
                    elif meth == "__contains__" or not meth.startswith("_"):
                        out.append((f"{mod_name}.{attr}.{meth}", value, meth))
    return out


class Tracer:
    """Wraps the program's callables and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_unit: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.unit = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.eigh_calls = 0
        self.propagate_args: list[tuple] = []
        self.delta_psi_args: list[tuple] = []
        self.chain_branches = 0

    def _wrap(self, index: int, fn, hook=None):
        names, parents = self.span_name, self.span_parent
        units, starts, ends = self.span_unit, self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            units.append(self.unit)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = start
                stack.pop()
            if hook is not None:
                hook((*args, *kwargs.values()), result)
            return result

        return traced

    def _on_propagate(self, args, result):
        self.propagate_args.append((self.unit, *args[:3]))

    def _on_delta_psi(self, args, result):
        self.delta_psi_args.append((self.unit, args[0]))

    def _on_chain(self, args, result):
        self.chain_branches += len(result.outcomes)

    def install(self) -> None:
        hooks = {"dynamics.propagate": self._on_propagate,
                 "measure.delta_psi": self._on_delta_psi,
                 "oracle.sequential_chain": self._on_chain}
        wrappers = {}
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            self.names.append(name)
            wrapper = self._wrap(len(self.names) - 1, original,
                                 hooks.get(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                wrappers[id(original)] = (original, wrapper)
        # rebind names imported directly into other modules
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or
                                      mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            self.eigh_calls += 1
            return eigh(*args, **kwargs)

        self._saved.append((np.linalg, "eigh", eigh))
        np.linalg.eigh = counted_eigh

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self):
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.span_parent, dtype=np.int64),
                np.array(self.span_unit, dtype=np.int32),
                np.array(self.span_start), np.array(self.span_end))

    def write(self, path: Path) -> None:
        name, parent, unit, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, unit=unit, start=start, end=end)

    def summary(self, units: int) -> dict[str, float]:
        """Per-unit calls and self seconds, per function and per module."""
        name, parent, _, start, end = self.arrays()
        duration = end - start
        child = np.zeros(duration.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        calls = np.bincount(name, minlength=len(self.names))
        self_by_name = np.bincount(name, weights=self_time,
                                   minlength=len(self.names))
        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for i, fn in enumerate(self.names):
            out[f"{fn}.calls"] = calls[i] / units
            out[f"{fn}.self_s"] = self_by_name[i] / units
            module_self[fn.split(".")[0]] += self_by_name[i] / units
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
        out["dynamics.eigh.calls"] = self.eigh_calls / units
        propagate_keys = {(unit, id(sched), float(t_a), float(t_b))
                          for unit, sched, t_a, t_b in self.propagate_args}
        out["dynamics.propagate.distinct_ratio"] = (
            len(propagate_keys) / len(self.propagate_args)
            if self.propagate_args else 0.0)
        history_keys = {(unit, _content(h)) for unit, h in self.delta_psi_args}
        out["measure.delta_psi.per_history"] = (
            len(self.delta_psi_args) / len(history_keys)
            if history_keys else 0.0)
        out["oracle.sequential_chain.branches"] = self.chain_branches / units
        return out
