"""Spans around the public functions of each risnoma module, recorded from
outside the library.

Tracer.install() replaces every public function of the layer modules (and
the public methods of OutageModel and LinkChannel) by a wrapper that records
one span per call: name, parent span, start and end. Every binding a caller
uses is patched, including names imported with `from ... import` and the
package-level re-exports. Spans stay in memory in flat arrays and are written
out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layers, lowest first.
LAYERS = ("special_math", "environment", "channels", "noma", "ruom", "sim_oracle", "expcli")
TRACED_METHODS = {"noma": ("OutageModel",), "channels": ("LinkChannel",)}


def _draws(size) -> int:
    return 1 if size is None else int(np.prod(size))


def _count_sample_nakagami(counters, stack_names, args, kwargs, result):
    counters["gamma_draws"] += _draws(kwargs.get("size", args[2] if len(args) > 2 else None))


def _count_pgs(counters, stack_names, args, kwargs, result):
    counters["pgs.candidates"] += len(result)
    counters["pgs.empty_calls"] += not result


def _count_ruom(counters, stack_names, args, kwargs, result):
    counters["ruom.iterations"] += result.iterations


def _count_parent_cdf(counters, stack_names, args, kwargs, result):
    model, n_elements = args[0], args[2] if len(args) > 2 else kwargs["n_elements"]
    if model.link_type != "direct" and n_elements >= 1:
        counters["fit_lookups"] += 1


def _count_mc_noma_outage(counters, stack_names, args, kwargs, result):
    if "expcli.run_sweep_links" in stack_names():
        counters["sweep_rank_estimates"] += len(result)


def _count_sweep_links(counters, stack_names, args, kwargs, result):
    counters["sweep_mc_cells"] += sum(row[5] is not None for row in result)


HOOKS = {
    "sim_oracle.sample_nakagami": _count_sample_nakagami,
    "ruom.pgs": _count_pgs,
    "ruom.ruom": _count_ruom,
    "noma.OutageModel.parent_cdf": _count_parent_cdf,
    "sim_oracle.mc_noma_outage": _count_mc_noma_outage,
    "expcli.run_sweep_links": _count_sweep_links,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters = Counter()
        self._stack = []
        self._patches = []

    def stack_names(self):
        return [self.names[self.name_id[i]] for i in self._stack]

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        hook, counters, stack_names = HOOKS.get(name), self.counters, self.stack_names

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, stack_names, args, kwargs, result)
            return result

        return span

    def install(self):
        """Wrap every public function of each layer, and patch every binding."""
        modules = [m for name, m in sys.modules.items()
                   if name == "risnoma" or name.startswith("risnoma.")]
        replace = {}
        for layer in LAYERS:
            # sys.modules, not attribute access: risnoma.ruom is the function.
            mod = importlib.import_module(f"risnoma.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replace[fn] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name in TRACED_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        self._patches.append((cls, attr, fn))
                        setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replace[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start_ns=np.asarray(self.start),
            end_ns=np.asarray(self.end),
        )

    def summary(self):
        """Per-span-name calls, inclusive and self seconds, and span-tree views."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (np.asarray(self.end) - np.asarray(self.start)) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        incl = np.bincount(nid, weights=dur, minlength=n_names)
        self_s = np.bincount(nid, weights=dur - child, minlength=n_names)
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        return SpanSummary(self.names, calls, incl, self_s, nid, parent_nid, dur)


class SpanSummary:
    def __init__(self, names, calls, incl, self_s, nid, parent_nid, dur):
        self._index = {name: i for i, name in enumerate(names)}
        self.names, self.calls, self.incl, self.self_s = names, calls, incl, self_s
        self._nid, self._parent_nid, self._dur = nid, parent_nid, dur
        self.spans = int(nid.size)

    def get(self, name, what="calls"):
        i = self._index.get(name)
        return 0 if i is None else getattr(self, what)[i].item()

    def layer_self_s(self, layer) -> float:
        return sum(s for name, s in zip(self.names, self.self_s.tolist())
                   if name.split(".", 1)[0] == layer)

    def under(self, name, parent):
        """Calls and seconds of spans `name` whose direct parent span is `parent`."""
        i, j = self._index.get(name), self._index.get(parent)
        if i is None or j is None:
            return 0, 0.0
        mask = (self._nid == i) & (self._parent_nid == j)
        return int(mask.sum()), float(self._dur[mask].sum())
