"""Span tracer that instruments ellipcmr from outside the package.

``Tracer.install`` wraps every public function and public method of each
ellipcmr module and rebinds the wrapper at every name a loaded ellipcmr module
holds it under (``from .theta import theta1`` makes ``cli.theta1`` its own
binding).  A module is a layer.  A call that crosses into a layer records a
span (name, start, end, parent); a call within the layer is only counted, so
a layer's time stays with the public function that entered it.  Private
helpers are not wrapped.  A layer's self time is its spans' time minus their
child spans.  Spans are kept in flat arrays in memory and written out with
``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

import numpy as np

def _count_terms(tr, i, args, kwargs, result):
    tr.size[i] = result


def _count_points(tr, i, args, kwargs, result):
    a = args[0] if args else next(iter(kwargs.values()), None)
    tr.size[i] = getattr(a, "size", 1)
    if getattr(a, "ndim", 0) == 2:
        tr.extra[i] = a.nbytes


def _count_entries(tr, i, args, kwargs, result):
    tr.size[i] = len(result.a)
    tr.extra[i] = sum(1 for n, k in result.a if n <= result.n_cap + k)


def _counter(layer: str, qualname: str, fn):
    """The hook that records a span's counts, for the names that have any."""
    if qualname == "TruncationPolicy.n_terms":
        return _count_terms
    if layer == "theta" and "." not in qualname:
        return _count_points
    if layer == "pseries" and qualname in ("solve_variant_I", "solve_variant_II"):
        return _count_entries
    sig = inspect.signature(fn)
    if layer == "transform" and ("cfg" in sig.parameters or "nodes" in sig.parameters):
        def count_nodes(tr, i, args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            cfg = bound.arguments.get("cfg")
            tr.size[i] = cfg.nodes if cfg is not None else bound.arguments["nodes"]
        return count_nodes
    return None


class Tracer:
    """Flat in-memory span store: name id, parent index, start, end, two counts."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []       # every call per name, inside a layer or into it
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("d")      # points, terms, nodes or entries, per span name
        self.extra = array("d")     # cross-matrix bytes or entries inside the window
        self._stack: list = []
        self._restore: list = []
        self.recording = False

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def begin(self, nid: int, layer: str) -> int:
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.t1.append(0.0)
        self.size.append(0.0)
        self.extra.append(0.0)
        self._stack.append((i, layer))
        self.t0.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str, qualname: str):
        nid = self.intern(f"{layer}.{qualname}")
        count = _counter(layer, qualname, fn)
        tracer = self
        calls, stack = self.calls, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            i = tracer.begin(nid, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if count is not None:
                count(tracer, i, args, kwargs, result)
            return result
        return wrapper

    def install(self, package) -> None:
        mods = [importlib.import_module(f"{package.__name__}.{m.name}")
                for m in pkgutil.iter_modules(package.__path__) if m.name != "__main__"]
        wrapped = {}                                  # id(original) -> (original, wrapper)
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in [package] + mods:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, layer, qual))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, qual)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # ---------------------------------------------------------------- analysis

    def columns(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.intc),
                "parent": np.frombuffer(self.parent, dtype=np.intc),
                "t0": np.frombuffer(self.t0), "t1": np.frombuffer(self.t1),
                "size": np.frombuffer(self.size), "extra": np.frombuffer(self.extra)}

    def dump(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self, layers, root_layer: str = "bench") -> dict:
        """Per-layer counts and self times from the recorded spans."""
        c = self.columns()
        n = len(c["t0"])
        dur = c["t1"] - c["t0"]
        par = c["parent"]
        has_par = par >= 0
        child = np.bincount(par[has_par], weights=dur[has_par], minlength=n)
        own = dur - child
        names = self.names
        name_layer = np.array([nm.split(".", 1)[0] for nm in names] or [""])
        layer = name_layer[c["name"]] if n else np.array([], dtype=str)
        par_layer = np.where(has_par, layer[np.where(has_par, par, 0)], "")

        def ids(short):
            return [i for i, nm in enumerate(names) if nm.endswith("." + short)]

        def by_name(short):
            return np.isin(c["name"], ids(short))

        def calls(short):
            return sum(self.calls[i] for i in ids(short))

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        m = {}
        for lay in layers:
            sel = layer == lay
            m[f"{lay}.self_s"] = float(own[sel].sum())
            m[f"{lay}.calls"] = int(np.count_nonzero(sel))
        nt = by_name("TruncationPolicy.n_terms")
        m["domain.n_terms.calls"] = calls("TruncationPolicy.n_terms")
        m["domain.n_terms.self_s"] = float(own[nt].sum())
        m["domain.n_terms.terms_mean"] = ratio(c["size"][nt].sum(), nt.sum())
        th = layer == "theta"
        m["theta.points"] = int(c["size"][th].sum())
        m["theta.points_per_call"] = ratio(m["theta.points"], m["theta.calls"])
        under_tf = th & (par_layer == "transform")
        m["transform.theta_s"] = float(dur[under_tf].sum())
        m["transform.cross_bytes"] = int(c["extra"][under_tf].sum())
        m["transform.nodes"] = int(c["size"][layer == "transform"].sum())
        m["bethe.jacobian_calls"] = calls("bethe_jacobian")
        m["bethe.residual_calls"] = calls("bethe_residuals")
        m["bethe.step_accept_ratio"] = ratio(m["bethe.jacobian_calls"],
                                             m["bethe.residual_calls"])
        solves = by_name("solve_variant_I") | by_name("solve_variant_II")
        m["pseries.solve_s"] = float(own[solves].sum())
        m["pseries.oracle_s"] = float(own[by_name("apply_L_series")].sum())
        m["pseries.entries"] = int(c["size"][solves].sum())
        m["pseries.useful_ratio"] = ratio(c["extra"][solves].sum(), m["pseries.entries"])
        roots = layer == root_layer
        m["trace.ops_s"] = float(dur[roots].sum())
        m["trace.layers_s"] = float(own.sum())
        m["trace.spans"] = n
        return m
