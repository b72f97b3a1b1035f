"""Span tracing of the mixconc modules, installed from outside the package.

`Tracer.install()` wraps every function and class method defined in the
traced modules (plus a few numpy/scipy entry points) and rebinds every
``mixconc`` namespace that holds the same object, so calls made through
``from .x import f`` copies are seen too.  Nothing under ``src/`` changes;
`uninstall()` puts every original back.

A span is ``(name, layer, start, end, parent)`` with ``parent`` the index of
the enclosing span in the same buffer (-1 for a root).  Spans stay in memory;
the caller writes them out at exit.  A layer's self time is the duration of
its spans minus the time covered by their direct children.
"""

import functools
import inspect
import sys
import time
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor

#: traced module -> layer name (metric names may not start with "_").
LAYERS = {
    "mixconc.datagen": "datagen",
    "mixconc._admm": "admm",
    "mixconc.estimators": "estimators",
    "mixconc.sieves": "sieves",
    "mixconc.tuning": "tuning",
    "mixconc.experiments": "experiments",
    "mixconc.lattice": "lattice",
    "mixconc.cli": "cli",
}

#: numpy/scipy entry points counted per calling layer: (module, attribute).
ENTRY_POINTS = {
    "lstsq": ("numpy.linalg", "lstsq"),
    "lsq_linear": ("scipy.optimize", "lsq_linear"),
    "linprog": ("scipy.optimize", "linprog"),
}

#: the tracer whose wrappers are installed; pool children read it (fork).
_ACTIVE = None


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent]
        self.stack = []
        self.counts = Counter()  # (layer, counter) -> count
        self.foreign = []        # (parent span, batch) recorded in other processes
        self._undo = []          # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def reset(self):
        self.spans, self.stack, self.foreign = [], [], []
        self.counts = Counter()

    def call(self, fn, name, layer, hook, hook_sig, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][3] = time.perf_counter()
            self.stack.pop()
        if hook is not None:
            hook(self, hook_sig.bind(*args, **kwargs), result)
        return result

    def current_layer(self) -> str:
        return self.spans[self.stack[-1]][1] if self.stack else "outside"

    def export(self) -> dict:
        """Picklable copy of what was recorded; call it with no span open."""
        return {"spans": [tuple(s) for s in self.spans],
                "counts": dict(self.counts), "foreign": list(self.foreign)}

    def absorb(self, batch: dict, parent: int = -1) -> None:
        """Keep a batch recorded in another process (pool child, worker) on
        behalf of span `parent` of this process (-1: none)."""
        self.foreign.append((parent, batch))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        replaced = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and _defined_in(obj, mod):
                    replaced[id(obj)] = (obj, self._wrap(obj, layer))
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, mod, layer)
        for key, (modname, attr) in ENTRY_POINTS.items():
            original = getattr(sys.modules[modname], attr)
            replaced[id(original)] = (original, self._count_wrap(original, key))
        pool = sys.modules["mixconc.experiments"].ProcessPoolExecutor
        replaced[id(pool)] = (pool, _TracedPool)
        # rebind every namespace that holds one of the originals
        owners = [m for name, m in list(sys.modules.items())
                  if name == "mixconc" or name.startswith("mixconc.")]
        owners += [sys.modules[m] for m, _ in ENTRY_POINTS.values()]
        for mod in owners:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        _ACTIVE = None

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, layer):
        name = f"{fn.__module__}.{fn.__qualname__}"
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(fn, name, layer, hook, sig, args, kwargs)
        return wrapper

    def _count_wrap(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.current_layer(), key)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_class(self, cls, mod, layer):
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, (staticmethod, classmethod)):
                if _defined_in(obj.__func__, mod):
                    self._set(cls, attr, type(obj)(self._wrap(obj.__func__, layer)))
            elif isinstance(obj, property):
                if obj.fget is not None and _defined_in(obj.fget, mod):
                    self._set(cls, attr, property(self._wrap(obj.fget, layer),
                                                  obj.fset, obj.fdel, obj.__doc__))
            elif inspect.isfunction(obj) and _defined_in(obj, mod):
                self._set(cls, attr, self._wrap(obj, layer))


def _defined_in(fn, mod) -> bool:
    """True for code written in the module's source file (not generated by
    dataclasses, not imported from elsewhere)."""
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == getattr(mod, "__file__", None)


# ---------------------------------------------------------------------------
# counters that need a call's arguments or result


def _admm_sweeps(tracer, bound, result):
    bound.apply_defaults()
    tracer.counts[("admm", "sweeps")] += int(bound.arguments["iters"]) \
        * int(bound.arguments["X"].shape[0])


def _simplex_outcome(tracer, bound, result):
    tracer.counts[("admm", "simplex_stalls")] += result is None


HOOKS = {
    "mixconc._admm.admm_batch": _admm_sweeps,
    "mixconc._admm.simplex_polish": _simplex_outcome,
}


# ---------------------------------------------------------------------------
# process pools: children return their spans with each result


def _child_call(fn, args, kwargs):
    tracer = _ACTIVE
    if tracer is None:           # started without the parent's tracer
        return fn(*args, **kwargs), None
    tracer.reset()
    result = fn(*args, **kwargs)
    return result, tracer.export()


class _TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that counts its start-ups and brings the spans of
    every task back into the parent's tracer."""

    def __init__(self, *args, **kwargs):
        _ACTIVE.counts[("experiments", "pool_starts")] += 1
        super().__init__(*args, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        inner = super().submit(_child_call, fn, args, kwargs)
        outer = Future()
        tracer = _ACTIVE
        parent = tracer.stack[-1] if tracer.stack else -1

        def done(fut):
            try:
                result, batch = fut.result()
            except BaseException as exc:    # handed to the caller's future
                outer.set_exception(exc)
                return
            if batch is not None:
                tracer.absorb(batch, parent)
            outer.set_result(result)
        inner.add_done_callback(done)
        return outer


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans, attached=()) -> list[float]:
    """Per-span self time: duration minus the time covered by its children.

    Children are the spans naming it as parent plus `attached`
    ``(parent, start, end)`` intervals, the root spans of work it handed to
    other processes; those may overlap, so the covered time is their union.
    """
    covered = [[] for _ in spans]
    for s in spans:
        if s[4] >= 0:
            covered[s[4]].append((s[2], s[3]))
    for parent, start, end in attached:
        if parent >= 0:
            covered[parent].append((start, end))
    return [s[3] - s[2] - _union(s[2], s[3], iv) for s, iv in zip(spans, covered)]


def _union(lo, hi, intervals) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _batches(record: dict):
    yield record
    for _, child in record["foreign"]:
        yield from _batches(child)


def _attached(record: dict):
    return [(parent, s[2], s[3]) for parent, child in record["foreign"]
            for s in child["spans"] if s[4] < 0]


def layer_metrics(record: dict) -> dict:
    """Per-layer self time, call counts and counters from an exported record
    (its own spans plus every batch absorbed from other processes)."""
    self_s, calls, counts = Counter(), Counter(), Counter()
    named = Counter()
    for batch in _batches(record):
        spans = batch["spans"]
        for s, own in zip(spans, self_times(spans, _attached(batch))):
            self_s[s[1]] += own
            calls[s[1]] += 1
            named[s[0]] += 1
            if s[0] == "mixconc._admm.objective_batch" and _inside(
                    spans, s, "mixconc._admm.polish_vertex_batch"):
                counts[("admm", "vertex_candidates")] += 1
        for key, value in batch["counts"].items():
            counts[tuple(key)] += value
    out = {}
    for layer in LAYERS.values():
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    simplex = named["mixconc._admm.simplex_polish"]
    stalls = counts[("admm", "simplex_stalls")]
    out.update({
        "datagen.substreams": named["mixconc.datagen.substream"],
        "admm.sweeps": counts[("admm", "sweeps")],
        "admm.vertex_candidates": counts[("admm", "vertex_candidates")],
        "admm.simplex_calls": simplex,
        "admm.simplex_stalls": stalls,
        "admm.simplex_success_ratio": (simplex - stalls) / simplex if simplex else 0.0,
        "estimators.certificates":
            named["mixconc.estimators.subgradient_residual"]
            + named["mixconc.estimators.gradient_residual_squared"],
        "estimators.box_ls_solves": _entry_total(counts, "lsq_linear"),
        "estimators.lp_solves": _entry_total(counts, "linprog"),
        "sieves.design_calls": named["mixconc.sieves.SieveBasis.design"],
        "experiments.lstsq_calls": counts[("experiments", "lstsq")],
        "experiments.pool_starts": counts[("experiments", "pool_starts")],
    })
    return out


def _entry_total(counts, key) -> int:
    """Calls of an entry point made from inside any traced layer."""
    return sum(v for (layer, k), v in counts.items()
               if k == key and layer != "outside")


def _inside(spans, span, name) -> bool:
    parent = span[4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False
