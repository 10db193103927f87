"""Span tracer installed around rotalab's public functions from outside.

The tracer wraps, in memory only, every public function and public
method of the package's modules, the registered checks, and the
`numpy.linalg` functions when the package calls them. No source file is
edited: each name is patched where it is looked up (module globals,
including names imported into other modules' namespaces, class
attributes, and the check registry), and `uninstall` puts every original
back.

Recording rules, which define the per-layer numbers:

* A call is recorded when it enters a layer from another layer. Calls a
  layer makes to its own public functions run unrecorded inside the
  caller's span, so `<layer>.calls` counts boundary crossings.
* The hot leaves in `HOT_LEAVES` are recorded on every call, also from
  inside their own layer, because they are the units of work of the
  evaluator layers.
* A recorded call that made no recorded calls itself, and every hot
  leaf, is folded into per-function totals on its parent span when it
  ran on its parent's thread, instead of becoming a span of its own, so
  memory grows with the number of spans that have children, not with
  the number of calls.
* The evaluator closures that `APairValued` holds are wrapped when the
  evaluator is built, so the work of a pairing defined in `duality` is
  counted in `duality` even though `bimodules` calls it.
* Self time is CPU time of the thread that made the call
  (`time.thread_time`) minus that of its children on the same thread.
  Wall time would count, for each of the check pool's threads, the time
  it waits for the interpreter lock while another thread runs. Work a
  native library hands to its own threads (BLAS) is not in the calling
  thread's CPU time. Span start and end are wall-clock times.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = (
    "scalars",
    "sampling",
    "groupoids",
    "nctorus",
    "oscillator",
    "closedform",
    "bimodules",
    "duality",
    "ktheory",
    "checks",
    "cli",
)
LINALG = "linalg"
HOT_LEAVES = frozenset(
    {
        ("closedform", "GaussSum1.__call__"),
        ("bimodules", "ZTRFunction.eval_at"),
        ("bimodules", "TRFunction.eval_at"),
        ("nctorus", "lambda_power"),
    }
)
# operators that are the public API of the value types
DUNDERS = frozenset(
    {
        "__call__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__neg__",
        "__matmul__",
        "__eq__",
    }
)


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    data = getattr(value, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def _terms(value) -> int:
    terms = getattr(value, "terms", None)
    return len(terms) if isinstance(terms, tuple) else 0


def _points(args) -> int:
    return getattr(args[1], "size", 1) if len(args) > 1 else 0


def _input_bytes(args) -> int:
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray))


class _Frame:
    __slots__ = ("layer", "name", "span_id", "parent", "thread", "start", "cpu", "child_cpu", "children", "aggs")

    def __init__(self, layer, name, span_id, parent, thread):
        self.layer = layer
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.thread = thread
        self.child_cpu = 0.0
        self.children = False
        self.aggs = None


class Tracer:
    """Records spans of one process; install, run ops, uninstall, summarise."""

    def __init__(self):
        self.spans = []
        self.raised = 0
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack = None
        self._patches = []
        self._raise_lock = threading.Lock()

    # ---- stack --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id, label):
        """One benchmark op: the root span of the calls made inside it."""
        self.op_id = op_id
        self._op_stack = self._stack()
        self._push("bench", label)
        try:
            yield
        finally:
            self._pop(None, None, None, leaf=False)
            self._op_stack = None

    def _push(self, layer, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        frame = _Frame(layer, name, next(self._ids), parent, threading.get_ident())
        stack.append(frame)
        frame.start = time.perf_counter()
        frame.cpu = time.thread_time()

    def _pop(self, measure, args, result, leaf):
        cpu_end = time.thread_time()
        end = time.perf_counter()
        frame = self._stack().pop()
        cpu = cpu_end - frame.cpu
        parent = frame.parent
        amount = measure(args, result) if measure is not None else 0
        if parent is not None:
            parent.children = True
        if parent is not None and parent.thread == frame.thread:
            parent.child_cpu += cpu
            if leaf or not frame.children:
                aggs = parent.aggs
                if aggs is None:
                    aggs = parent.aggs = {}
                _accumulate(aggs, (frame.layer, frame.name), 1, cpu - frame.child_cpu, amount)
                for key, totals in (frame.aggs or {}).items():
                    _accumulate(aggs, key, *totals)
                return
        self.spans.append(
            {
                "id": frame.span_id,
                "parent": parent.span_id if parent is not None else None,
                "op": self.op_id,
                "thread": frame.thread,
                "layer": frame.layer,
                "fn": frame.name,
                "start": frame.start,
                "end": end,
                "self_cpu": cpu - frame.child_cpu,
                "amount": amount,
                "aggs": frame.aggs,
            }
        )

    # ---- wrappers -----------------------------------------------------

    def _wrap(self, layer, name, fn, measure=None):
        leaf = (layer, name) in HOT_LEAVES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not leaf and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            if not stack and tracer._op_stack is None:
                return fn(*args, **kwargs)
            tracer._push(layer, name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                with tracer._raise_lock:
                    tracer.raised += 1
                raise
            finally:
                tracer._pop(measure, args, result, leaf)

        return wrapper

    def _wrap_linalg(self, name, fn):
        inner = self._wrap(LINALG, name, fn, lambda args, result: _input_bytes(args))

        @functools.wraps(fn)
        def from_package(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("rotalab."):
                return inner(*args, **kwargs)
            return fn(*args, **kwargs)

        return from_package

    @staticmethod
    def _measure_for(layer, name):
        if name == "GaussSum1.__call__":
            return lambda args, result: _points(args)
        if layer in ("oscillator", "nctorus"):
            return lambda args, result: _array_bytes(result)
        if layer == "closedform":
            return lambda args, result: _terms(result)
        return None

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the package's public names; `package` is the imported rotalab."""
        modules = {name: getattr(package, name) for name in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(layer, attr, obj, self._measure_for(layer, attr))
                    replaced[id(obj)] = wrapped
                    self._set(module, attr, wrapped)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._install_class(layer, obj)
        # names imported into other modules resolve to the same originals
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, attr, replaced[id(obj)])
        self._install_evaluators(package.bimodules.APairValued)
        registry = package.checks._REGISTRY
        self._registry = (registry, {suite: list(items) for suite, items in registry.items()})
        for suite, items in registry.items():
            items[:] = [(cid, self._wrap("checks", cid, fn)) for cid, fn in items]
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not inspect.isclass(fn):
                self._set(np.linalg, name, self._wrap_linalg(name, fn))

    def _install_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(layer, name, value.__func__, self._measure_for(layer, name)))
            elif inspect.isfunction(value):
                wrapped = self._wrap(layer, name, value, self._measure_for(layer, name))
            else:
                continue
            self._set(cls, attr, wrapped)

    def _install_evaluators(self, cls):
        """Wrap the evaluator closure each APairValued holds.

        The closures built by pair_module_inner, base_inner and
        transformed_inner do the evaluation work when `value` is called;
        wrapping them at construction puts that work in the layer whose
        module defined them.
        """
        tracer = self
        original = cls.__init__

        @functools.wraps(original)
        def init(self, fn, *args, **kwargs):
            layer = fn.__module__.rsplit(".", 1)[-1]
            if layer in LAYERS and tracer._op_stack is not None:
                fn = tracer._wrap(layer, fn.__qualname__, fn)
            original(self, fn, *args, **kwargs)

        self._set(cls, "__init__", init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        registry, saved = self._registry
        for suite, items in saved.items():
            registry[suite][:] = items

    # ---- results ------------------------------------------------------

    def write(self, path):
        """Write every kept span as one JSON line, threads renumbered 0.."""
        threads = {}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = dict(span)
                row["thread"] = threads.setdefault(span["thread"], len(threads))
                row["aggs"] = [
                    {"layer": layer, "fn": fn, "calls": c, "self_cpu": s, "amount": a}
                    for (layer, fn), (c, s, a) in (span["aggs"] or {}).items()
                ]
                handle.write(json.dumps(row) + "\n")

    def summary(self) -> dict:
        """Per-layer and per-function totals over every recorded call.

        `fanouts` lists, for each span with children on other threads,
        its wall time, the summed duration of those children and the
        set of their threads.
        """
        by_id = {span["id"]: span for span in self.spans}
        fanouts = {}
        for span in self.spans:
            parent = by_id.get(span["parent"])
            if parent is not None and parent["thread"] != span["thread"]:
                fan = fanouts.setdefault(parent["id"], [parent["end"] - parent["start"], 0.0, set()])
                fan[1] += span["end"] - span["start"]
                fan[2].add(span["thread"])
        layers = {}
        functions = {}

        def add(layer, fn, calls, self_s, amount):
            entry = layers.setdefault(layer, [0, 0.0, 0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += amount
            entry = functions.setdefault((layer, fn), [0, 0.0, 0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += amount

        for span in self.spans:
            add(span["layer"], span["fn"], 1, span["self_cpu"], span["amount"])
            for (layer, fn), (calls, self_cpu, amount) in (span["aggs"] or {}).items():
                add(layer, fn, calls, self_cpu, amount)
        return {"layers": layers, "functions": functions, "fanouts": list(fanouts.values())}


def _accumulate(aggs, key, calls, self_cpu, amount):
    totals = aggs.get(key)
    if totals is None:
        aggs[key] = [calls, self_cpu, amount]
    else:
        totals[0] += calls
        totals[1] += self_cpu
        totals[2] += amount


# per-layer metric -> (unit, better); the names are BENCHMARK.json's per_layer
PER_LAYER = {
    "scalars.calls": ("count", "lower"),
    "scalars.self_s": ("s", "lower"),
    "groupoids.calls": ("count", "lower"),
    "groupoids.self_s": ("s", "lower"),
    "sampling.calls": ("count", "lower"),
    "sampling.self_s": ("s", "lower"),
    "oscillator.calls": ("count", "lower"),
    "oscillator.self_s": ("s", "lower"),
    "oscillator.matrix_bytes": ("B", "lower"),
    "linalg.calls": ("count", "lower"),
    "linalg.self_s": ("s", "lower"),
    "linalg.input_bytes": ("B", "lower"),
    "nctorus.calls": ("count", "lower"),
    "nctorus.self_s": ("s", "lower"),
    "nctorus.matrix_bytes": ("B", "lower"),
    "nctorus.lambda_power.calls": ("count", "lower"),
    "closedform.calls": ("count", "lower"),
    "closedform.self_s": ("s", "lower"),
    "closedform.terms_built": ("count", "lower"),
    "closedform.eval1.calls": ("count", "lower"),
    "closedform.eval1.points_per_call": ("points", "higher"),
    "closedform.restrict_line.calls": ("count", "lower"),
    "bimodules.calls": ("count", "lower"),
    "bimodules.self_s": ("s", "lower"),
    "bimodules.eval_at.calls": ("count", "lower"),
    "bimodules.pair_value.calls": ("count", "lower"),
    "duality.calls": ("count", "lower"),
    "duality.self_s": ("s", "lower"),
    "ktheory.calls": ("count", "lower"),
    "ktheory.self_s": ("s", "lower"),
    "checks.calls": ("count", "lower"),
    "checks.self_s": ("s", "lower"),
    "checks.threads": ("count", "lower"),
    "checks.concurrency": ("ratio", "higher"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.raised": ("count", "lower"),
}


def per_layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric, as a per-op mean over `ops` traced ops.

    `checks.threads` is the largest number of threads one check pool
    used; `checks.concurrency` is the pools' busy child time over their
    wall time; `points_per_call` is points evaluated per GaussSum1 call.
    """
    summary = tracer.summary()
    layers, functions = summary["layers"], summary["functions"]
    values = {}
    for layer in LAYERS + (LINALG,):
        calls, self_s, amount = layers.get(layer, (0, 0.0, 0))
        values[f"{layer}.calls"] = calls / ops
        values[f"{layer}.self_s"] = self_s / ops
        values[f"{layer}.amount"] = amount / ops

    def fn_total(layer, *names, index=0):
        return sum(functions.get((layer, name), (0, 0.0, 0))[index] for name in names)

    eval1_calls = fn_total("closedform", "GaussSum1.__call__")
    eval1_points = fn_total("closedform", "GaussSum1.__call__", index=2)
    values["oscillator.matrix_bytes"] = values["oscillator.amount"]
    values["nctorus.matrix_bytes"] = values["nctorus.amount"]
    values["linalg.input_bytes"] = values["linalg.amount"]
    values["closedform.terms_built"] = values["closedform.amount"] - eval1_points / ops
    values["nctorus.lambda_power.calls"] = fn_total("nctorus", "lambda_power") / ops
    values["closedform.eval1.calls"] = eval1_calls / ops
    values["closedform.eval1.points_per_call"] = eval1_points / eval1_calls if eval1_calls else 0.0
    values["closedform.restrict_line.calls"] = fn_total("closedform", "GaussSum2.restrict_line") / ops
    values["bimodules.eval_at.calls"] = fn_total("bimodules", "ZTRFunction.eval_at", "TRFunction.eval_at") / ops
    values["bimodules.pair_value.calls"] = fn_total("bimodules", "APairValued.value") / ops
    fanouts = summary["fanouts"]
    values["checks.threads"] = max((len(threads) for _, _, threads in fanouts), default=0)
    wall = sum(w for w, _, _ in fanouts)
    values["checks.concurrency"] = sum(busy for _, busy, _ in fanouts) / wall if wall else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.raised"] = tracer.raised / ops
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
