"""Span tracing of localmq from outside the package.

`Tracer.install()` replaces every public function and every public
method of the localmq modules with a wrapper that records a span (name,
start, end, parent) and, for a few boundaries, counts of the work done.
Functions are wrapped at every name a caller looks them up by: the
defining module, each module that bound the name at import (for example
`localmq.learners.l2_test`), the package namespace, and module-level
dicts that hold them (`cli._ALGOS`, `verify.SUITES`). A handful of
private helpers in `learners` are wrapped too, because they are the
boundaries of the estimate and regression layers.

Spans stay in memory and are written out by `write()`. Each span name
maps to a layer; a layer's self time is the time its spans cover minus
the time their child spans in other layers cover. Spans opened inside a
verifier (`verify.run_lemma_suite`, or the benchmark's own exact check)
are not recorded: the verifier owns its whole subtree.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "cli",
    "distributions",
    "fourier",
    "generators",
    "learners",
    "noise",
    "oracles",
    "reduction",
    "separation",
    "targets",
    "verify",
)

# Private helpers that mark layer boundaries inside the learners.
PRIVATE_BOUNDARIES = {
    "learners": ("_grow", "_estimate_coeffs", "_holdout_errors", "_regress_hypothesis"),
}

# span name -> layer; the learn_* functions form learners.learn, and
# names not listed fall into their module's bucket.
LAYERS = {
    "distributions.Distribution.sample_batch": "distributions.sample_batch",
    "targets.SparsePolynomial.value_batch": "targets.value_batch",
    "targets.DecisionTree.value_batch": "targets.value_batch",
    "targets.DnfFormula.value_batch": "targets.value_batch",
    "noise.NoiseWrapper.zeta_batch": "noise.zeta_batch",
    "noise.noisy_nonzero_test": "noise.noisy_nonzero_test",
    "oracles.OracleSession.local_query_matrix": "oracles.local_query_matrix",
    "oracles.OracleSession.draw_batch": "oracles.draw_batch",
    "oracles.OracleSession.local_query": "oracles.local_query",
    "oracles.OracleSession.write_audit_jsonl": "oracles.write_audit_jsonl",
    "fourier.restriction_values_pm": "fourier.restriction",
    "fourier.restriction_values_01": "fourier.restriction",
    "learners._grow": "learners.learn",
    "learners._estimate_coeffs": "learners.estimate",
    "learners._holdout_errors": "learners.estimate",
    "learners._regress_hypothesis": "learners.constrained_regression",
    "learners.constrained_regression": "learners.constrained_regression",
    "learners.project_l1": "learners.constrained_regression",
    "reduction.ReductionSimulator.draw_batch": "reduction.draw_batch",
    "reduction.ReductionSimulator.local_query": "reduction.local_query",
    "reduction.LinearCode.min_distance_batch": "reduction.min_distance_batch",
    "separation.PrfTarget.value_batch": "separation.value_batch",
    "verify.run_lemma_suite": "verify.run_lemma_suite",
    "verify.exact_check": "verify.exact_check",
    "cli.main": "cli.main",
}

# Layers whose spans own everything below them.
OWNERS = frozenset({"verify.run_lemma_suite", "verify.exact_check"})

# Evaluation helpers that belong to whichever layer called them.
INHERIT = frozenset({"fourier.char_values", "fourier.FourierSpectrum.value_batch"})

def _count_admission(counts, args, kwargs, result) -> None:
    subset = int(args[1] if len(args) > 1 else kwargs["subset"])
    counts["fourier.tests"] += 1
    counts["fourier.admitted"] += int(bool(result.passed))
    counts["fourier.test_queries"] += int(result.samples) << bin(subset).count("1")


def _count_audit(counts, args, kwargs, result) -> None:
    fh = args[1] if len(args) > 1 else kwargs["fh"]
    counts["oracles.audit_records"] += int(result)
    counts["oracles.audit_bytes"] += int(fh.tell())


# span name -> hook(counts, args, kwargs, result), run after a call returns
POST_HOOKS = {
    "distributions.Distribution.sample_batch": lambda c, a, k, r: c.update(
        {"distributions.sample_batch.points": int(np.size(r))}
    ),
    "noise.NoiseWrapper.zeta_batch": lambda c, a, k, r: c.update(
        {"noise.zeta_batch.points": int(np.size(r))}
    ),
    "separation.PrfTarget.value_batch": lambda c, a, k, r: c.update(
        {"separation.value_batch.points": int(np.size(r))}
    ),
    "oracles.OracleSession.draw_batch": lambda c, a, k, r: c.update(
        {"oracles.ex": int(r[0].size)}
    ),
    "oracles.OracleSession.local_query_matrix": lambda c, a, k, r: c.update(
        {"oracles.mq": int(np.size(r))}
    ),
    "oracles.OracleSession.local_query": lambda c, a, k, r: c.update({"oracles.mq": 1}),
    "oracles.OracleSession.write_audit_jsonl": _count_audit,
    "learners.project_l1": lambda c, a, k, r: c.update({"learners.regression_iters": 1}),
    "reduction.LinearCode.min_distance_batch": lambda c, a, k, r: c.update(
        {"reduction.words_tested": int(np.size(r))}
    ),
    "fourier.l2_test": _count_admission,
    "fourier.nonzero_test": _count_admission,
    "noise.noisy_nonzero_test": _count_admission,
}
for _name in LAYERS:
    if _name.startswith("targets.") and _name.endswith(".value_batch"):
        POST_HOOKS[_name] = lambda c, a, k, r: c.update(
            {"targets.value_batch.points": int(np.size(r))}
        )


def _kept(sim) -> int:
    return sum(sim.try_histogram.values())


# span name -> (pre(args) -> state, post(counts, args, state)); for counts
# that need the object's state before and after the call
PRE_POST_HOOKS = {
    "reduction.ReductionSimulator.draw_batch": (
        lambda a: _kept(a[0]),
        lambda c, a, before: c.update({"reduction.words_kept": _kept(a[0]) - before}),
    ),
}


class Tracer:
    """Records spans in flat arrays; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")
        self._stack: list[int] = []
        self._suppress = 0
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, object, object]] = []

    # ----------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _layer_for(self, name: str) -> int:
        if self._stack and name in INHERIT:
            return self.span_layer[self._stack[-1]]
        if name.startswith("learners.learn_"):
            return self._layer_id("learners.learn")
        return self._layer_id(LAYERS.get(name, name.split(".", 1)[0]))

    def _open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_layer.append(self._layer_for(name))
        self.span_child.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        if LAYERS.get(name) in OWNERS:
            self._suppress += 1
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        parent = self.span_parent[idx]
        if parent >= 0:
            self.span_child[parent] += end - self.span_start[idx]
        if LAYERS.get(name) in OWNERS:
            self._suppress -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, name)

    # ----------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str):
        tracer = self
        post = POST_HOOKS.get(name)
        pre_post = PRE_POST_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._suppress:
                return fn(*args, **kwargs)
            state = pre_post[0](args) if pre_post else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each error once, at the span that raised it
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    layer = tracer.layers[tracer.span_layer[idx]]
                    tracer.counts[f"errors.{layer}.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(idx, name)
            if post is not None:
                post(tracer.counts, args, kwargs, result)
            if pre_post is not None:
                pre_post[1](tracer.counts, args, state)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the localmq modules; undo with `uninstall()`."""
        package = importlib.import_module("localmq")
        modules = {name: importlib.import_module(f"localmq.{name}") for name in MODULES}
        wrapped: dict[int, object] = {}

        def wrapper_for(fn, name):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)
            return wrapped[id(fn)]

        def home(fn) -> str | None:
            mod = getattr(fn, "__module__", "") or ""
            short = mod.rsplit(".", 1)[-1]
            return short if mod.startswith("localmq.") and short in modules else None

        # functions, at their definition and at every import-time binding
        namespaces = [package, *modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if not inspect.isfunction(value) or home(value) is None:
                    continue
                short = home(value)
                public = not value.__name__.startswith("_")
                if public or value.__name__ in PRIVATE_BOUNDARIES.get(short, ()):
                    self._patch(ns, attr, wrapper_for(value, f"{short}.{value.__name__}"))
        # module-level dispatch tables
        for ns in modules.values():
            for value in list(vars(ns).values()):
                if isinstance(value, dict):
                    for key, fn in list(value.items()):
                        if inspect.isfunction(fn) and id(fn) in wrapped:
                            self._dict_patches.append((value, key, fn))
                            value[key] = wrapped[id(fn)]
        # public methods of the classes each module defines
        for short, mod in modules.items():
            for cls in list(vars(mod).values()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for attr, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and not attr.startswith("_"):
                        self._patch(cls, attr, self._wrap(value, f"{short}.{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for table, key, fn in reversed(self._dict_patches):
            table[key] = fn
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self._dict_patches.clear()

    # ----------------------------------------------------------- results

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span duration minus child-span time."""
        out: dict[str, float] = {}
        start, end, child, layer = self.span_start, self.span_end, self.span_child, self.span_layer
        for i in range(len(self.span_name)):
            key = self.layers[layer[i]]
            out[key] = out.get(key, 0.0) + (end[i] - start[i] - child[i])
        return out

    def calls(self) -> dict[str, int]:
        counts = Counter(self.span_name)
        return {self.names[i]: n for i, n in counts.items()}

    def write(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tlayer\tstart_s\tend_s\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.layers[self.span_layer[i]]}\t"
                    f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n"
                )
        return len(self.span_name)
