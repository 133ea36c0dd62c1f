"""Span tracer that times seqgauss from outside the package.

``Tracer.install()`` replaces each function named in ``TARGETS`` by a
timing wrapper, in its defining module and in every loaded ``seqgauss``
module that imported it by name (``seqgauss.wick.inner_a``,
``seqgauss.chaos.kernel_inner_a``, ``seqgauss.cli.solve_closure``, ...).
``uninstall()`` puts every original back, so passes run outside the
traced window see the unmodified program.

Each call records one span ``[name, start, end, parent, pass_id]`` in an
in-memory list; nothing is written until the run ends.  A span's self
time is its duration minus the durations of its child spans (calls are
single-threaded and nest, so children never overlap).  ``pass_metrics``
folds the spans and counters of one pass into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _n_samples(w) -> int:
    shape = np.shape(w)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _count_csv_bytes(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" not in argv:
        return {}
    return {"cli.csv_bytes": os.path.getsize(argv[argv.index("--out") + 1])}


def _count_step(args, kwargs, result):
    return {"closure.step_calls": 1, "closure.cell_steps": result.values.shape[0]}


def _count_covariance(args, kwargs, result):
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    return {"core.covariance_calls": 1, "core.covariance_max_dim": np.shape(matrix)[0]}


def _count_gram_schmidt(args, kwargs, result):
    vectors = args[0] if args else kwargs["vectors"]
    return {"core.gs_given": len(vectors), "core.gs_kept": len(result)}


def _count_hermite(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"hermite.prob_calls": 1, "hermite.prob_points": np.size(x)}


def _count_kernel_inner(args, kwargs, result):
    k1, k2 = args[0], args[1]
    pairs = len(k1.terms) * len(k2.terms)
    if not pairs:
        return {}
    m, d = k1.dims
    # Direct per-pair formula: G @ A (2 m d^2), the Frobenius sum (2 m d),
    # the n-th power and the coefficient product and accumulate (n + 2).
    flops = pairs * (2 * m * d * d + 2 * m * d + k1.degree + 2)
    return {"wick.kernel_inner_pairs": pairs, "wick.kernel_inner_flops": flops}


def _count_wick_eval(args, kwargs, result):
    kernel, w = args[0], (args[2] if len(args) > 2 else kwargs["w"])
    return {"wick.eval_term_samples": len(kernel.terms) * _n_samples(w)}


def _count_sample(args, kwargs, result):
    return {"measure.samples_drawn": result.count}


def _count_run_suite(args, kwargs, result):
    return {
        "verify.checks": len(result),
        "verify.checks_failed": sum(not r.passed for r in result),
    }


def _calls(name):
    return lambda args, kwargs, result: {name: 1}


# (module, attribute path, span name, counter).  The attribute path is a
# module-level function, ``Class.method``, or ``dict_name[key]`` for the
# suite table that ``verify.run_suite`` looks suites up in.
TARGETS = [
    ("seqgauss.cli", "main", "cli.main", _count_csv_bytes),
    ("seqgauss.serialize", "load_document", "serialize.load_document", None),
    ("seqgauss.serialize", "load_closure_config", "serialize.load_closure_config", None),
    ("seqgauss.closure", "solve_closure", "closure.solve_closure", None),
    ("seqgauss.closure", "step", "closure.step", _count_step),
    ("seqgauss.closure", "closed_advection_matrix", "closure.closed_advection_matrix",
     _calls("closure.advection_builds")),
    ("seqgauss.core", "Covariance.__init__", "core.Covariance", _count_covariance),
    ("seqgauss.core", "inner_a", "core.inner_a", _calls("core.inner_a_calls")),
    ("seqgauss.core", "norm_a", "core.norm_a", None),
    ("seqgauss.core", "gram_schmidt", "core.gram_schmidt", _count_gram_schmidt),
    ("seqgauss.core", "gram_schmidt_a", "core.gram_schmidt_a", None),
    ("seqgauss.hermite", "hermite_prob", "hermite.hermite_prob", _count_hermite),
    ("seqgauss.wick", "kernel_inner_a", "wick.kernel_inner_a", _count_kernel_inner),
    ("seqgauss.wick", "wick_eval", "wick.wick_eval", _count_wick_eval),
    ("seqgauss.wick", "wick_dense_tensor", "wick.wick_dense_tensor", None),
    ("seqgauss.wick", "wick_dense_closed_form", "wick.wick_dense_closed_form", None),
    ("seqgauss.wick", "dense_inner_a", "wick.dense_inner_a", None),
    ("seqgauss.wick", "dense_from_kernel", "wick.dense_from_kernel", None),
    ("seqgauss.measure", "sample_mu_a", "measure.sample_mu_a", _count_sample),
    ("seqgauss.measure", "isserlis_moment", "measure.isserlis_moment",
     _calls("measure.isserlis_calls")),
    ("seqgauss.measure", "pushforward_check", "measure.pushforward_check", None),
    ("seqgauss.chaos", "ConditioningSet.from_vectors", "chaos.ConditioningSet.from_vectors", None),
    ("seqgauss.chaos", "cond_exp_chaos", "chaos.cond_exp_chaos", None),
    ("seqgauss.chaos", "project_onto_set", "chaos.project_onto_set",
     _calls("chaos.project_calls")),
    ("seqgauss.chaos", "chaos_inner", "chaos.chaos_inner", None),
    ("seqgauss.chaos", "chaos_norm", "chaos.chaos_norm", None),
    ("seqgauss.chaos", "eval_expansion", "chaos.eval_expansion", None),
    ("seqgauss.verify", "run_suite", "verify.run_suite", _count_run_suite),
] + [
    ("seqgauss.verify", f"_SUITES[{suite}]", f"verify.suite.{suite}", None)
    for suite in ("core", "hermite", "wick", "measure", "chaos", "closure")
]

# Per-layer time metrics: the summed self time of the listed spans.
SELF_TIME_METRICS = {
    "cli.self_s": ["cli.main"],
    "serialize.load_s": ["serialize.load_document", "serialize.load_closure_config"],
    "closure.solve_s": ["closure.solve_closure"],
    "closure.step_s": ["closure.step", "closure.closed_advection_matrix"],
    "core.covariance_s": ["core.Covariance"],
    "core.inner_a_s": ["core.inner_a", "core.norm_a"],
    "core.gram_schmidt_s": ["core.gram_schmidt", "core.gram_schmidt_a"],
    "hermite.prob_s": ["hermite.hermite_prob"],
    "wick.kernel_inner_s": ["wick.kernel_inner_a"],
    "wick.eval_s": ["wick.wick_eval"],
    "wick.dense_oracle_s": [
        "wick.wick_dense_tensor", "wick.wick_dense_closed_form",
        "wick.dense_inner_a", "wick.dense_from_kernel",
    ],
    "measure.sample_s": ["measure.sample_mu_a"],
    "measure.isserlis_s": ["measure.isserlis_moment"],
    "measure.pushforward_s": ["measure.pushforward_check"],
    "chaos.condset_s": ["chaos.ConditioningSet.from_vectors"],
    "chaos.cond_exp_s": ["chaos.cond_exp_chaos", "chaos.project_onto_set"],
    "chaos.inner_s": ["chaos.chaos_inner", "chaos.chaos_norm"],
    "chaos.eval_s": ["chaos.eval_expansion"],
}

# Per-layer time metrics that are inclusive: the span's whole duration.
INCLUSIVE_METRICS = {"cli.main_s": "cli.main"} | {
    f"verify.suite_s.{suite}": f"verify.suite.{suite}"
    for suite in ("core", "hermite", "wick", "measure", "chaos", "closure")
}

COUNT_METRICS = [
    "cli.csv_bytes", "closure.step_calls", "closure.advection_builds",
    "closure.cell_steps", "core.covariance_calls", "core.covariance_max_dim",
    "core.inner_a_calls", "hermite.prob_calls", "hermite.prob_points",
    "wick.kernel_inner_pairs", "wick.kernel_inner_flops", "wick.eval_term_samples",
    "measure.samples_drawn", "measure.isserlis_calls", "chaos.project_calls",
    "verify.checks", "verify.checks_failed",
]
MAX_COUNTERS = {"core.covariance_max_dim"}
RATIO_METRICS = {
    "closure.rebuild_ratio": ("closure.advection_builds", "closure.step_calls"),
    "core.gs_kept_ratio": ("core.gs_kept", "core.gs_given"),
}

ROOT_SPAN = "bench.pass"


def _resolve(module_name: str, path: str):
    """Return (getter, setter) for a traced attribute path."""
    module = importlib.import_module(module_name)
    if path.endswith("]"):
        table_name, key = path[:-1].split("[")
        table = getattr(module, table_name)
        return (lambda: table[key]), (lambda value: table.__setitem__(key, value))
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        return (lambda: cls.__dict__[attr]), (lambda value: setattr(cls, attr, value))
    return (lambda: getattr(module, path)), None


class Tracer:
    """Wraps the traced functions and records spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.pass_id = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts = self.counts[self.pass_id]
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = max(counts[key], value) if key in MAX_COUNTERS else counts[key] + value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        in ``missing`` and reads as zero."""
        for module_name, path, name, counter in TARGETS:
            try:
                get, set_ = _resolve(module_name, path)
                original = get()
            except (AttributeError, KeyError, ValueError):
                self.missing.add(f"{module_name}:{path}")
                continue
            if set_ is not None:
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, counter))
                else:
                    wrapped = self._wrap(name, original, counter)
                set_(wrapped)
                self._restore.append((set_, original))
                continue
            wrapped = self._wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "seqgauss" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append(
                            (lambda v, m=mod, a=attr: setattr(m, a, v), original)
                        )

    def uninstall(self) -> None:
        while self._restore:
            set_, original = self._restore.pop()
            set_(original)

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Install the wrappers and record one root span around the pass."""
        self.pass_id = pass_id
        self.install()
        try:
            root = [ROOT_SPAN, perf_counter(), 0.0, -1, pass_id]
            self.spans.append(root)
            self._stack.append(len(self.spans) - 1)
            try:
                yield
            finally:
                root[2] = perf_counter()
                self._stack.pop()
        finally:
            self.uninstall()

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Duration and self time of every span, in recording order."""
        if not self.spans:
            return np.zeros(0), np.zeros(0)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return duration, duration - child

    def pass_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every traced pass, keyed by pass id.

        Besides the named metrics each pass carries ``pass_s`` (the root
        span), ``self.<span name>`` and ``incl.<span name>`` (self and
        inclusive time) for every span name, and ``inclusive:<metric>``
        for every self-time metric: the time covered by its spans and
        their children, each nested call of the same metric counted once.
        """
        duration, self_time = self.self_times()
        metric_of = {n: m for m, names in SELF_TIME_METRICS.items() for n in names}
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, dur, own in zip(self.spans, duration, self_time):
            metrics = out[span[4]]
            metrics["self." + span[0]] += own
            metrics["incl." + span[0]] += dur
            metric = metric_of.get(span[0])
            if metric is None:
                continue
            parent = span[3]
            while parent >= 0 and metric_of.get(self.spans[parent][0]) != metric:
                parent = self.spans[parent][3]
            if parent < 0:
                metrics["inclusive:" + metric] += dur
        for pass_id, metrics in out.items():
            metrics["pass_s"] = metrics["incl." + ROOT_SPAN]
            for metric, names in SELF_TIME_METRICS.items():
                metrics[metric] = sum(metrics.get("self." + n, 0.0) for n in names)
                metrics.setdefault("inclusive:" + metric, 0.0)
            for metric, name in INCLUSIVE_METRICS.items():
                metrics[metric] = metrics.get("incl." + name, 0.0)
            counts = self.counts.get(pass_id, {})
            for metric in COUNT_METRICS:
                metrics[metric] = counts.get(metric, 0)
            for metric, (num, den) in RATIO_METRICS.items():
                metrics[metric] = counts[num] / counts[den] if counts.get(den) else 0.0
        return out

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line: name, start, end,
        parent index, pass id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tpass\n")
            for name, start, end, parent, pass_id in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{pass_id}\n")
