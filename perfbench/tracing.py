"""Span tracing of kernelnc's layers, installed from outside the package.

Every wrapper records one span (name, start, end, parent span, request)
and, for a few layers, an exact work count computed from the call's
arguments or result. Nothing under ``src/`` is edited: wrappers replace
module attributes at run time and are removed again by ``uninstall``.

The pipeline imports many functions by name (``from .kernels import
gram``), so a wrapper is installed on every ``kernelnc`` module attribute
that refers to the original object, not only on the defining module;
otherwise calls made through the importing modules would not be seen.
``numpy.linalg.eigh`` and ``scipy.linalg.cho_factor`` are counted as
seen from ``kernelnc.ridge`` only, through stand-in ``np``/``scipy``
namespaces on that module.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter

import numpy as np
import scipy.linalg

# Layer functions to trace: (module, attribute path, span name).
TARGETS = (
    ("kernels", "gram", "kernels.gram"),
    ("kernels", "median_heuristic", "kernels.median_heuristic"),
    ("ridge", "loocv_embedding", "ridge.loocv_embedding"),
    ("ridge", "loocv_scalar", "ridge.loocv_scalar"),
    ("ridge", "RidgeSystem.solve", "ridge.RidgeSystem.solve"),
    ("embeddings", "cme_weights", "embeddings.cme_weights"),
    ("bridge", "compute_grams", "bridge.compute_grams"),
    ("bridge", "project_stage1", "bridge.project_stage1"),
    ("bridge", "solve_coef", "bridge.solve_coef"),
    ("effects", "kernel_specs", "effects.kernel_specs"),
    ("effects", "estimate_ate", "effects.estimate_ate"),
    ("effects", "estimate_ds", "effects.estimate_ds"),
    ("effects", "estimate_att", "effects.estimate_att"),
    ("effects", "estimate_cate", "effects.estimate_cate"),
    ("effects", "estimate_te_baseline", "effects.estimate_te_baseline"),
    ("effects", "run_end_to_end", "effects.run_end_to_end"),
    ("effects", "tuning_reports", "effects.tuning_reports"),
    ("data", "ingest", "data.ingest"),
    ("data", "population_from_csv", "data.population_from_csv"),
    ("data", "write_table_csv", "data.write_table_csv"),
    ("data", "write_dataset_csv", "data.write_dataset_csv"),
    ("simlab", "generate", "simlab.generate"),
    ("simlab", "score_replicate", "simlab.score_replicate"),
    ("simlab", "run_experiment", "simlab.run_experiment"),
    ("cli", "main", "cli.main"),
)


def _gram_entries(args, kwargs, out):
    return int(np.size(out))


def _median_pairs(args, kwargs, out):
    rows = np.shape(args[0] if args else kwargs["samples"])[0]
    return rows * (rows - 1) // 2


def _cubed_order(args, kwargs, out):
    a = args[0] if args else next(iter(kwargs.values()))
    return int(np.shape(a)[0]) ** 3


# Exact work counts, labelled "computed" in the output: span name ->
# (metric suffix, function of (args, kwargs, result)).
COUNTERS = {
    "kernels.gram": ("entries", _gram_entries),
    "kernels.median_heuristic": ("pairs", _median_pairs),
    "ridge.eigh": ("n3", _cubed_order),
    "ridge.cholesky": ("n3", _cubed_order),
}
# The computed counts as they are named among the metrics.
COMPUTED = tuple(f"{name}.{suffix}" for name, (suffix, _) in COUNTERS.items())


def replace_everywhere(orig, replacement) -> list[tuple[object, str, object]]:
    """Point every kernelnc module attribute that is `orig` at `replacement`.

    Returns (module, attribute, old value) entries that undo the change.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "kernelnc" or name.startswith("kernelnc.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    return undo


def undo_all(undo: list[tuple[object, str, object]]) -> None:
    while undo:
        owner, attr, value = undo.pop()
        setattr(owner, attr, value)


class Span:
    __slots__ = ("sid", "parent", "request", "name", "start", "end", "work", "failed")

    def __init__(self, sid, parent, request, name):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.start = self.end = 0.0
        self.work = 0
        self.failed = False


class _Namespace:
    """Forwards attribute reads to a module, except the overridden names."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Collects spans in memory; one request id groups a request's spans.

    ``only`` limits the layer-function wrappers to those span names
    (default: all of TARGETS); the ``ridge.eigh`` and ``ridge.cholesky``
    wrappers are always installed, so ``Tracer(only=COUNTERS)`` takes
    just the computed counts.
    """

    def __init__(self, only=None):
        self.only = only
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                out = fn(*args, **kwargs)
            if counter is not None:
                span.work = counter(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block; it is the parent of spans opened inside."""
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self.request, name)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = perf_counter()
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for modname, path, name in TARGETS:
            if self.only is not None and name not in self.only:
                continue
            owner = sys.modules.get(f"kernelnc.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig)
            if outer:
                self._set(owner, attr, wrapped)
            else:
                self._undo += replace_everywhere(orig, wrapped)
        self._install_linalg(sys.modules["kernelnc.ridge"])

    def _install_linalg(self, ridge):
        eigh = self.wrap("ridge.eigh", np.linalg.eigh)
        cho = self.wrap("ridge.cholesky", scipy.linalg.cho_factor)
        if getattr(ridge, "np", None) is np:
            self._set(ridge, "np", _Namespace(np, linalg=_Namespace(np.linalg, eigh=eigh)))
        if getattr(ridge, "scipy", None) is scipy:
            self._set(ridge, "scipy", _Namespace(
                scipy, linalg=_Namespace(scipy.linalg, cho_factor=cho)))
        for key, value in list(vars(ridge).items()):
            if value is np.linalg.eigh:
                self._set(ridge, key, eigh)
            elif value is scipy.linalg.cho_factor:
                self._set(ridge, key, cho)

    def uninstall(self):
        undo_all(self._undo)

    def per_request(self) -> dict[int, dict[str, float]]:
        """Per request id: calls, busy seconds, self seconds and work per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            if s.request is None:
                continue
            m = out.setdefault(s.request, {"trace.spans": 0})
            m["trace.spans"] += 1
            dur = s.end - s.start
            for key, value in ((".calls", 1), (".s", dur),
                               (".self_s", dur - child_time[s.sid])):
                m[s.name + key] = m.get(s.name + key, 0) + value
            suffix = COUNTERS.get(s.name, (None,))[0]
            if suffix is not None:
                m[f"{s.name}.{suffix}"] = m.get(f"{s.name}.{suffix}", 0) + s.work
            if s.name == "ridge.cholesky" and s.failed:
                # RidgeSystem retries a failed factorization with a larger jitter.
                m["ridge.jitter_events"] = m.get("ridge.jitter_events", 0) + 1
        return out

    def dump(self) -> list[dict]:
        return [{k: getattr(s, k) for k in Span.__slots__} for s in self.spans]
