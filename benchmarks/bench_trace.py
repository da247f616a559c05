"""Opt-in span tracing of the regnoma layers, applied from outside the package.

A :class:`Tracer` replaces every public function and method of the layer
modules, and the dense factorisations of ``numpy.linalg`` and
``scipy.linalg``, with a timing wrapper at every place the object is bound
(``regnoma.generate_regular``, ``regnoma.cli.generate_regular``,
``regnoma.throughput.generate_regular`` and so on), so calls are caught
whichever import path the caller used.  :meth:`Tracer.installed` restores
every original on exit, and :func:`assert_untraced` proves that no wrapper
is left before an untraced pass is timed.

Spans nest: a span's self time is its duration minus the durations of the
spans it called.  Counters record work done at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType

LAYERS = ("cli", "ensembles", "spectra", "quadrature", "cavity", "throughput")
LINALG_NAMES = ("eigvalsh", "eigh", "eigvals", "eig", "slogdet", "det",
                "cholesky", "cho_factor", "cho_solve", "solve", "inv",
                "lu_factor", "lu_solve", "svd")
_MARK = "__regnoma_bench_span__"


def _layer_modules() -> list[ModuleType]:
    return [importlib.import_module(f"regnoma.{name}") for name in LAYERS]


def _linalg_modules(load_scipy: bool) -> list[ModuleType]:
    import numpy.linalg
    mods = [numpy.linalg]
    if load_scipy:
        try:
            import scipy.linalg  # noqa: F401
        except ImportError:
            pass
    if "scipy.linalg" in sys.modules:
        mods.append(sys.modules["scipy.linalg"])
    return mods


def _binding_namespaces(load_scipy: bool) -> list[ModuleType]:
    """Every module namespace a traced object may be bound in."""
    import regnoma
    return [regnoma, *_layer_modules(), *_linalg_modules(load_scipy)]


def _targets() -> dict[int, tuple[str, object]]:
    """Map id(original) -> (span name, original) for every traced callable."""
    out: dict[int, tuple[str, object]] = {}
    for mod in _layer_modules():
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[id(obj)] = (f"{layer}.{name}", obj)
    for mod in _linalg_modules(load_scipy=True):
        for name in LINALG_NAMES:
            obj = getattr(mod, name, None)
            if callable(obj):
                out.setdefault(id(obj), (f"linalg.{name}", obj))
    return out


def _method_targets() -> list[tuple[type, str, str, object]]:
    """(class, attribute, span name, raw descriptor) for public methods."""
    out = []
    for mod in _layer_modules():
        layer = mod.__name__.rsplit(".", 1)[1]
        for cname, cls in vars(mod).items():
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for attr, raw in vars(cls).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, classmethod):
                    out.append((cls, attr, f"{layer}.{cname}.{attr}", raw))
    return out


def is_span_wrapper(obj) -> bool:
    if isinstance(obj, classmethod):
        obj = obj.__func__
    return getattr(obj, _MARK, False) is True


def assert_untraced() -> None:
    """Raise if any span wrapper is still bound anywhere the tracer reaches."""
    left = [f"{mod.__name__}.{name}" for mod in _binding_namespaces(load_scipy=False)
            for name, obj in vars(mod).items() if is_span_wrapper(obj)]
    left += [f"{cls.__qualname__}.{attr}" for cls, attr, _, raw in _method_targets()
             if is_span_wrapper(raw)]
    if left:
        raise RuntimeError(f"span wrappers still installed: {', '.join(sorted(left))}")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


def _count_linalg(args, result, counters) -> None:
    """Operation count n^3 x batch of a dense factorisation's first argument."""
    shape = getattr(args[0] if args else None, "shape", ())
    if len(shape) >= 2:
        batch = 1
        for s in shape[:-2]:
            batch *= int(s)
        counters["linalg.n3_sum"] += batch * int(shape[-1]) ** 3


def _count_gram(args, result, counters) -> None:
    spec = args[0].spec
    n, k = spec.n_resources, spec.n_users
    counters["ensembles.gram.bytes_computed"] += 8 * (n * k + n * n)


def _count_partial(args, result, counters) -> None:
    counters["quadrature.partial_integrals.points"] += int(result.size)


def _count_mp(args, result, counters) -> None:
    counters["cavity.mp_sweeps"] += result.sweeps
    counters["cavity.mp_sweeps_max"] = max(counters["cavity.mp_sweeps_max"],
                                           result.sweeps)


def _count_mc(args, result, counters) -> None:
    counters["throughput.mc_trials"] += result.n_trials + result.n_failed
    counters["throughput.mc_failed"] += result.n_failed


# span name -> counter hook, called on normal return with the positional
# call arguments and the result
COUNTERS = {
    "ensembles.SparseSignatureMatrix.gram": _count_gram,
    "quadrature.partial_integrals": _count_partial,
    "cavity.cavity_on_graph": _count_mp,
    "throughput.finite_n_throughput_mc": _count_mc,
}
COUNTER_NAMES = frozenset((
    "linalg.n3_sum", "ensembles.gram.bytes_computed",
    "quadrature.partial_integrals.points", "cavity.mp_sweeps",
    "cavity.mp_sweeps_max", "throughput.mc_trials", "throughput.mc_failed"))


class Tracer:
    """Collects nested spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, int] = defaultdict(int)
        self.top_level: list[float] = []
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn):
        hook = COUNTERS.get(name)
        if hook is None and name.startswith("linalg."):
            hook = _count_linalg
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_level.append(dur)
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur - frame[1]
                stats.durations.append(dur)
            if hook is not None:
                hook(args, result, self.counters)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    @contextmanager
    def installed(self):
        """Install wrappers at every binding site; restore all on exit."""
        assert_untraced()
        targets = _targets()
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        undo: list[tuple[object, str, object]] = []
        try:
            for mod in _binding_namespaces(load_scipy=True):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and targets[id(obj)][1] is obj:
                        undo.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[id(obj)])
            for cls, attr, name, raw in _method_targets():
                undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))
            yield self
        finally:
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)
        assert_untraced()
