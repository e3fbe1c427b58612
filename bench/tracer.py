"""Per-function timing of the ``gcnx`` package, from outside the program.

``Tracer.install`` imports every ``gcnx`` module and wraps, by
introspection, each public function and each public method of the classes
the package defines. A function is replaced at every module binding site,
so ``forward`` is traced whether it is called as ``gcnx.model.forward`` or
through the name imported into ``explainers``, ``metrics`` or ``cli``.
Functions added later are traced without a change here. Property getters,
private helpers (leading underscore) and nested functions are not wrapped;
their time counts as the self time of the public function that calls them.

Statistics are kept per (stage, function): calls, inclusive seconds, self
seconds (inclusive minus traced children), per-call durations, and the
count of calls that returned True. Two hooks add what a name alone cannot
give: the matmul flops of ``model.forward``, computed from the shapes, and
the number of pairs ``explainers.normalize_pair`` left unnormalized.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import gcnx

PACKAGE = "gcnx"
# Functions with a ``method`` parameter also get inclusive time per method.
METHOD_PARAMETER = "method"


def forward_flops(args, kwargs) -> float:
    """Matmul flops of one forward pass, computed from the shapes: for each
    layer, V @ F costs 2 N^2 d_in and (V F) @ W costs 2 N d_in d_out; the
    classifier adds 2 d_L C."""
    graph, params = args[0], args[1]
    n = graph.n_nodes
    dims = [graph.feature_dim, *(w.shape[1] for w in params.layer_weights)]
    flops = sum(2 * n * n * a + 2 * n * a * b for a, b in zip(dims[:-1], dims[1:]))
    return float(flops + 2 * dims[-1] * params.classifier_weights.shape[1])


# (function, counter) -> the counter's increment for one call (args, kwargs, result)
HOOKS = {
    ("model.forward", "flop"): lambda args, kwargs, result: forward_flops(args, kwargs),
    ("explainers.normalize_pair", "unnormalized"): lambda args, kwargs, result: float(
        not result[0].normalized
    ),
}


def package_modules() -> list:
    """The package and its public modules; private ones are skipped because
    importing ``gcnx.__main__`` runs the CLI."""
    return [gcnx] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(gcnx.__path__, PACKAGE + ".")
        if not info.name.rpartition(".")[2].startswith("_")
    ]


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "durations", "true_results", "counters", "by_method")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")
        self.true_results = 0
        self.counters: dict[str, float] = {}
        self.by_method: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self.stage = "none"
        self.stats: dict[tuple[str, str], FunctionStats] = {}
        self.failed_hooks: set[tuple[str, str]] = set()
        self._children = [0.0]  # traced time of the children of each open call
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped_codes: dict[object, str] = {}  # original code object -> name
        self.wrapper_code = None  # code object shared by every wrapper

    # ------------------------------------------------------------- wrapping

    def wrap(self, name: str, fn):
        stats_for = self._stats_for
        children = self._children
        clock = time.perf_counter
        hooks = [(counter, hook) for (f, counter), hook in HOOKS.items() if f == name]
        method_index = _parameter_index(fn, METHOD_PARAMETER)
        failed = self.failed_hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = children.pop()
                children[-1] += elapsed
                stats = stats_for(name)
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                stats.durations.append(elapsed)
                if method_index is not None:
                    method = args[method_index] if len(args) > method_index else kwargs.get(METHOD_PARAMETER)
                    if isinstance(method, str):
                        stats.by_method[method] = stats.by_method.get(method, 0.0) + elapsed
            if result is True:
                stats.true_results += 1
            for counter, hook in hooks:
                _count(stats, counter, failed, name, hook, args, kwargs, result)
            return result

        self.wrapped_codes[fn.__code__] = name
        self.wrapper_code = traced.__code__
        return traced

    def _stats_for(self, name: str) -> FunctionStats:
        key = (self.stage, name)
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = FunctionStats()
        return stats

    def install(self) -> None:
        modules = package_modules()
        replacements = {}  # id(original function) -> wrapper
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    self._patch(module, attr, replacements[id(obj)])

    def _wrap_class(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(name, member))
            elif isinstance(member, (staticmethod, classmethod)):
                self._patch(cls, attr, type(member)(self.wrap(name, member.__func__)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ reporting

    def report(self) -> dict:
        """Per stage and function: calls, s, self_s, p50_ms, p99_ms, max_ms,
        hit_ratio (share of calls returning True) and any hook counters, as plain JSON."""
        out: dict[str, dict] = {}
        for (stage, name), st in sorted(self.stats.items()):
            durations = sorted(st.durations)
            entry = {
                "calls": st.calls,
                "s": st.total_s,
                "self_s": st.self_s,
                "p50_ms": 1e3 * _percentile(durations, 0.50),
                "p99_ms": 1e3 * _percentile(durations, 0.99),
                "max_ms": 1e3 * durations[-1],
                "hit_ratio": st.true_results / st.calls,
            }
            for counter, value in st.counters.items():
                if (name, counter) not in self.failed_hooks:
                    entry[counter] = value
            entry.update({f"{method}.s": s for method, s in st.by_method.items()})
            out.setdefault(stage, {})[name] = entry
        return out


def _count(stats, counter, failed, name, hook, args, kwargs, result) -> None:
    """Add one call's hook value; a hook that no longer fits the function's
    signature is dropped, so its counter is reported absent."""
    if (name, counter) in failed:
        return
    try:
        value = hook(args, kwargs, result)
    except (AttributeError, TypeError, IndexError, KeyError):
        failed.add((name, counter))
        return
    stats.counters[counter] = stats.counters.get(counter, 0.0) + value


def _parameter_index(fn, parameter: str) -> int | None:
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return names.index(parameter) if parameter in names else None


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, int(-(-q * len(sorted_values) // 1)))
    return sorted_values[rank - 1]
