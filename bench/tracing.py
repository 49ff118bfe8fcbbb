"""Module-boundary tracing of cvchan from outside the package.

``Tracer.install`` wraps the module-level functions listed in ``WRAPPED``.
A wrapper replaces every binding of the original function in every loaded
``cvchan`` module, because the modules import each other's functions by
name: patching ``cvchan.symplectic`` alone would miss the copies held by
``functionals`` and ``majorization``.  A name that no longer exists is
recorded with a zero count.

Each call becomes a span (name, start, end, parent) kept in memory and
written out at the end; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: (module, function) pairs wrapped at the layer boundaries.
WRAPPED = (
    ("symplectic", "symplectic_eigenvalues"),
    ("symplectic", "williamson"),
    ("symplectic", "euler_decompose"),
    ("symplectic", "sample_symplectics"),
    ("symplectic", "sample_spd"),
    ("states", "is_physical"),
    ("states", "trace_p"),
    ("states", "von_neumann_entropy"),
    ("channels", "make_channel"),
    ("channels", "channel_from_record"),
    ("channels", "apply"),
    ("channels", "apply_cov"),
    ("functionals", "numeric_inf_fp"),
    ("functionals", "numeric_min_entropy"),
    ("functionals", "max_output_entropy_under_energy"),
    ("functionals", "gaussian_holevo_capacity"),
    ("functionals", "multiplicativity_check"),
    ("functionals", "additivity_check"),
    ("functionals", "min_output_fp_closed"),
    ("functionals", "max_output_p_norm"),
    ("functionals", "min_output_entropy_closed_only"),
    ("functionals", "log_fp_concavity_check"),
    ("majorization", "theorem1_trial"),
    ("majorization", "lemma1_trial"),
    ("majorization", "lemma1_campaign"),
    ("majorization", "schur_campaign"),
    ("cli", "main"),
)

#: The search drivers; each returns an ``OptimizationReport``.
SEARCHES = ("functionals.numeric_inf_fp", "functionals.numeric_min_entropy",
            "functionals.max_output_entropy_under_energy")
LAYERS = ("symplectic", "states", "channels", "functionals", "majorization", "cli")


def _arg(args, kwargs, position: int, name: str, default=None):
    """A call argument by position or keyword; hooks must survive a
    signature change, so a missing argument gives ``default``."""
    return args[position] if len(args) > position else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self._child = [0.0]
        # name id -> [calls, inclusive seconds, self seconds]
        self.stats: list[list[float]] = []
        self.items: dict[str, float] = {}
        self.by_modes: dict[int, list[float]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0])
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack, child, stats = self._stack, self._child, self.stats[nid]
        sname, sstart, send, sparent = self.span_name, self.span_start, self.span_end, self.span_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1])
            sstart.append(0.0)
            send.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                child[-1] += end - start
                sstart[idx] = start
                send[idx] = end
                stats[0] += 1
                stats[1] += end - start
                stats[2] += end - start - inner
            if on_result is not None:
                on_result(args, kwargs, result, end - start)
            return result

        return traced

    def call(self, name: str, thunk):
        """Run ``thunk`` as a benchmark-side root span (one op)."""
        return self.wrap(name, thunk)()

    def _add(self, key: str, value: float) -> None:
        self.items[key] = self.items.get(key, 0.0) + value

    def _hooks(self, name: str):
        if name == "symplectic.symplectic_eigenvalues":
            def hook(args, kwargs, result, dt):
                shape = np.shape(_arg(args, kwargs, 0, "a", ()))
                entry = self.by_modes.setdefault(shape[0] // 2 if shape else 0, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
            return hook
        if name in ("symplectic.sample_symplectics", "symplectic.sample_spd"):
            return lambda args, kwargs, result, dt: self._add(name + ".items", int(_arg(args, kwargs, 2, "count", 0)))
        if name in ("majorization.theorem1_trial", "majorization.lemma1_trial"):
            return lambda args, kwargs, result, dt: self._add(name + ".samples", getattr(result, "trials", 0))
        if name in SEARCHES:
            def hook(args, kwargs, result, dt):
                self._add("functionals.searches", 1)
                self._add("functionals.evaluations", getattr(result, "evaluations", 0))
                self._add("functionals.budget", getattr(result, "budget", 0))
            return hook
        return None

    def install(self) -> None:
        """Rebind every wrapped function in every loaded cvchan module."""
        modules = [m for key, m in list(sys.modules.items()) if key == "cvchan" or key.startswith("cvchan.")]
        for module_name, func_name in WRAPPED:
            name = f"{module_name}.{func_name}"
            try:
                home = importlib.import_module(f"cvchan.{module_name}")
            except ImportError:
                home = None
            original = getattr(home, func_name, None)
            if original is None:
                self._name_id(name)
                continue
            wrapper = self.wrap(name, original, self._hooks(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def stat(self, name: str) -> tuple[int, float, float]:
        if name not in self._ids:
            return 0, 0.0, 0.0
        calls, incl, own = self.stats[self._ids[name]]
        return int(calls), incl, own

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced run."""
    out: dict[str, tuple[float, str]] = {}
    stat, items = tracer.stat, tracer.items

    calls, incl, own = stat("symplectic.symplectic_eigenvalues")
    out["symplectic.symplectic_eigenvalues.calls"] = (calls, "count")
    out["symplectic.symplectic_eigenvalues.self_s"] = (own, "s")
    for n in range(1, 5):
        count, total = tracer.by_modes.get(n, (0, 0.0))
        out[f"symplectic.symplectic_eigenvalues.n{n}_us"] = (_per(total, count, 1e6), "us")
    for fn in ("williamson", "euler_decompose"):
        calls, incl, own = stat(f"symplectic.{fn}")
        out[f"symplectic.{fn}.us_per_call"] = (_per(incl, calls, 1e6), "us")
    n_items = items.get("symplectic.sample_symplectics.items", 0.0)
    calls, incl, own = stat("symplectic.sample_symplectics")
    out["symplectic.sample_symplectics.items"] = (n_items, "count")
    out["symplectic.sample_symplectics.us_per_item"] = (_per(incl, n_items, 1e6), "us")
    out["symplectic.sample_symplectics.self_s"] = (own, "s")
    calls, incl, own = stat("symplectic.sample_spd")
    out["symplectic.sample_spd.us_per_item"] = (_per(incl, items.get("symplectic.sample_spd.items", 0.0), 1e6), "us")

    for fn in ("theorem1_trial", "lemma1_trial"):
        calls, incl, own = stat(f"majorization.{fn}")
        out[f"majorization.{fn}.self_s"] = (own, "s")
        out[f"majorization.{fn}.samples_per_s"] = (_per(items.get(f"majorization.{fn}.samples", 0.0), incl), "1/s")
    out["majorization.schur_campaign.self_s"] = (stat("majorization.schur_campaign")[2], "s")

    evaluations = items.get("functionals.evaluations", 0.0)
    search_incl = sum(stat(name)[1] for name in SEARCHES)
    out["functionals.searches"] = (items.get("functionals.searches", 0.0), "count")
    out["functionals.evaluations"] = (evaluations, "count")
    out["functionals.budget_used"] = (_per(evaluations, items.get("functionals.budget", 0.0)), "ratio")
    out["functionals.search.self_s"] = (sum(stat(name)[2] for name in SEARCHES), "s")
    out["functionals.us_per_eval"] = (_per(search_incl, evaluations, 1e6), "us")

    for fn in ("is_physical", "von_neumann_entropy"):
        calls, incl, own = stat(f"states.{fn}")
        out[f"states.{fn}.calls"] = (calls, "count")
        out[f"states.{fn}.us_per_call"] = (_per(incl, calls, 1e6), "us")
    calls, incl, own = stat("channels.make_channel")
    out["channels.make_channel.calls"] = (calls, "count")
    out["channels.make_channel.us_per_call"] = (_per(incl, calls, 1e6), "us")
    calls, incl, own = stat("channels.channel_from_record")
    out["channels.channel_from_record.us_per_call"] = (_per(incl, calls, 1e6), "us")
    out["channels.apply_cov.calls"] = (stat("channels.apply_cov")[0], "count")
    out["cli.main.self_s"] = (stat("cli.main")[2], "s")

    for layer in LAYERS:
        own = sum(stat(f"{module}.{fn}")[2] for module, fn in WRAPPED if module == layer)
        out[f"{layer}.share"] = (_per(own, traced_wall_s), "ratio")
    out["trace.covered_share"] = (sum(out[f"{layer}.share"][0] for layer in LAYERS), "ratio")
    return out
