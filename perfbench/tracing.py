"""Spans around mdelab's public functions, installed from outside.

mdelab binds names with ``from .x import f``, so one function object can
sit in several module namespaces (``mdelab.measures``, ``mdelab.pvf``,
``mdelab`` itself, ...).  ``Tracer.install`` replaces every binding that is
the original function with one wrapper, and ``Tracer.remove`` puts every
original back and proves by identity that no wrapper is left.

A wrapper records a span only while an operation is running (``Tracer.op``
is set), so the benchmark's own checks are never traced.  A span is
``[label, start, end, parent, op, error, sizes]``; spans stay in a list
until the run ends.  A layer's self time is the sum over its spans of the
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import types
from collections import defaultdict
from time import process_time

import numpy as np

MARK = "_perfbench_label"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _canonical_rows(args, kwargs, out):
    return {"rows_in": int(np.shape(_arg(args, kwargs, 0, "points"))[0]),
            "rows_out": int(out[0].shape[0])}


def _w1_route(args, kwargs, out):
    method = _arg(args, kwargs, 2, "method", "auto")
    if method == "auto":
        method = "quantile" if args[0].dim == 1 else "lp"
    return {"route": method}


def _lp_cells(args, kwargs, out):
    return {"cells": int(np.size(_arg(args, kwargs, 0, "costs")))}


def _scheme_key(args, kwargs, out):
    """Fingerprint of (rule, initial measure, config): equal runs share it."""
    from mdelab.pvf import pvf_to_json  # mdelab is importable only once run.py set it up

    spec, mu0, cfg = (_arg(args, kwargs, i, n) for i, n in enumerate(("spec", "mu0", "cfg")))
    try:
        rule = json.dumps(pvf_to_json(spec), sort_keys=True)
    except Exception:  # a rule with no JSON form is keyed by its identity
        rule = f"object-{id(spec)}"
    h = hashlib.sha1(rule.encode())
    h.update(mu0.atoms.tobytes())
    h.update(mu0.weights.tobytes())
    h.update(repr((cfg.scheme, cfg.grid, cfg.coalesce_tol, cfg.prune_floor, cfg.max_atoms)).encode())
    return {"key": h.hexdigest()[:16]}


def _file_bytes(index, name):
    def sizes(args, kwargs, out):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return sizes


# (module, function, label, sizes).  Several artifact functions share one
# label; nested calls under one label count once in ``calls``/``bytes``.
WRAPPED = [
    ("measures", "canonical_support", "measures.canonical_support", _canonical_rows),
    ("measures", "match_rows", "measures.match_rows", None),
    ("measures", "base_of", "measures.base_of", None),
    ("measures", "disintegrate", "measures.disintegrate", None),
    ("measures", "coalesce", "measures.coalesce", None),
    ("schemes", "run_scheme", "schemes.run_scheme", _scheme_key),
    ("schemes", "interpolate_at", "schemes.interpolate_at", None),
    ("transport", "lp_solve", "transport.lp_solve", _lp_cells),
    ("transport", "w1_distance", "transport.w1_distance", _w1_route),
    ("transport", "lifted_w1", "transport.lifted_w1", None),
    ("transport", "fiber_pseudometric", "transport.fiber_pseudometric", None),
    ("superposition", "build_representation", "superposition.build_representation", None),
    ("superposition", "concat_merge", "superposition.concat_merge",
     lambda a, k, out: {"curves_out": out.ncurves}),
    ("pvf", "eval_pvf", "pvf.eval_pvf", lambda a, k, out: {"lift_atoms": out.natoms}),
    ("pvf", "barycentric_field", "pvf.barycentric_field", None),
    ("analysis", "residual", "analysis.residual", None),
    ("analysis", "scheme_compare", "analysis.scheme_compare", None),
    ("analysis", "convergence_study", "analysis.convergence_study", None),
    ("scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("cli", "main", "cli.main", None),
] + [
    ("artifacts", fn, "artifacts.write", _file_bytes(1, "file_path"))
    for fn in ("write_json", "write_path_csv", "write_plan_csv", "write_residual_csv",
               "write_convergence_csv", "write_comparison_csv", "write_trajectories_json")
] + [
    ("artifacts", fn, "artifacts.read", _file_bytes(0, "file_path"))
    for fn in ("read_json", "read_trajectories_json")
]

LABELS = list(dict.fromkeys(label for _, _, label, _ in WRAPPED))
# size counts a layer reports beside calls, self_s and errors
SIZES = {
    "measures.canonical_support": ("rows_in", "rows_out"),
    "transport.lp_solve": ("cells",),
    "superposition.concat_merge": ("curves_out",),
    "pvf.eval_pvf": ("lift_atoms",),
    "artifacts.write": ("bytes",),
    "artifacts.read": ("bytes",),
}
# traced vs untraced pass time, filled in by the run rather than from spans
OVERHEAD = [("trace.traced_pass_s", "s"), ("trace.untraced_pass_s", "s"),
            ("trace.overhead_frac", "ratio")]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for label in LABELS:
        names += [(f"{label}.calls", "count"), (f"{label}.self_s", "s"), (f"{label}.errors", "count")]
        names += [(f"{label}.{key}", "B" if key == "bytes" else "count")
                  for key in SIZES.get(label, ())]
        if label == "schemes.run_scheme":
            names.append((f"{label}.distinct", "count"))
        if label == "transport.w1_distance":
            for route in ("quantile", "lp"):
                names += [(f"{label}.{route}.calls", "count"), (f"{label}.{route}.self_s", "s")]
    return names + OVERHEAD


def mdelab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mdelab" or name.startswith("mdelab."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original, wrapper)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, label, sizes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = process_time()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = process_time()
                stack.pop()
            if sizes is not None:
                span[6] = sizes(args, kwargs, out)
            return out

        setattr(wrapper, MARK, label)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = mdelab_modules()
        for module, fn_name, label, sizes in WRAPPED:
            original = getattr(sys.modules[f"mdelab.{module}"], fn_name)
            wrapper = self._wrap(original, label, sizes)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original, wrapper))

    def remove(self) -> None:
        patched, self._patched = self._patched, []
        for mod, attr, original, wrapper in reversed(patched):
            setattr(mod, attr, original)
        for mod, attr, original, wrapper in patched:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the original function")
        assert_unwrapped()

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self, passes: int, speed: dict) -> dict[str, float]:
        """Per-layer totals over the traced spans, divided by ``passes``.

        ``speed`` maps an operation id to the factor that scales its CPU
        seconds to the reference speed (see run.scale_to_reference).
        """
        spans = self.spans
        child = np.zeros(len(spans))
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        keys = defaultdict(set)
        for i, (label, start, end, parent, op, error, sizes) in enumerate(spans):
            outer = parent < 0 or spans[parent][0] != label
            self_s = ((end - start) - child[i]) * speed[op]
            total[f"{label}.self_s"] += self_s
            total[f"{label}.errors"] += error and outer
            total[f"{label}.calls"] += outer
            for key, value in (sizes or {}).items():
                if key == "route":
                    total[f"{label}.{value}.calls"] += 1
                    total[f"{label}.{value}.self_s"] += self_s
                elif key == "key":
                    keys[op[0]].add(value)
                elif outer:
                    total[f"{label}.{key}"] += value
        total["schemes.run_scheme.distinct"] = float(sum(len(k) for k in keys.values()))
        return {name: total[name] / passes
                for name, unit in metric_names() if (name, unit) not in OVERHEAD}

    def dump(self, path: str) -> None:
        fields = ["label", "start", "end", "parent", "op", "error", "sizes"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def assert_unwrapped() -> None:
    """Raise unless every mdelab binding is free of tracing wrappers."""
    for mod in mdelab_modules():
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType) and hasattr(value, MARK):
                raise RuntimeError(f"{mod.__name__}.{attr} is still wrapped")
