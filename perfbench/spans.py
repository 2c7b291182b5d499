"""Spans around latgreen's public functions, recorded from outside.

``Tracer.install`` replaces each function at the module attribute its
callers look up (``latgreen.integrand.k0e``, ``latgreen.green.
integrate_semiinfinite``, ...), so nothing under ``src/`` changes.  A span
is [name, start, end, parent, call, n, key]: ``call`` is the index of the
workload call it serves, ``n`` a size (nodes, evaluations) and ``key`` a
label such as the (d, j) of a coefficient table.  Spans stay in memory and
are written once, when the run ends.  A span's self time is its duration
minus that of its direct children.
"""
from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np


def _nodes(args, _result):
    return int(np.size(args[-1])), None


def _eval_nodes(args, _result):
    spec, tau = args[0], args[1]
    return int(np.size(tau)), len(spec.terms)


def _table(args, _result):
    return 1, f"{args[0]},{args[1]}"


def _evaluations(_args, result):
    return int(result.evaluations), None


def _one(_args, _result):
    return 1, None


def targets():
    """(module, attribute, span name, size function) for every layer."""
    import latgreen.cli
    import latgreen.green
    import latgreen.integrand
    import latgreen.oracles

    out = [
        (latgreen.integrand, "k0e", "bessel", _nodes),
        (latgreen.integrand, "i0e", "bessel", _nodes),
        (latgreen.integrand, "coefficient_table", "coefficients", _table),
        (latgreen.green, "build_integrand", "integrand.build", _one),
        (latgreen.green, "eval_integrand", "integrand.eval", _eval_nodes),
        (latgreen.green, "tail_class", "integrand.tail", _one),
        (latgreen.green, "integrate_semiinfinite", "quadrature", _evaluations),
        (latgreen.green, "green_local", "green.green_local", _one),
        (latgreen.green, "green_sweep", "green.green_sweep", _one),
        (latgreen.green, "dos", "green.dos", _one),
        (latgreen.cli, "green_local", "green.green_local", _one),
        (latgreen.cli, "green_sweep", "green.green_sweep", _one),
        (latgreen.cli, "dos", "green.dos", _one),
        (latgreen.cli, "main", "cli.main", _one),
    ]
    # the self-test calls the oracles through the module; they are library
    # work under cli.main, but never a measured layer
    for name in latgreen.oracles.__all__:
        if inspect.isfunction(getattr(latgreen.oracles, name)):
            out.append((latgreen.oracles, name, "oracles", _one))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, size in targets():
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, name, size))
            self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def _wrap(self, orig, name, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.call, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5], rec[6] = size(args, result)
            return result

        traced.__wrapped__ = orig
        return traced


def _blank() -> dict:
    return {"calls": 0, "n": 0, "busy": 0.0, "self": 0.0, "nterm": 0, "keys": set()}


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total n, busy (sum of durations), self time,
    the sum of n * key for integrand evaluations, and distinct keys."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg: dict[str, dict] = defaultdict(_blank)
    for i, (name, t0, t1, _parent, _call, n, k) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["n"] += n
        a["busy"] += t1 - t0
        a["self"] += t1 - t0 - child[i]
        if isinstance(k, int):
            a["nterm"] += n * k
        elif k is not None:
            a["keys"].add(k)
    return agg


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics that one traced run's spans give; ratios "per
    point" are per ``green_local`` call."""
    agg = aggregate(spans)

    def get(name):
        return agg.get(name) or _blank()

    bes, coef = get("bessel"), get("coefficients")
    build, ev, quad = get("integrand.build"), get("integrand.eval"), get("quadrature")
    green = [get(n) for n in ("green.green_local", "green.green_sweep", "green.dos")]
    main = get("cli.main")
    per_pt = max(green[0]["calls"], 1)
    return {
        "bessel.calls": bes["calls"],
        "bessel.nodes": bes["n"],
        "bessel.busy_s": bes["busy"],
        "bessel.ns_per_node": 1e9 * bes["busy"] / max(bes["n"], 1),
        "coefficients.calls": coef["calls"],
        "coefficients.tables_built": len(coef["keys"]),
        "coefficients.busy_s": coef["busy"],
        "integrand.build_calls": build["calls"],
        "integrand.build_s": build["self"],
        "integrand.eval_calls": ev["calls"],
        "integrand.nodes": ev["n"],
        "integrand.nodes_per_call": ev["n"] / max(ev["calls"], 1),
        "integrand.self_s": ev["self"],
        "integrand.ns_per_node_term": 1e9 * ev["self"] / max(ev["nterm"], 1),
        "quadrature.calls": quad["calls"],
        "quadrature.self_s": quad["self"],
        "quadrature.levels_per_pt": ev["calls"] / per_pt,
        "quadrature.evals_per_pt": quad["n"] / per_pt,
        "green.calls": green[0]["calls"],
        "green.self_s": sum(g["self"] for g in green),
        "cli.main_self_s": main["self"],
    }
