"""Oracle-checked benchmark of latgreen.

    python3 perfbench/run.py --workload points --seed 1 --seconds 25 --trace 0

Workloads are described in ``workloads.py``.  The benchmark finds the
repository as the parent of its own directory and runs ``src/latgreen``
from source; it reads and writes nothing outside the repository and keeps
its by-products in ``perfbench/out/``.

``--trace 0`` prints the end-to-end metrics.  Set-up is timed in
SETUP_RUNS fresh interpreters, half before and half after the measurement,
from ``import latgreen`` to the workload's first result with every cache
cold (the median is reported).  The workload runs in one fresh process for
``--seconds``, in whole passes over its calls; latencies and throughput use
each call's best time over the passes (see ``best_of_passes``).  Every returned value is checked
against the frozen reference pool (``pool.json``, made by
``make_pool.py``) after the timed loop.  For ``cli`` each call is its own
``python -m latgreen.cli`` process, timed from spawn to exit.

``--trace 1`` runs the workload in-process twice for half the time each,
in fresh processes: untraced, then with spans around every layer
(``spans.py``).  It prints the per-layer metrics and the tracing overhead
against the untraced half, and writes the spans to ``perfbench/out/``.

Lines before the last describe the run, including ``fail_frac`` and
``silent_wrong`` by those names; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
calls (a ``green_local`` or a process) and ``failed`` the
calls that raised, crashed or timed out; values that come back wrong are
counted by ``fail_frac``/``pass_frac`` and ``silent_wrong``/``honest_frac``.
``correct`` is false when a call failed, or when a value or exit code at a
dimension the library's acceptance suite verifies (d <= 7) is wrong without
a flag.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

from check import Tally, load_pool, tally_cli
from workloads import WORKLOADS, make_calls

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
POOL = os.path.join(HERE, "pool.json")

SETUP_RUNS = 8
WORKER_SLACK_S = 90
CLI_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "throughput_pts_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_frac": "ratio",
    "honest_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bessel.calls": "count",
    "bessel.nodes": "count",
    "bessel.busy_s": "s",
    "bessel.ns_per_node": "ns",
    "coefficients.calls": "count",
    "coefficients.tables_built": "count",
    "coefficients.busy_s": "s",
    "integrand.build_calls": "count",
    "integrand.build_s": "s",
    "integrand.eval_calls": "count",
    "integrand.nodes": "count",
    "integrand.nodes_per_call": "count",
    "integrand.self_s": "s",
    "integrand.ns_per_node_term": "ns",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "quadrature.levels_per_pt": "count",
    "quadrature.evals_per_pt": "count",
    "quadrature.useful_evals_frac": "ratio",
    "green.calls": "count",
    "green.self_s": "s",
    "green.nonconverged": "count",
    "green.divergent": "count",
    "green.van_hove_adjacent": "count",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "cli.exit_mismatch": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def spawn(argv, stdin_text, timeout, log_path, env=None):
    """Run one child to completion: (exit code, stdout, wall s, peak RSS kB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=log, cwd=ROOT, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            try:
                if stdin_text is not None:
                    proc.stdin.write(stdin_text.encode())
                proc.stdin.close()
            except BrokenPipeError:  # the child died early; its exit code tells
                pass
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


def run_worker(job: dict, timeout: float, log_path: str) -> dict:
    rc, out, _, _ = spawn([sys.executable, os.path.join(HERE, "worker.py")],
                          json.dumps(job), timeout, log_path)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"worker ({job['mode']}) exited {rc}; see {log_path}")
    return json.loads(lines[-1])


def tally_worker(tally, refs, calls, result) -> tuple[int, list[float]]:
    """Check one measure run's outputs: (Green-function values returned,
    each call's share of values that passed)."""
    points, shares = 0, []
    for i, _dt, payload in result["results"]:
        call = calls[i]
        values, failed = tally.values, tally.failed
        if "error" in payload:
            tally.ops += 1
            tally.add_error()
        elif "rc" in payload:
            points += tally_cli(tally, refs, call["cmd"], payload["rc"], payload["text"])
        else:
            tally.ops += 1
            for d, w, re, im, err, flags in payload["v"]:
                tally.add_value(refs, d, w, complex(re, im), err, frozenset(flags))
                points += 1
        n = tally.values - values
        shares.append(1.0 - (tally.failed - failed) / n if n else 1.0)
    return points, shares


def run_cli(calls, seconds, log_path) -> dict:
    """The cli workload: one ``latgreen`` process at a time, whole passes;
    results are shaped like a worker's."""
    env = dict(os.environ, PYTHONPATH=SRC)
    results, rss, passes = [], 0, 0
    start = time.perf_counter()
    while True:
        for i, call in enumerate(calls):
            if call["cmd"] == "sweep" and os.path.exists(call["argv"][-1]):
                os.remove(call["argv"][-1])
            rc, text, wall, rss_kb = spawn(
                [sys.executable, "-m", "latgreen.cli", *call["argv"]],
                None, CLI_TIMEOUT_S, log_path, env)
            rss = max(rss, rss_kb)
            if call["cmd"] == "sweep":
                try:
                    with open(call["argv"][-1], encoding="utf-8") as fh:
                        text = fh.read()
                except OSError:
                    text = ""
            results.append([i, wall, {"rc": rc, "text": text}])
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"wall": time.perf_counter() - start, "passes": passes, "results": results,
            "rss_kb": rss}


def best_of_passes(results) -> list[float]:
    """Each call's fastest time over the passes.  Interference from other
    work on the host only ever slows a call down, so the minimum is the
    steadier estimate of what the code costs."""
    best: dict[int, float] = {}
    for i, dt, _ in results:
        best[i] = min(dt, best.get(i, dt))
    return list(best.values())


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # the checkout the benchmark runs in need not be a git repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    pkg = os.path.join(SRC, "latgreen")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_latgreen_lines": lines,
    }


def percentile(values, q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def bench(workload: str, seed: int, seconds: float, trace: bool):
    sets, refs = load_pool(POOL)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    log_path = os.path.join(OUT, f"{tag}.stderr.log")
    open(log_path, "w").close()
    calls = make_calls(workload, seed, sets, OUT)
    base = {"src": SRC, "calls": calls}

    def set_up(n):
        return [run_worker(dict(base, mode="setup"), 60, log_path) for _ in range(n)]

    # half the set-ups before the measurement and half after, so that one
    # burst of interference from the host cannot cover all of them
    setups = set_up(SETUP_RUNS // 2)
    tally = Tally()
    if not trace:
        if workload == "cli":
            m = run_cli(calls, seconds, log_path)
        else:
            m = run_worker(dict(base, mode="measure", seconds=seconds, trace=False),
                           seconds + WORKER_SLACK_S, log_path)
        points, _ = tally_worker(tally, refs, calls, m)
        best = best_of_passes(m["results"])
        metrics = {
            "throughput_pts_s": points / m["passes"] / sum(best),
            "latency_p50_ms": 1e3 * statistics.median(best),
            "latency_p90_ms": 1e3 * percentile(best, 90),
            "pass_frac": 1.0 - tally.failed / tally.values,
            "honest_frac": 1.0 - tally.silent_wrong / tally.values,
            "peak_rss_mb": m["rss_kb"] / 1024.0,
        }
        units = END_TO_END
    else:
        half = seconds / 2.0
        plain = run_worker(dict(base, mode="measure", seconds=half, trace=False),
                           half + WORKER_SLACK_S, log_path)
        m = run_worker(dict(base, mode="measure", seconds=half, trace=True,
                            spans_path=os.path.join(OUT, f"{tag}.spans.json")),
                       half + WORKER_SLACK_S, log_path)
        points, shares = tally_worker(tally, refs, calls, m)
        evals = m["evals_by_call"]
        metrics = dict(m["layers"])
        metrics.update({
            # evaluations spent on values that pass, over all evaluations
            "quadrature.useful_evals_frac": (sum(e * s for e, s in zip(evals, shares))
                                             / max(sum(evals), 1)),
            "green.nonconverged": tally.nonconverged,
            "green.divergent": tally.divergent,
            "green.van_hove_adjacent": tally.van_hove_adjacent,
            "cli.exit_mismatch": tally.exit_mismatch,
            "trace.overhead_frac": (sum(best_of_passes(m["results"]))
                                    / sum(best_of_passes(plain["results"])) - 1.0),
            "trace.spans": m["spans"],
        })
        tally_worker(tally, refs, calls, plain)  # its outputs are checked too
        units = PER_LAYER
    setups += set_up(SETUP_RUNS - SETUP_RUNS // 2)
    setup_median = {k: statistics.median(s[k] for s in setups) for k in ("setup_s", "import_s")}
    info = {"passes": m["passes"], "calls": len(calls), "wall_s": m["wall"], "values": points}
    if trace:
        metrics["cli.import_s"] = setup_median["import_s"]
    else:
        metrics["setup_s"] = setup_median["setup_s"]
    return tally, metrics, units, info, tag


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latgreen", "__init__.py")):
        print(f"error: no latgreen sources under {SRC}", file=sys.stderr)
        return 2
    try:
        tally, metrics, units, info, tag = bench(args.workload, args.seed, args.seconds,
                                                 bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment()
    fail_frac = tally.failed / tally.values
    print(f"perfbench {tag}: {info['passes']} passes of {info['calls']} calls, "
          f"{info['values']} values in {info['wall_s']:.2f} s; times are each "
          f"call's best over the passes")
    for name, unit in units.items():
        print(f"  {name:<30s} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_frac':<30s} {fail_frac:.6g} ratio ({tally.failed} of {tally.values})")
    print(f"  {'silent_wrong':<30s} {tally.silent_wrong} count "
          f"({tally.nan} NaN, {tally.silent_verified} at d <= 7)")
    print(f"  {'exit_mismatch':<30s} {tally.exit_mismatch} count; "
          f"{tally.op_errors} calls raised or crashed")
    print(f"env: {json.dumps(env)}")
    result = {
        "correct": tally.correct,
        "attempted": tally.ops,
        "failed": tally.op_errors,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, info=info, fail_frac=fail_frac,
                       silent_wrong=tally.silent_wrong, tally=vars(tally)), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
