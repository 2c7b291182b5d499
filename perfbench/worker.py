"""Workload process: reads one job (JSON) on stdin, prints one JSON line.

``mode: setup`` times, in this fresh interpreter, ``import latgreen`` and
the first result of the workload with every cache cold.  ``mode: measure``
runs whole passes over the job's calls until ``seconds`` have passed,
optionally traced, and returns each call's time and raw results; checking
happens in the parent, outside the timed region.  Only the standard
library is imported before ``import latgreen`` is timed.
"""
import contextlib
import io
import json
import resource
import sys
import time


def _pack(r) -> list:
    flags = [n for n, on in (("van_hove_adjacent", r.van_hove_adjacent),
                             ("divergent", r.divergent),
                             ("nonconverged", not r.converged)) if on]
    return [r.d, r.omega, r.value.real, r.value.imag, r.abs_error, flags]


def _run_call(call, green, cli):
    kind = call["kind"]
    if kind == "point":
        return {"v": [_pack(green.green_local(call["d"], call["omega"]))]}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(call["argv"])
    text = buf.getvalue()
    if call["cmd"] == "sweep":
        with open(call["argv"][-1], encoding="utf-8") as fh:
            text = fh.read()
    return {"rc": rc, "text": text}


def setup(job) -> dict:
    t0 = time.perf_counter()
    import latgreen  # noqa: F401  (the import being timed)
    t1 = time.perf_counter()
    import latgreen.cli as cli
    import latgreen.green as green

    first = job["calls"][0]
    if first["kind"] == "cli":  # a one-point ``eval``, run in-process
        first = next(c for c in job["calls"] if c["kind"] == "cli" and c["cmd"] == "eval")
    _run_call(first, green, cli)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "setup_s": t2 - t0}


def measure(job) -> dict:
    import latgreen.cli as cli
    import latgreen.green as green

    tracer = None
    if job["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    calls, results, passes = job["calls"], [], 0
    start = clock()
    while True:
        for i, call in enumerate(calls):
            if tracer:
                tracer.call = len(results)
            t0 = clock()
            try:
                payload = _run_call(call, green, cli)
            except Exception as exc:  # a raising call is a failed operation
                payload = {"error": repr(exc)}
            results.append([i, clock() - t0, payload])
        passes += 1
        if clock() - start >= job["seconds"]:
            break
    wall = clock() - start
    out = {"wall": wall, "passes": passes, "results": results,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = len(tracer.spans)
        out["evals_by_call"] = [0] * len(results)
        for name, _t0, _t1, _parent, call, n, _key in tracer.spans:
            if name == "quadrature":
                out["evals_by_call"][call] += n
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call", "n", "key"],
                       "spans": tracer.spans}, fh)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    result = setup(job) if job["mode"] == "setup" else measure(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
