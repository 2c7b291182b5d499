"""The benchmark's tracer must find every function it wraps, the record
dump must run, no value of the benchmark's pool may be silently wrong,
and the package states its input rule once."""
import importlib.util
import itertools
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter, defaultdict

import numpy as np
import pytest

from latgreen import green, green_local, green_sweep, integrand
from latgreen.integrand import build_integrand, term_weights

ROOT = os.path.dirname(os.path.dirname(__file__))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402
import spans  # noqa: E402


def test_every_traced_name_resolves():
    # Tracer.install replaces each (module, attribute) pair; a name that no
    # longer exists would break a traced run, not this package's own tests
    missing = [(module.__name__, attr) for module, attr, _, _ in spans.targets()
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_layers_are_on_the_call_path():
    # a point on cold caches passes through every traced layer below it:
    # the coefficient table of its piece and the Bessel pair on the nodes
    term_weights.cache_clear()
    integrand._terms.cache_clear()
    green._bessel_nodes.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        green_local(5, 0.3)
    finally:
        tracer.uninstall()
    agg = spans.aggregate(tracer.spans)
    assert agg["coefficients"]["keys"] == {"5,2"}
    assert agg["bessel"]["n"] > 0


def test_only_errors_states_the_input_rule():
    # errors.check_integer and errors.check_real are the one rule for a
    # number argument; a module naming the numbers ABCs states it again
    rule = re.compile(r"\bnumbers\.\w|\bimport numbers\b|\bfrom numbers\b")
    mentions = sorted(path.name for path in pathlib.Path(ROOT, "src", "latgreen").glob("*.py")
                      if rule.search(path.read_text(encoding="utf-8")))
    assert mentions == ["errors.py"]


def test_no_module_imports_dataclasses():
    # records are NamedTuples: a frozen dataclass execs generated code for
    # each class at import, which every latgreen process would pay
    rule = re.compile(r"\bdataclass(es)?\b")
    mentions = sorted(path.name for path in pathlib.Path(ROOT, "src", "latgreen").glob("*.py")
                      if rule.search(path.read_text(encoding="utf-8")))
    assert mentions == []


def test_eval_span_sizes_an_integrand():
    # the span of an integrand evaluation reads its node and term counts
    # from the spec; outside the band the piece has one term
    taus = np.array([0.1, 1.0, 4.0])
    assert spans._eval_nodes((build_integrand(4, 0.3), taus), None) == (taus.size, 5)
    assert spans._eval_nodes((build_integrand(4, 9.0), taus), None) == (taus.size, 1)
    assert spans._table((4, 2), None) == (1, "4,2")


def _dump_records():
    spec = importlib.util.spec_from_file_location(
        "dump_records", os.path.join(ROOT, "tools", "dump_records.py"))
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    return dump


def test_dump_records_writes_the_first_inputs(tmp_path, capsys):
    dump = _dump_records()
    out = tmp_path / "records.txt"
    assert dump.main([str(out), "--limit", "4"]) == 0
    lines = out.read_text().splitlines()
    # the first inputs are single pool points, one green_local call each
    first = list(itertools.islice(dump.inputs(), 4))
    assert all(len(omegas) == 1 for _, omegas, _ in first)
    assert lines == [repr(green_local(d, omegas[0], cfg)) for d, omegas, cfg in first]
    assert "4 records written" in capsys.readouterr().err


def test_dump_records_compare_reports_by_d(tmp_path, capsys):
    dump = _dump_records()
    old = tmp_path / "old.txt"
    assert dump.main([str(old), "--limit", "3"]) == 0
    lines = old.read_text().splitlines()
    records = [dump.parse_record(line) for line in lines]
    assert [r["d"] for r in records] == [8, 12, 20]
    assert records[0]["value"] == green_local(8, records[0]["omega"]).value
    capsys.readouterr()

    def compare(new_lines, old_lines=lines):
        for path, text in ((old, old_lines), (tmp_path / "new.txt", new_lines)):
            path.write_text("".join(line + "\n" for line in text))
        code = dump.main(["--compare", str(old), str(tmp_path / "new.txt")])
        return code, capsys.readouterr().out.splitlines()

    # one line per d, then one for all
    code, out = compare(lines)
    assert code == 0 and len(out) == 4
    assert all(" 0 of 1 records differ" in line for line in out[:3])
    assert out[3].startswith("d=all: 0 of 3 records differ")
    # a changed value and evaluation count are reported, not failed
    value = repr(records[2]["value"])
    changed = lines[2].replace(value, repr(records[2]["value"] * (1 + 1e-15)))
    changed = changed.replace("evaluations=", "evaluations=1")
    code, out = compare([*lines[:2], changed])
    assert code == 0
    assert out[2].startswith("d=20: 1 of 1 records differ (value 1, evaluations 1)")
    # in a record converged in both, a value moved by half its old
    # abs_error reads 0.5 in units of that estimate, for its d and for all
    conv = [line.replace("converged=False", "converged=True") for line in lines]
    value, error = records[1]["value"], records[1]["abs_error"]
    moved = conv[1].replace(repr(value), repr(value + error / 2))
    code, out = compare([conv[0], moved, conv[2]], conv)
    assert code == 0
    assert out[1].startswith("d=12: 1 of 1 records differ (value 1)")
    assert out[1].endswith("largest change / old abs_error 0.5")
    assert out[3].endswith("largest change / old abs_error 0.5")
    # a changed flag or piece fails the comparison
    converged = records[0]["converged"]
    for name, old_text, new_text in (
            ("converged", f"converged={converged}", f"converged={not converged}"),
            ("piece_j", "piece_j=", "piece_j=1")):
        code, out = compare([lines[0].replace(old_text, new_text), *lines[1:]])
        assert code == 1 and f"({name} 1)" in out[0]


def test_pool_values_are_right_or_flagged():
    # every reference of the pool, judged by the benchmark's own verdict:
    # a failing value must carry a flag, and none fails, the in-band ones
    # of d >= 8 on the t0 contour included
    _, refs = check.load_pool(os.path.join(ROOT, "perfbench", "pool.json"))
    omegas = defaultdict(list)
    for k in refs:
        d, omega = k.split(":")
        omegas[int(d)].append(float(omega))
    failed, silent_wrong = Counter(), 0
    for d, grid in omegas.items():
        for r in green_sweep(d, grid):
            flags = frozenset(name for name, on in (
                ("van_hove_adjacent", r.van_hove_adjacent), ("divergent", r.divergent),
                ("nonconverged", not r.converged)) if on)
            if not check.value_ok(refs[check.key(d, r.omega)], r.value, r.abs_error, flags):
                failed[d] += 1
                silent_wrong += not flags
    assert len(refs) == 1428
    assert silent_wrong == 0
    assert len(refs) - sum(failed.values()) == 1428
    assert not failed


def test_time_points_runs_one_tree():
    # one round over the first three points of each point workload and
    # the cli workload's two sweeps, in fresh interpreters on this
    # package's own sources
    src = os.path.dirname(os.path.dirname(green.__file__))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "time_points.py"), src,
                          "--rounds", "1", "--limit", "3"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    assert ["points", "all", "3"] in [row[:3] for row in rows]
    assert ["large-d", "all", "3"] in [row[:3] for row in rows]
    assert ["cli", "all", "2"] in [row[:3] for row in rows]
    # the last column: integrand evaluations per point or sweep, at least
    # the first step's 49 nodes
    assert rows[1][-1] == "evals/pt"
    assert all(float(row[-1]) >= 49.0 for row in rows[2:])


def test_time_cli_runs_one_tree():
    # one round of the cli workload's seven calls, each in a fresh
    # process on this package's own sources
    src = os.path.dirname(os.path.dirname(green.__file__))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "time_cli.py"), src,
                          "--rounds", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [[cell.strip() for cell in line.split("|")] for line in out.stdout.splitlines()[2:]]
    calls, stats = rows[:-3], rows[-3:]
    assert sorted(row[0] for row in calls) == ["eval"] * 4 + ["selftest"] + ["sweep"] * 2
    # every call ran, and none failed on its input (exit code 1)
    times = [float(row[1].split()[0]) for row in calls]
    assert all(row[1].split()[1] in ("0", "2") for row in calls)
    assert [row[0] for row in stats] == ["p50", "p90", "sum"]
    p50, p90, total = (float(row[1]) for row in stats)
    assert min(times) <= p50 <= p90 and total == pytest.approx(sum(times), abs=0.5)
