"""The benchmark's tracer must find every function it wraps, the record
dump must run, and no value of the benchmark's pool may be silently
wrong."""
import importlib.util
import itertools
import os
import sys
from collections import Counter, defaultdict

import numpy as np

from latgreen import build_integrand, green_local, green_sweep

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

    def compare(new_lines):
        new = tmp_path / "new.txt"
        new.write_text("".join(line + "\n" for line in new_lines))
        code = dump.main(["--compare", str(old), str(new)])
        return code, capsys.readouterr().out.splitlines()

    code, out = compare(lines)
    assert code == 0 and len(out) == 3
    assert all(" 0 of 1 records differ" in line for line in out)
    # a changed value and evaluation count are reported, not failed
    value = repr(records[2]["value"])
    changed = lines[2].replace(value, repr(records[2]["value"] * (1 + 1e-15)))
    changed = changed.replace("evaluations=", "evaluations=1")
    code, out = compare([*lines[:2], changed])
    assert code == 0
    assert out[2].startswith("d=20: 1 of 1 records differ (value 1, evaluations 1)")
    # a changed flag or piece fails the comparison
    converged = records[0]["converged"]
    for name, old_text, new_text in (
            ("converged", f"converged={converged}", f"converged={not converged}"),
            ("piece_j", "piece_j=", "piece_j=1")):
        code, out = compare([lines[0].replace(old_text, new_text), *lines[1:]])
        assert code == 1 and f"({name} 1)" in out[0]


def test_pool_values_are_right_or_flagged():
    # every reference of the pool, judged by the benchmark's own verdict:
    # a failing value must carry a flag, and the failures are the known
    # in-band ones of d >= 8 (ROADMAP item 1)
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
    assert len(refs) - sum(failed.values()) == 1273
    assert set(failed) == {8, 12, 20, 40, 80, 120}
