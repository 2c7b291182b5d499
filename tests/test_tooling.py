"""The benchmark's tracer must find every function it wraps, and the
record dump must run."""
import importlib.util
import itertools
import os
import sys

from latgreen import green_local

ROOT = os.path.dirname(os.path.dirname(__file__))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402


def test_every_traced_name_resolves():
    # Tracer.install replaces each (module, attribute) pair; a name that no
    # longer exists would break a traced run, not this package's own tests
    missing = [(module.__name__, attr) for module, attr, _, _ in spans.targets()
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_dump_records_writes_the_first_inputs(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "dump_records", os.path.join(ROOT, "tools", "dump_records.py"))
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    out = tmp_path / "records.txt"
    assert dump.main([str(out), "--limit", "4"]) == 0
    lines = out.read_text().splitlines()
    # the first inputs are single pool points, one green_local call each
    first = list(itertools.islice(dump.inputs(), 4))
    assert all(len(omegas) == 1 for _, omegas, _ in first)
    assert lines == [repr(green_local(d, omegas[0], cfg)) for d, omegas, cfg in first]
    assert "4 records written" in capsys.readouterr().err
