"""CLI behaviour: record schemas, round-tripping, exit codes."""
import csv
import io
import json
import math

import pytest

from latgreen.cli import main
from latgreen.green import green_local


def _subprocess_env():
    # the child imports this checkout's latgreen, however the suite found it
    import os

    import latgreen

    src = os.path.dirname(os.path.dirname(latgreen.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_eval_csv_schema_and_roundtrip(capsys):
    code, out = run_cli(capsys, "eval", "--d", "3", "--omega", "0.5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["d", "omega", "re", "im", "abs_error", "piece_j", "flags"]
    rec = rows[0]
    ref = green_local(3, 0.5)
    # 17 significant digits round-trip doubles exactly
    assert float(rec["re"]) == ref.value.real
    assert float(rec["im"]) == ref.value.imag
    assert int(rec["piece_j"]) == ref.piece_j
    assert rec["flags"] == ""


def test_eval_json_mirrors_fields(capsys):
    code, out = run_cli(capsys, "eval", "--d", "2", "--omega", "1.0",
                        "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["d"] == 2 and rec["omega"] == 1.0
    assert rec["flags"] == []
    assert rec["im"] < 0.0


def test_json_writes_non_finite_values_as_strings(capsys):
    # RFC 8259 JSON has no Infinity or NaN, and strict parsers reject them
    def strict(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code, out = run_cli(capsys, "eval", "--d", "1", "--omega", "1", "--format", "json")
    assert code == 2
    rec = json.loads(out, parse_constant=strict)[0]
    assert (rec["re"], rec["im"], rec["abs_error"]) == ("inf", "-inf", "inf")
    assert float(rec["re"]) == math.inf and "divergent" in rec["flags"]
    code, out = run_cli(capsys, "dos", "--d", "2", "--omega", "2", "--format", "json")
    assert code == 2
    rec = json.loads(out, parse_constant=strict)[0]
    assert rec["dos"] == "nan" and rec["abs_error"] == "inf"
    assert isinstance(rec["omega"], float)


def test_eval_divergent_exit_code_and_record(capsys):
    code, out = run_cli(capsys, "eval", "--d", "1", "--omega", "1")
    assert code == 2
    rec = next(csv.DictReader(io.StringIO(out)))
    assert float(rec["re"]) == math.inf
    assert float(rec["im"]) == -math.inf
    assert "divergent" in rec["flags"].split(";")
    assert "nonconverged" in rec["flags"].split(";")


def test_dos_subcommand(capsys):
    code, out = run_cli(capsys, "dos", "--d", "3", "--omega", "0")
    assert code == 0
    rec = next(csv.DictReader(io.StringIO(out)))
    assert list(rec) == ["d", "omega", "dos", "abs_error", "piece_j", "flags"]
    assert float(rec["dos"]) == pytest.approx(0.8964407887768 / math.pi, abs=1e-12)


def test_sweep_stdout_order(capsys):
    code, out = run_cli(capsys, "sweep", "--d", "2", "--omega-min", "-1",
                        "--omega-max", "1", "--steps", "5",
                        "--rel-tol", "1e-10")
    assert code == 2  # the divergent centre record sets the exit code
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["omega"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert rows[2]["flags"] != ""  # d=2 centre divergence flagged in-table


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, _ = run_cli(capsys, "sweep", "--d", "1", "--omega-min", "-0.5",
                      "--omega-max", "0.5", "--steps", "3", "--out", str(path))
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 3


def test_moments_exact_integers(capsys):
    code, out = run_cli(capsys, "moments", "--d", "3", "--kmax", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["d", "k", "numerator", "denominator", "decimal"]
    assert [(r["numerator"], r["denominator"]) for r in rows] == [
        ("1", "1"), ("3", "2"), ("45", "8")
    ]
    assert float(rows[2]["decimal"]) == 45.0 / 8.0


def test_moments_json(capsys):
    code, out = run_cli(capsys, "moments", "--d", "2", "--kmax", "2",
                        "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert recs[2]["numerator"] == 9 and recs[2]["denominator"] == 4


def test_malformed_flags_exit_one(capsys):
    assert main(["eval", "--d", "3"]) == 1          # missing --omega
    capsys.readouterr()
    assert main(["eval", "--d", "x", "--omega", "0"]) == 1
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 1
    capsys.readouterr()
    assert main(["eval", "--d", "0", "--omega", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["eval", "--d", "3", "--omega", "nan"], ["eval", "--d", "3", "--omega", "inf"],
    ["eval", "--d", "3", "--omega", "0", "--rel-tol", "-1"],
    ["eval", "--d", "3", "--omega", "0.3", "--rel-tol", "inf"],
    ["eval", "--d", "3", "--omega", "0.3", "--rel-tol", "nan"],
    # the library's own kmax check, turned into one error line
    ["moments", "--d", "3", "--kmax", "201"], ["moments", "--d", "3", "--kmax", "-1"],
    ["sweep", "--d", "1", "--omega-min", "0", "--omega-max", "1", "--steps", "1"],
    ["sweep", "--d", "1", "--omega-min", "0", "--omega-max", "0.5", "--steps", "2",
     "--out", "/nonexistent-dir/x.csv"],
    # a piece whose weights leave the double range
    ["eval", "--d", "1000", "--omega", "0"],
])
def test_bad_input_exits_one_without_traceback(argv):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "latgreen.cli", *argv],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_selftest_quick_passes(capsys):
    code, out = run_cli(capsys, "selftest", "--level", "quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "latgreen.cli", "eval", "--d", "1",
         "--omega", "0", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)[0]
    assert rec["im"] == pytest.approx(-1.0, abs=1e-13)


def test_eval_outside_band_at_d120_exits_0(capsys):
    code, out = run_cli(capsys, "eval", "--d", "120", "--omega", "240")
    assert code == 0
    rec = out.splitlines()[1].split(",")
    assert rec[5] == "120" and rec[6] == ""
    assert float(rec[2]) == pytest.approx(1 / 240, rel=0.01)


def test_eval_non_finite_value_exits_2(capsys):
    code, out = run_cli(capsys, "eval", "--d", "120", "--omega", "0")
    assert code == 2
    assert "nonconverged" in out


def test_import_does_not_load_scipy():
    # nor the oracles and the fractions module they use, which still
    # resolve through the package on first use
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, latgreen, latgreen.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
         "or m in ('latgreen.oracles', 'fractions')]); "
         "from latgreen import laurent_green; "
         "print(latgreen.moments(3, 2).moments[1], round(laurent_green(1, 2.0, 40).real, 12), "
         "'latgreen.oracles' in sys.modules)"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded, used = proc.stdout.splitlines()
    assert loaded == "[]"
    assert used == f"3/2 {round(1 / math.sqrt(3.0), 12)!r} True"
