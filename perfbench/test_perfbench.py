"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import check
import run
import workloads

SETS, REFS = check.load_pool(run.POOL)


def _ref_point(set_name, finite=True):
    for d, w in SETS[set_name]:
        ref = REFS[check.key(d, w)]
        if ref.divergent != finite:
            return d, w, ref
    raise LookupError(set_name)


def test_right_value_passes_and_nan_counts_as_silent_wrong():
    d, w, ref = _ref_point("points/interior")
    tally = check.Tally()
    assert tally.add_value(REFS, d, w, ref.value, 1e-16, frozenset())
    assert tally.add_value(REFS, d, w, complex(math.nan, math.nan), 1e-16, frozenset()) is False
    assert (tally.values, tally.failed, tally.silent_wrong, tally.nan) == (2, 1, 1, 1)
    assert not tally.correct


def test_flagged_wrong_value_fails_loudly_and_large_d_stays_correct():
    d, w, ref = _ref_point("large/interior")
    tally = check.Tally()
    tally.add_value(REFS, d, w, ref.value * 1e20, 1e3, frozenset({"nonconverged"}))
    tally.add_value(REFS, d, w, complex(math.nan, math.nan), 1e-17, frozenset())
    assert (tally.failed, tally.silent_wrong, tally.silent_verified) == (2, 1, 0)
    assert tally.correct  # d > VERIFIED_MAX_D: counted, but not a broken run


def test_divergence_needs_flag_and_signed_infinities():
    d, w, ref = _ref_point("points/van_hove_exact", finite=False)
    assert check.value_ok(ref, ref.value, math.inf, frozenset({"divergent", "nonconverged"}))
    assert not check.value_ok(ref, ref.value, math.inf, frozenset())
    assert not check.value_ok(ref, -ref.value, math.inf, frozenset({"divergent"}))


def _csv(records):
    lines = ["d,omega,re,im,abs_error,piece_j,flags"]
    for d, w, v, flags in records:
        lines.append(f"{d},{w!r},{v.real!r},{v.imag!r},1e-16,0,{';'.join(flags)}")
    return "\n".join(lines) + "\n"


def test_exit_code_zero_on_flagged_records_counts_in_fail_frac():
    d, w, ref = _ref_point("cli/sweep_d20")
    d2, w2, ref2 = _ref_point("points/outside")
    text = _csv([(d, w, ref.value, ["nonconverged"]), (d2, w2, ref2.value, [])])
    tally = check.Tally()
    assert check.tally_cli(tally, REFS, "sweep", 0, text) == 2
    assert (tally.failed, tally.exit_mismatch, tally.silent_wrong) == (2, 1, 0)
    right = check.Tally()
    check.tally_cli(right, REFS, "sweep", 2, text)
    assert (right.failed, right.exit_mismatch) == (1, 0)


def test_selftest_exit_code_must_match_its_checks():
    text = "PASS  a  discrepancy=0  tolerance=1\nFAIL  b  discrepancy=2  tolerance=1\n"
    tally = check.Tally()
    check.tally_cli(tally, REFS, "selftest", 0, text)
    assert (tally.failed, tally.exit_mismatch) == (1, 1)
    crashed = check.Tally()
    check.tally_cli(crashed, REFS, "selftest", 1, "")
    assert (crashed.op_errors, crashed.correct) == (1, False)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name, tmp_path):
    a = workloads.make_calls(name, 7, SETS, str(tmp_path))
    assert a == workloads.make_calls(name, 7, SETS, str(tmp_path))
    assert a != workloads.make_calls(name, 8, SETS, str(tmp_path))
    for call in a:
        for w in call.get("omegas", [call.get("omega")]):
            if w is not None:
                assert check.key(call["d"], w) in REFS


def _bench(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_at_smoke_length(name):
    proc = _bench(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert out["attempted"] >= 1 and out["correct"] is True
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_layer():
    proc = _bench(["--workload", "points", "--seed", "3", "--seconds", "0.02", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out["metrics"]) == set(run.PER_LAYER)
    assert out["metrics"]["green.calls"]["value"] > 0
    assert out["metrics"]["bessel.nodes"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(["--workload", "points", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
