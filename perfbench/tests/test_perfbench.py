"""Tests of the benchmark itself: workloads, oracle, tracer, output contract.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from oracle import OracleFailure, check_residuals, check_verify_report, strict_json, VERIFY_ALL_TOLERANCES
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS, VerifyAll

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

# per-layer metrics that are counts or sizes, so they must repeat exactly
COUNTED = sorted(
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B", "points") and name != "checks.threads"
)


def _report(errors):
    checks = [
        {"check_id": cid, "max_error": errors.get(cid, 0.0), "tolerance": 1.0, "pass": True}
        for cid in VERIFY_ALL_TOLERANCES
    ]
    text = json.dumps({"suite": "all", "checks": checks, "all_pass": True})
    return text.encode()


class _Scripted:
    """A fake workload whose op i returns or raises the i-th scripted outcome."""

    name = "fake"

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def run(self, i):
        outcome = self.outcomes[i]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def judge(self, i, output):
        kind, value = output
        if kind == "residual":
            check_residuals({"r": value}, {"r": 1e-12})
        else:
            check_verify_report(0, value)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_counts_nan_exceptions_and_nan_literals_as_failures():
    nan_report = _report({"algebra.generator_commutation": float("nan")})
    assert b"NaN" in nan_report
    outcomes = [
        ("residual", 0.0),
        ("residual", float("nan")),
        ("residual", float("inf")),
        ("residual", 1e-9),
        ValueError("check raised"),
        SystemExit(1),
        ("report", nan_report),
        ("report", _report({})),
    ]
    tally = run.Tally()
    workload = _Scripted(outcomes)
    latencies = [run.timed_op(workload, i, tally) for i in range(len(outcomes))]
    assert tally.attempted == 8
    assert tally.failed == 6
    assert all(x >= 0 for x in latencies)


def test_strict_json_rejects_non_rfc_literals():
    for literal in (b"NaN", b"Infinity", b"-Infinity", b'{"x": NaN}'):
        with pytest.raises(OracleFailure):
            strict_json(literal)
    assert strict_json(b'{"x": 1e-3}') == {"x": 1e-3}


def test_verify_report_ignores_the_programs_pass_flag_and_tolerance():
    check_verify_report(0, _report({}))
    with pytest.raises(OracleFailure):
        check_verify_report(0, _report({"oscillator.grid_oracle": 2e-3}))
    with pytest.raises(OracleFailure):
        check_verify_report(1, _report({}))
    short = json.loads(_report({}))
    short["checks"].pop()
    with pytest.raises(OracleFailure):
        check_verify_report(0, json.dumps(short).encode())


def test_verify_all_fails_an_op_whose_recurrence_changes_bytes(tmp_path):
    workload = VerifyAll(None, 5, str(tmp_path))
    with open(workload.path, "wb") as handle:
        handle.write(_report({}))
    workload.judge(0, 0)
    with open(workload.path, "wb") as handle:
        handle.write(_report({"ktheory.fixed_parts": 0}))
    with pytest.raises(OracleFailure):
        workload.judge(workload.cycle, 0)


# ---------------------------------------------------------------------------
# tiny runs of every workload
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_is_correct(name, tmp_path):
    tally = run.Tally()
    _package, workload, setup_s, pool = run.set_up(name, 3, str(tmp_path), tally)
    assert (pool is not None) == (name == "verify-all")
    latencies, wall = run.measure(workload, 0, tally)
    assert len(latencies) == 1 and wall > 0 and setup_s > 0
    assert (tally.attempted, tally.failed) == (2, 0), tally.reasons


def test_command_prints_the_contract_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transform-cycle", "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = done.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["seed"] == 4 and meta["samples"]["setup_s"] == 5 and meta["why"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair-evaluators", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_names_what_the_code_reports():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == PER_LAYER


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def _counts(name, seed):
    tally, metrics, _meta = run.traced(name, seed, 1)
    assert tally.failed == 0, tally.reasons
    assert set(metrics) == set(PER_LAYER)
    return {key: metrics[key]["value"] for key in COUNTED}, metrics


@pytest.mark.parametrize("name", ["pair-evaluators", "transform-cycle"])
def test_per_layer_counts_repeat_exactly_for_a_fixed_seed(name):
    first, metrics = _counts(name, 7)
    second, _ = _counts(name, 7)
    assert first == second
    assert metrics["scalars.calls"]["value"] == 0
    assert metrics["groupoids.calls"]["value"] == 0
    assert metrics["checks.calls"]["value"] == 0
    assert metrics["closedform.calls"]["value"] > 0
    if name == "pair-evaluators":
        assert metrics["closedform.eval1.points_per_call"]["value"] == 1.0
        assert metrics["closedform.restrict_line.calls"]["value"] > 0
        assert metrics["duality.self_s"]["value"] > 0


def test_verify_all_trace_sees_every_layer_and_the_pool():
    _, metrics = _counts("verify-all", 2)
    value = {key: m["value"] for key, m in metrics.items()}
    for layer in ("scalars", "groupoids", "sampling", "oscillator", "linalg", "nctorus", "closedform",
                  "bimodules", "duality", "ktheory", "cli"):
        assert value[f"{layer}.calls"] > 0, layer
    assert value["checks.calls"] == 1 + len(VERIFY_ALL_TOLERANCES)
    assert value["checks.threads"] >= 1
    assert value["oscillator.matrix_bytes"] > 0 and value["linalg.input_bytes"] > 0
    assert value["trace.raised"] == 0


def test_tracer_restores_every_patched_name():
    package = run.load_package(ROOT)
    before = (
        package.nctorus.lambda_power,
        package.bimodules.lambda_power,
        package.cli.run_suite,
        package.closedform.GaussSum1.__dict__["__call__"],
        package.scalars.ThetaScalar.__dict__["of"],
        list(package.checks._REGISTRY["algebra"]),
        np.linalg.svd,
    )
    tracer = Tracer()
    tracer.install(package)
    assert package.bimodules.lambda_power is package.nctorus.lambda_power
    assert package.bimodules.lambda_power is not before[0]
    tracer.uninstall()
    after = (
        package.nctorus.lambda_power,
        package.bimodules.lambda_power,
        package.cli.run_suite,
        package.closedform.GaussSum1.__dict__["__call__"],
        package.scalars.ThetaScalar.__dict__["of"],
        list(package.checks._REGISTRY["algebra"]),
        np.linalg.svd,
    )
    assert all(a is b or a == b for a, b in zip(before, after))
    assert math.isclose(package.nctorus.lambda_power(0.25, 1).imag, 1.0)
