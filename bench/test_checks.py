"""The benchmark's output checks catch corrupted outputs.

Run from the repository root: python3 -m pytest bench/test_checks.py
Each test corrupts one output of a small real run and confirms the checks
count a failed operation; the uncorrupted outputs pass.
"""

import json
import math
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from stormlab import cli, estimators, harness, optimizers, problems  # noqa: E402

LIB = {"problems": problems, "estimators": estimators, "optimizers": optimizers,
       "harness": harness, "cli": cli}


def _grid(doc):
    config = harness.parse_config(doc)
    return [(config, harness.run_grid(config))]


@pytest.fixture(scope="module")
def quad_outputs():
    return _grid({"problem": {"name": "noisy_quadratic", "dim": 5, "L": 4.0, "mu": 1.0,
                              "sigma": 0.5, "seed": 3},
                  "algorithms": [{"name": "ada_storm", "alpha": 0.3},
                                 {"name": "ada_storm_doubling", "alpha": 0.3}],
                  "grid": {"T": [50, 100, 200], "seeds": [1, 2]}})


def _tally(outputs):
    tally = checks.Tally()
    workloads.check_grids(outputs, LIB, tally)
    return tally


def test_clean_records_pass(quad_outputs):
    tally = _tally(quad_outputs)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures


def test_perturbed_eta_fails(quad_outputs):
    config, result = quad_outputs[0]
    record = result.records[3]
    saved = record.eta[7]
    record.eta[7] = saved * (1.0 + 1e-9)
    try:
        tally = _tally(quad_outputs)
    finally:
        record.eta[7] = saved
    assert tally.failed == 1
    assert tally.failures[0].startswith("schedule")


def test_nan_trace_row_fails(quad_outputs):
    config, result = quad_outputs[0]
    record = result.records[0]
    saved = record.v_norm_sq[4]
    record.v_norm_sq[4] = math.nan
    try:
        tally = _tally(quad_outputs)
    finally:
        record.v_norm_sq[4] = saved
    assert tally.failed >= 1
    assert any(f.startswith("trace") for f in tally.failures)


def test_wrong_exact_gradient_fails(quad_outputs):
    config, result = quad_outputs[0]
    record = result.records[1]
    i = record.tau - 1
    saved = record.grad_norm[i]
    record.grad_norm[i] = saved * (1.0 + 1e-6)
    try:
        tally = _tally(quad_outputs)
    finally:
        record.grad_norm[i] = saved
    assert any(f.startswith("gradient") for f in tally.failures)


def test_rate_limit_fails_on_flat_slope():
    assert checks.check_slope_limit("ada_storm", "ada_storm", -0.2, 0.99)
    assert checks.check_slope_limit("ada_storm", "ada_storm", -0.3, 0.8)
    assert not checks.check_slope_limit("ada_storm", "ada_storm", -0.3, 0.95)
    assert checks.check_slope_limit("anchored", "fs_storm_svrg", -0.9, 1.0, anchor_slope=-0.7)


def test_oracle_counts():
    table = {"name": "fs_storm", "alpha": 0.3}
    anchored = {"name": "fs_storm_svrg", "alpha": 0.3, "period": 50}
    assert checks.expected_oracle_calls(table, 1000, 300) == {
        "component_grad": 1000 + 2 * 299, "full_grad": 0}
    # full passes at t = 1 and at t = 50, 100, ..., 300
    assert checks.expected_oracle_calls(anchored, 1000, 300) == {
        "component_grad": 3 * 299, "full_grad": 7}
    tally = checks.Tally()
    tally.check("oracle calls", checks.check_oracle_calls, table, 1000, 300,
                {"component_grad": 1000 + 2 * 299 + 1, "full_grad": 0})
    assert tally.failed == 1


def test_large_n_counts_match_a_real_run(tmp_path):
    """The finite-sum cost law holds for counts taken around a real run."""
    from tracer import CellLog

    saved = dict(problems.FiniteSumProblem.__dict__)
    log = CellLog(str(tmp_path))
    log.count_oracles(problems)
    try:
        run_cell = log.wrap_cell(optimizers.run_algorithm)
        problem = problems.make_finite_sum(200, 4, 5)
        algo = {"name": "fs_storm_svrg", "alpha": 0.3, "period": 30}
        run_cell("fs_storm_svrg", problem, 100, 1, alpha=0.3, period=30)
        counted = log.cells[0]["oracle"]
        assert not checks.check_oracle_calls(algo, 200, 100, counted)
        wrong = dict(counted, component_grad=counted["component_grad"] - 1)
        assert checks.check_oracle_calls(algo, 200, 100, wrong)
    finally:
        for name in ("component_grad", "full_grad"):
            setattr(problems.FiniteSumProblem, name, saved[name])


@pytest.fixture()
def cli_run(tmp_path):
    doc = {"problem": {"name": "noisy_quadratic", "dim": 4, "L": 4.0, "mu": 1.0,
                       "sigma": 0.5, "seed": 9},
           "algorithms": [{"name": "ada_storm", "alpha": 0.3},
                          {"name": "sgd", "eta0": 0.05, "decay": 0.1}],
           "grid": {"T": [40, 80, 160], "seeds": [1, 2]},
           "output": {"thin": 1}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    inputs = {"docs": [doc], "jobs": 1, "config_path": str(path),
              "artifacts": str(tmp_path / "artifacts")}
    code = workloads.run("cli-artifacts", inputs, LIB)

    def tally():
        inputs["samples"] = random.Random(0)
        t = checks.Tally()
        workloads.check("cli-artifacts", inputs, code, LIB, [], t)
        return t

    return inputs, tally


def test_clean_cli_artifacts_pass(cli_run):
    _, tally = cli_run
    t = tally()
    assert t.attempted > 0
    assert t.failed == 0, t.failures


def test_wrong_summary_slope_fails(cli_run):
    inputs, tally = cli_run
    path = os.path.join(inputs["artifacts"], "summary.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["slopes"][0]["slope"] += 1e-6
    with open(path, "w") as fh:
        json.dump(doc, fh)
    t = tally()
    assert t.failed == 1
    assert t.failures[0].startswith("summary slope")


def test_nan_in_summary_json_fails(cli_run):
    inputs, tally = cli_run
    path = os.path.join(inputs["artifacts"], "summary.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["rows"][0]["avg_grad_norm_stderr"] = math.nan
    with open(path, "w") as fh:
        json.dump(doc, fh)  # writes a bare NaN token
    t = tally()
    assert any(f.startswith("summary.json") for f in t.failures)


def test_truncated_trace_csv_fails(cli_run):
    inputs, tally = cli_run
    path = os.path.join(inputs["artifacts"], "trace__sgd__noisy_quadratic__T80__seed2.csv")
    with open(path) as fh:
        lines = fh.read().split("\n")
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:30]) + "\n")
    t = tally()
    assert any(f.startswith("csv sgd__noisy_quadratic__T80__seed2") for f in t.failures)
    assert any(f.startswith("summary row sgd T=80") for f in t.failures)


def test_trace_csv_differing_from_serial_run_fails(cli_run):
    inputs, tally = cli_run
    for name in sorted(os.listdir(inputs["artifacts"])):
        if name.startswith("trace__"):
            path = os.path.join(inputs["artifacts"], name)
            with open(path) as fh:
                lines = fh.read().split("\n")
            fields = lines[1].split(",")
            fields[6] = repr(float(fields[6]) * (1.0 + 1e-15))  # est_error, no other check reads it
            lines[1] = ",".join(fields)
            with open(path, "w") as fh:
                fh.write("\n".join(lines))
    failures = tally().failures
    assert failures and all(f.startswith("serial rerun") for f in failures)
