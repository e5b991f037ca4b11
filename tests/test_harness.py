import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormlab
from stormlab import harness, problems
from stormlab.cli import main as cli_main
from stormlab.harness import (
    CHECK_PROBLEMS,
    _write_csv,
    GridResult,
    SummaryRow,
    load_summary,
    parse_config,
    run_grid,
    run_property_checks,
    write_outputs,
    write_trace_csv,
)
from stormlab.optimizers import run_ada_storm
from stormlab.problems import make_noisy_quadratic

BASE_CONFIG = {
    "problem": {"name": "noisy_quadratic", "dim": 4, "L": 5.0, "mu": 1.0,
                "sigma": 0.5, "seed": 3},
    "algorithms": [
        {"name": "ada_storm", "alpha": 0.3},
        {"name": "sgd", "eta0": 0.05, "decay": 0.1},
    ],
    "grid": {"T": [40, 80, 160], "seeds": [1, 2, 3, 4, 5]},
    "output": {"thin": 1},
}


def _config(**overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    return doc


# --- parsing -----------------------------------------------------------------


def test_parse_fills_defaults_and_round_trips():
    cfg = parse_config(json.dumps(_config()))
    assert cfg.T_grid == [40, 80, 160]
    assert cfg.seeds == [1, 2, 3, 4, 5]
    assert cfg.thin == 1
    assert cfg.algorithms[0]["label"] == "ada_storm"
    reparsed = parse_config(cfg.to_json())
    assert reparsed == cfg


def test_parse_single_algorithm_key():
    doc = _config()
    doc["algorithm"] = {"name": "ada_storm"}
    del doc["algorithms"]
    cfg = parse_config(doc)
    assert len(cfg.algorithms) == 1
    assert cfg.algorithms[0]["alpha"] == 0.3  # default filled in


def test_parse_rejects_unknown_keys_everywhere():
    with pytest.raises(ValueError, match="unknown keys in config"):
        parse_config(_config(mystery=1))
    doc = _config()
    doc["grid"]["extra"] = 2
    with pytest.raises(ValueError, match="unknown keys in grid"):
        parse_config(doc)
    doc = _config()
    doc["algorithms"][0]["warp"] = 9
    with pytest.raises(ValueError, match="unknown keys in algorithm"):
        parse_config(doc)
    doc = _config()
    doc["problem"]["bonus"] = True
    with pytest.raises(ValueError, match="unknown fields"):
        parse_config(doc)
    doc = _config()
    doc["output"]["fmt"] = "csv"
    with pytest.raises(ValueError, match="unknown keys in output"):
        parse_config(doc)


def test_parse_rejects_alpha_out_of_range():
    for bad in (0.0, 1.0 / 3.0, 0.5, -0.1):
        doc = _config()
        doc["algorithms"][0]["alpha"] = bad
        with pytest.raises(ValueError, match="alpha"):
            parse_config(doc)


def test_parse_rejects_duplicate_seeds():
    doc = _config()
    doc["grid"]["seeds"] = [1, 2, 2]
    with pytest.raises(ValueError, match="duplicate seeds"):
        parse_config(doc)


def test_parse_rejects_non_integral_counts_naming_the_key():
    # these used to be truncated to T = [10, 1], seeds = [2], thin = 1
    for key, bad in (("T", [10.9, 20]), ("T", [40, True]), ("seeds", [2.7]), ("seeds", [1, False]),
                     ("seeds", ["3"])):
        doc = _config()
        doc["grid"][key] = bad
        with pytest.raises(ValueError, match=f"grid {'seed' if key == 'seeds' else key}"):
            parse_config(doc)
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="thin"):
            parse_config(_config(output={"thin": bad}))
    # a whole float is its integer
    cfg = parse_config(_config(grid={"T": [40.0, 80], "seeds": [1.0]}, output={"thin": 2.0}))
    assert (cfg.T_grid, cfg.seeds, cfg.thin) == ([40, 80], [1], 2)
    assert all(type(v) is int for v in cfg.T_grid + cfg.seeds + [cfg.thin])


# Each of these used to run as something other than what it says (seed 7.9
# as 7, sigma true as 1.0) or to fail deep in the constructor (n 100.5).
BAD_PROBLEM_FIELDS = (
    ({"name": "noisy_quadratic", "dim": 4, "L": 5.0, "mu": 1.0, "sigma": 0.5}, "seed",
     (7.9, True, "3", None)),
    ({"name": "noisy_quadratic", "dim": 4, "L": 5.0, "mu": 1.0, "seed": 3}, "sigma",
     (True, "0.5", math.nan, math.inf)),
    ({"name": "noisy_quadratic", "dim": 4, "mu": 1.0, "sigma": 0.5, "seed": 3}, "L",
     (False, -math.inf)),
    ({"name": "nonconvex_smooth", "sigma": 1.0, "seed": 2}, "dim", (2.5, "4", True)),
    ({"name": "finite_sum", "dim": 3, "seed": 4}, "n", (100.5, False, "100")),
    ({"name": "compositional", "dim": 3, "sigma": 1.0, "seed": 5}, "inner_dim", (1.5, True)),
)


def test_parse_rejects_problem_fields_naming_the_field():
    for partial, field, bads in BAD_PROBLEM_FIELDS:
        for bad in bads:
            spec = dict(partial, **{field: bad})
            with pytest.raises(ValueError, match=f"^{field} must be a "):
                parse_config(_config(problem=spec))
            # the constructor runs the same check
            args = {k: v for k, v in spec.items() if k != "name"}
            with pytest.raises(ValueError, match=f"^{field} must be a "):
                problems.FAMILIES[spec["name"]](**args)


def test_parse_stores_whole_problem_fields_as_ints():
    doc = _config(problem={"name": "finite_sum", "n": 100.0, "dim": 3.0, "seed": 7.0})
    cfg = parse_config(doc)
    assert cfg.problem == {"name": "finite_sum", "n": 100, "dim": 3, "seed": 7}
    assert all(type(cfg.problem[k]) is int for k in ("n", "dim", "seed"))
    assert json.loads(cfg.to_json())["problem"]["seed"] == 7
    # real fields are kept as written
    assert parse_config(_config()).problem == BASE_CONFIG["problem"]


def test_parse_checks_the_problem_without_building_it(monkeypatch):
    def never(self, n, dim, seed):
        raise AssertionError("parse_config built the problem")

    monkeypatch.setattr(problems.FiniteSumProblem, "__init__", never)
    doc = _config(problem={"name": "finite_sum", "n": 20_000, "dim": 20, "seed": 1})
    doc["algorithms"] = [{"name": "fs_storm"}]
    assert parse_config(doc).problem["n"] == 20_000
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        parse_config(dict(doc, problem={"name": "finite_sum", "n": 0, "dim": 20, "seed": 1}))


def test_parse_rejects_bad_grid_and_labels():
    doc = _config()
    doc["grid"]["T"] = [0]
    with pytest.raises(ValueError, match=r"^grid T must be >= 1, got 0$"):
        parse_config(doc)
    doc["grid"]["T"] = []
    with pytest.raises(ValueError, match="at least one T"):
        parse_config(doc)
    doc = _config()
    doc["grid"]["T"] = [40, 40]
    with pytest.raises(ValueError, match="distinct"):
        parse_config(doc)
    doc = _config()
    doc["algorithms"] = [{"name": "ada_storm"}, {"name": "ada_storm"}]
    with pytest.raises(ValueError, match="labels"):
        parse_config(doc)
    doc = _config()
    doc["algorithms"] = []
    with pytest.raises(ValueError, match="nonempty"):
        parse_config(doc)
    doc = _config()
    doc["algorithm"] = {"name": "ada_storm"}
    with pytest.raises(ValueError, match="exactly one"):
        parse_config(doc)


def test_parse_rejects_incompatible_algorithm():
    doc = _config()
    doc["algorithms"] = [{"name": "comp_storm"}]
    with pytest.raises(ValueError, match="does not accept"):
        parse_config(doc)


def test_labels_allow_same_algorithm_twice():
    doc = _config()
    doc["algorithms"] = [
        {"name": "sgd", "eta0": 0.1, "label": "sgd-fast"},
        {"name": "sgd", "eta0": 0.01, "label": "sgd-slow"},
    ]
    cfg = parse_config(doc)
    assert [a["label"] for a in cfg.algorithms] == ["sgd-fast", "sgd-slow"]


# --- grid running ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_result():
    cfg = parse_config(json.dumps(BASE_CONFIG))
    return cfg, run_grid(cfg)


def test_grid_produces_all_cells(small_result):
    cfg, result = small_result
    assert len(result.cells) == 2 * 3 * 5  # algorithms x T x seeds
    assert all(rec is not None for rec in result.records)
    assert result.ok
    assert len(result.rows) == 2 * 3
    assert {row.algorithm for row in result.rows} == {"ada_storm", "sgd"}
    # three horizons per algorithm: slope fits exist for both
    assert {s["algorithm"] for s in result.slopes} == {"ada_storm", "sgd"}


def test_grid_seed_permutation_gives_identical_rows(small_result):
    cfg, result = small_result
    doc = _config()
    doc["grid"]["seeds"] = [5, 3, 1, 4, 2]
    permuted = run_grid(parse_config(doc))
    assert permuted.rows == result.rows


def test_grid_parallel_matches_serial(small_result):
    cfg, result = small_result
    parallel = run_grid(cfg, jobs=2)
    assert parallel.rows == result.rows
    for a, b in zip(result.records, parallel.records):
        np.testing.assert_array_equal(a.grad_norm, b.grad_norm)
        np.testing.assert_array_equal(a.x_final, b.x_final)


def test_grid_builds_its_problem_once_and_jobs_keep_bytes(monkeypatch, tmp_path):
    doc = {
        "problem": {"name": "finite_sum", "n": 30, "dim": 3, "seed": 4},
        "algorithms": [{"name": "fs_storm"}, {"name": "fs_storm_svrg", "period": 7}],
        "grid": {"T": [20, 30], "seeds": [1, 2, 3]},
    }
    cfg = parse_config(doc)
    log = tmp_path / "built.txt"  # pool workers append here too

    class Counted(problems.FiniteSumProblem):
        def __init__(self, n, dim, seed):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            super().__init__(n, dim, seed)

    monkeypatch.setitem(problems.FAMILIES, "finite_sum", Counted)
    for jobs in (1, 2):
        log.write_text("")
        result = run_grid(cfg, jobs=jobs)
        assert result.ok and len(result.records) == 12
        assert log.read_text().splitlines() == [str(os.getpid())], jobs
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert cli_main(["run", str(path), "--out", str(out), "--jobs", jobs]) == 0
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert len(outputs[0]) == 12 + 2 + 2
    assert outputs[0] == outputs[1]


def _dir_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("jobs", [1, 2])
def test_streamed_outputs_match_write_outputs(tmp_path, jobs):
    # The second grid's sgd cells diverge: they get no trace file, and every
    # other file is still written.
    grids = (
        (_config(grid={"T": [20, 40, 80], "seeds": [1, 2]}), 3, 6 + 6 + 2 + 2),
        ({"problem": {"name": "noisy_quadratic", "dim": 20, "L": 10.0, "mu": 1.0,
                      "sigma": 1.0, "seed": 11},
          "algorithms": [{"name": "sgd", "eta0": 5}, {"name": "ada_storm"}],
          "grid": {"T": [500, 1000, 2000], "seeds": [1, 2]}}, None, 6 + 2 + 1),
    )
    for i, (doc, thin, n_files) in enumerate(grids):
        cfg = parse_config(doc)
        streamed, written = tmp_path / f"streamed{i}", tmp_path / f"written{i}"
        result = run_grid(cfg, jobs=jobs, out_dir=streamed, thin=thin)
        write_outputs(run_grid(cfg), cfg, written, thin=thin)
        assert _dir_bytes(streamed) == _dir_bytes(written)
        assert len(_dir_bytes(streamed)) == n_files
        failed = {f["cell"] for f in result.failures}
        traced = {n[len("trace__"):-len(".csv")] for n in os.listdir(streamed)
                  if n.startswith("trace__")}
        assert not failed & traced
        assert len(failed) + len(traced) == len(result.cells)


def test_grid_matches_direct_runs(small_result):
    cfg, result = small_result
    quad = make_noisy_quadratic(dim=4, L=5.0, mu=1.0, sigma=0.5, seed=3)
    direct = run_ada_storm(quad, 40, alpha=0.3, seed=1)
    np.testing.assert_array_equal(result.records[0].grad_norm, direct.grad_norm)


# --- outputs ---------------------------------------------------------------------


def test_write_outputs_files_and_determinism(small_result, tmp_path):
    cfg, result = small_result
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    paths_a = write_outputs(result, cfg, dir_a)
    rerun = run_grid(cfg)
    write_outputs(rerun, cfg, dir_b)
    assert (dir_a / "summary.csv").exists()
    assert (dir_a / "summary.json").exists()
    assert (dir_a / "plot__ada_storm__noisy_quadratic.csv").exists()
    trace_names = [p for p in os.listdir(dir_a) if p.startswith("trace__")]
    assert len(trace_names) == 30
    for name in sorted(os.listdir(dir_a)):
        with open(dir_a / name, "rb") as fa, open(dir_b / name, "rb") as fb:
            assert fa.read() == fb.read(), f"byte mismatch in {name}"
    assert len(paths_a) == 30 + 2 + 2


def test_trace_csv_header_and_values(small_result, tmp_path):
    cfg, result = small_result
    rec = result.records[0]
    path = tmp_path / "trace.csv"
    write_trace_csv(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f,grad_norm,v_norm_sq,eta,beta,est_error"
    assert len(lines) == rec.T + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == rec.f[0]  # 17 digits round-trip losslessly
    assert float(first[3]) == rec.v_norm_sq[0]
    last = lines[-1].split(",")
    assert int(last[0]) == rec.T
    assert float(last[6]) == rec.est_error[-1]


def test_trace_thinning_keeps_every_kth_row(small_result, tmp_path):
    cfg, result = small_result
    rec = result.records[0]  # T = 40
    path = tmp_path / "thin.csv"
    write_trace_csv(rec, path, thin=7)
    lines = path.read_text().splitlines()
    ts = [int(line.split(",")[0]) for line in lines[1:]]
    assert ts == [1, 8, 15, 22, 29, 36]


def test_thinning_does_not_change_summary(small_result, tmp_path):
    cfg, result = small_result
    write_outputs(result, cfg, tmp_path / "full", thin=1)
    write_outputs(result, cfg, tmp_path / "thin", thin=10)
    full = (tmp_path / "full" / "summary.csv").read_text()
    thin = (tmp_path / "thin" / "summary.csv").read_text()
    assert full == thin


def test_summary_json_round_trip(small_result, tmp_path):
    cfg, result = small_result
    write_outputs(result, cfg, tmp_path)
    rows, slopes, failures = load_summary(tmp_path / "summary.json")
    assert rows == result.rows
    assert failures == []
    assert [s["slope"] for s in slopes] == [s["slope"] for s in result.slopes]


def test_float_serialization_17_digits(tmp_path, small_result):
    cfg, result = small_result
    write_outputs(result, cfg, tmp_path)
    text = (tmp_path / "summary.csv").read_text()
    # every float cell reparses to a value that reserializes identically
    for line in text.splitlines()[1:]:
        for cell in line.split(",")[4:]:
            assert f"{float(cell):.17g}" == cell


# Every float64 bit pattern, plus the special values spelled out.
FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]
)
CSV_COLUMNS = {
    "f": st.one_of(FLOAT_BITS, SPECIAL_FLOATS, st.floats()),
    "i": st.integers(-(2**63), 2**63 - 1),
    "s": st.text(alphabet="ab_%s9 .", max_size=6),
}


def _reference_csv(columns, thin):
    """One format call per value: '{:.17g}' for floats, str otherwise."""
    cells = []
    for values in columns.values():
        values = np.asarray(values)[::thin]
        fmt = "{:.17g}".format if values.dtype.kind == "f" else str
        cells.append([fmt(v) for v in values.tolist()])
    lines = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


@st.composite
def _csv_tables(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_COLUMNS)), min_size=1, max_size=5))
    columns = {}
    for j, kind in enumerate(kinds):
        values = draw(st.lists(CSV_COLUMNS[kind], min_size=rows, max_size=rows))
        columns[f"{kind}{j}"] = np.array(values, dtype={"f": float, "i": np.int64}.get(kind, str))
    return columns


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=300, deadline=None)
@given(columns=_csv_tables(), thin=st.integers(1, 5))
def test_write_csv_matches_per_value_formatting(csv_dir, columns, thin):
    path = csv_dir / "table.csv"
    _write_csv(path, columns, thin)
    assert path.read_bytes() == _reference_csv(columns, thin).encode()


def test_summary_and_plot_csv_bytes(tmp_path):
    doc = _config(algorithms=[{"name": "ada_storm", "label": "a"}, {"name": "sgd", "label": "s"}])
    cfg = parse_config(doc)
    rows = [
        SummaryRow("a", "noisy_quadratic", 80, 5, 0.1, 1 / 3, 2.5, 0.0, 1e-20, 7.0),
        SummaryRow("a", "noisy_quadratic", 40, 3, 123456789.123, 0.5, 1.0, 2.0, 3.0, 4.0),
    ]
    written = write_outputs(GridResult(cells=[], records=[], rows=rows), cfg, tmp_path)
    assert sorted(os.path.basename(p) for p in written) == [
        "plot__a__noisy_quadratic.csv", "summary.csv", "summary.json"]
    # Header order is the SummaryRow field order; ints are bare, floats %.17g.
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"algorithm,problem,T,n_seeds,avg_grad_norm,avg_grad_norm_stderr,tau_grad_norm,"
        b"tau_grad_norm_stderr,final_quarter_grad_norm,final_quarter_grad_norm_stderr\n"
        b"a,noisy_quadratic,80,5,0.10000000000000001,0.33333333333333331,2.5,0,"
        b"9.9999999999999995e-21,7\n"
        b"a,noisy_quadratic,40,3,123456789.123,0.5,1,2,3,4\n"
    )
    # One plot file per label with rows, sorted by T.
    assert (tmp_path / "plot__a__noisy_quadratic.csv").read_bytes() == (
        b"T,avg_grad_norm,avg_grad_norm_stderr,tau_grad_norm,tau_grad_norm_stderr,"
        b"final_quarter_grad_norm,final_quarter_grad_norm_stderr\n"
        b"40,123456789.123,0.5,1,2,3,4\n"
        b"80,0.10000000000000001,0.33333333333333331,2.5,0,9.9999999999999995e-21,7\n"
    )


# --- failure reporting ------------------------------------------------------------


def test_failing_cell_is_reported_but_grid_continues(monkeypatch):
    cfg = parse_config(json.dumps(BASE_CONFIG))
    import stormlab.harness as harness

    original = harness._run_cell

    def flaky(payload):
        _, algo, T, seed = payload
        if algo["name"] == "sgd" and T == 80 and seed == 3:
            raise RuntimeError("synthetic cell failure")
        return original(payload)

    monkeypatch.setattr(harness, "_run_cell", flaky)
    result = run_grid(cfg)
    assert not result.ok
    assert len(result.failures) == 1
    assert "synthetic cell failure" in result.failures[0]["error"]
    assert sum(rec is None for rec in result.records) == 1
    # the sgd T=80 summary row now aggregates 4 seeds instead of 5
    row = next(r for r in result.rows if r.algorithm == "sgd" and r.T == 80)
    assert row.n_seeds == 4


def test_dead_worker_fails_only_its_own_cell(monkeypatch, tmp_path):
    # At --jobs 2 the cell's forked worker exits; serially the same cell
    # raises. Every other file is the same bytes, and both runs exit 1.
    import stormlab.harness as harness

    doc = _config(algorithms=[{"name": "sgd", "eta0": 0.05}],
                  grid={"T": [20, 40, 80], "seeds": [1, 2]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    original = harness._run_cell

    def dying(payload):
        if payload[2:] == (40, 1):
            os._exit(3)
        return original(payload)

    def failing(payload):
        if payload[2:] == (40, 1):
            raise RuntimeError("synthetic cell failure")
        return original(payload)

    outputs = {}
    for jobs, cell in (("1", failing), ("2", dying)):
        monkeypatch.setattr(harness, "_run_cell", cell)
        out = tmp_path / jobs
        assert cli_main(["run", str(path), "--out", str(out), "--jobs", jobs]) == 1
        outputs[jobs] = _dir_bytes(out)
    summaries = {jobs: json.loads(files.pop("summary.json")) for jobs, files in outputs.items()}
    assert outputs["1"] == outputs["2"]
    assert len(outputs["2"]) == 5 + 1 + 1  # five traces, summary.csv, one plot
    serial, parallel = ([f.pop("error") for f in s["failures"]] for s in summaries.values())
    assert serial == ["RuntimeError: synthetic cell failure"]
    assert len(parallel) == 1 and parallel[0].startswith("BrokenProcessPool: ")
    assert summaries["1"] == summaries["2"]
    assert summaries["2"]["failures"] == [{"cell": "sgd__noisy_quadratic__T40__seed1"}]


# --- property checks and CLI -------------------------------------------------------


def test_property_checks_pass():
    results = run_property_checks()
    assert len(results) == 3
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"


def test_check_problem_roster_covers_all_families():
    assert {p["name"] for p in CHECK_PROBLEMS} == {
        "noisy_quadratic", "nonconvex_smooth", "finite_sum", "compositional"
    }


@pytest.fixture()
def tiny_config_file(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["grid"] = {"T": [20, 40, 80], "seeds": [1, 2]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_run_writes_outputs_and_exits_zero(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = cli_main(["run", str(tiny_config_file), "--out", str(out_dir)])
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote outputs" in captured.out
    assert "slope" in captured.out
    assert (out_dir / "summary.json").exists()


def test_cli_run_flag_form_and_jobs(tiny_config_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["run", "--config", str(tiny_config_file), "--out", str(out_a)]) == 0
    assert cli_main(
        ["run", str(tiny_config_file), "--out", str(out_b), "--jobs", "2"]
    ) == 0
    for name in sorted(os.listdir(out_a)):
        with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
            assert fa.read() == fb.read()


def test_cli_run_thin_flag(tiny_config_file, tmp_path):
    out_dir = tmp_path / "thin"
    assert cli_main(["run", str(tiny_config_file), "--out", str(out_dir), "--thin", "5"]) == 0
    trace = next(p for p in os.listdir(out_dir) if p.startswith("trace__"))
    lines = (out_dir / trace).read_text().splitlines()
    ts = [int(line.split(",")[0]) for line in lines[1:]]
    assert all((t - 1) % 5 == 0 for t in ts)


def test_cli_run_requires_config(capsys):
    assert cli_main(["run"]) == 2
    assert "config path" in capsys.readouterr().err


def test_cli_check_passes(capsys):
    code = cli_main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_cli_slopes_prints_fits(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cli_main(["run", str(tiny_config_file), "--out", str(out_dir)])
    capsys.readouterr()
    code = cli_main(["slopes", str(out_dir / "summary.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "ada_storm" in out and "slope=" in out


def test_cli_slopes_prints_only_the_stored_fits(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cli_main(["run", str(tiny_config_file), "--out", str(out_dir)])
    path = out_dir / "summary.json"
    doc = json.loads(path.read_text())
    assert doc["rows"] and doc["slopes"]
    doc["slopes"] = []
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["slopes", str(path)]) == 0
    assert capsys.readouterr().out == "no slope fits available (need >= 3 horizons per algorithm)\n"


def test_cli_slopes_missing_file(tmp_path, capsys):
    code = cli_main(["slopes", str(tmp_path / "absent.json")])
    assert code == 2
    assert "could not read" in capsys.readouterr().err


def test_cli_run_rejects_nonpositive_counts_before_running(tiny_config_file, tmp_path, capsys):
    for flag in ("--thin", "--jobs"):
        for bad, message in (("0", "must be >= 1, got 0"),
                             ("2.5", "must be a whole number, got 2.5"),
                             ("true", "must be a whole number, got 'true'")):
            out_dir = tmp_path / f"out{flag}"
            with pytest.raises(SystemExit) as info:
                cli_main(["run", str(tiny_config_file), "--out", str(out_dir), flag, bad])
            assert info.value.code == 2
            assert f"argument {flag}: {flag[2:]} {message}" in capsys.readouterr().err
            assert not out_dir.exists()


def test_cli_run_takes_whole_float_counts(tiny_config_file, tmp_path):
    outputs = []
    for thin in ("5", "5.0"):
        out_dir = tmp_path / thin
        assert cli_main(["run", str(tiny_config_file), "--out", str(out_dir), "--thin", thin]) == 0
        outputs.append(_dir_bytes(out_dir))
    assert outputs[0] == outputs[1]


def test_grid_starts_no_more_workers_than_cells(monkeypatch):
    import concurrent.futures

    started = []

    class StandIn:
        """Runs the cells in this process and records the pool size asked for."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandIn)
    monkeypatch.setattr(harness, "_worker_problem", None)
    cfg = parse_config(_config(grid={"T": [20], "seeds": [1, 2]}))  # 4 cells
    serial = run_grid(cfg)
    for jobs, workers in ((2, 2), (3, 3), (8, 4)):
        result = run_grid(cfg, jobs=jobs)
        assert started.pop() == workers
        assert result.ok and result.rows == serial.rows


def test_package_import_leaves_the_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(stormlab.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import stormlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_diverging_cells_fail_and_summary_json_stays_strict(tmp_path):
    doc = {
        "problem": {"name": "noisy_quadratic", "dim": 20, "L": 10.0, "mu": 1.0,
                    "sigma": 1.0, "seed": 11},
        "algorithm": {"name": "sgd", "eta0": 5},
        "grid": {"T": [500, 1000, 2000], "seeds": [1, 2]},
    }
    cfg = parse_config(doc)
    result = run_grid(cfg)
    assert not result.ok
    assert len(result.failures) == 6
    assert all(f["error"].startswith("DivergenceError: ") for f in result.failures)

    def reject(token):
        raise ValueError(f"bare {token} in summary.json")

    write_outputs(result, cfg, tmp_path / "grid")
    json.loads((tmp_path / "grid" / "summary.json").read_text(), parse_constant=reject)

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "cli"
    assert cli_main(["run", str(cfg_path), "--out", str(out_dir)]) == 1
    json.loads((out_dir / "summary.json").read_text(), parse_constant=reject)
