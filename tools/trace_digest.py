"""Print SHA-256 digests of stormlab's run traces and written artifacts.

Three digests, one per line:

* runs       - 32 direct runs: every algorithm on every problem family it
               accepts, at T = 300 and again at T = 130 with
               `keep_iterates` (sgd and storm_original with non-default
               parameters there), plus fs_storm_svrg with `period` and with
               `period`/`eta_const`. Each run hashes its seven trace
               columns, tau, x_tau, x_final, the config JSON in key order,
               iterates and estimates.
* unmeasured - the same 32 runs without the three measured columns (f,
               grad_norm, est_error): everything the algorithms compute,
               which a change to how the trace is measured must not move.
* artifacts  - every file `write_outputs` writes for the criterion-11
               config, for a three-algorithm grid at thin 3 (and again
               at thin 7 and 1000) and for a grid whose real values are
               written as ints and whole ones as floats, name and bytes,
               and each grid run's config JSON. summary.json echoes the
               config as written; a run's config echoes real values as
               floats and whole ones as ints.

A refactor that must not change outputs compares these at both commits:

    PYTHONPATH=src python tools/trace_digest.py
"""

import hashlib
import json
import os
import tempfile

from stormlab import harness, optimizers, problems

EXTRA = {"sgd": {"eta0": 0.05, "decay": 0.1}, "storm_original": {"k": 0.2, "w": 2.0, "c": 5.0}}
CRITERION_11 = {
    "problem": {"name": "noisy_quadratic", "dim": 10, "L": 8.0, "mu": 1.0, "sigma": 0.5, "seed": 7},
    "algorithms": [{"name": "ada_storm"}, {"name": "sgd", "eta0": 0.05, "decay": 0.1}],
    "grid": {"T": [200, 400], "seeds": [1, 2, 3]},
}
THREE_ALGORITHMS = {
    "problem": {"name": "finite_sum", "n": 60, "dim": 5, "seed": 3},
    "algorithms": [{"name": "fs_storm"}, {"name": "fs_storm_svrg", "period": 9},
                   {"name": "storm_original"}],
    "grid": {"T": [50, 90], "seeds": [1, 2]},
    "output": {"thin": 3},
}
AS_WRITTEN = {
    "problem": {"name": "noisy_quadratic", "dim": 6.0, "L": 4, "mu": 1, "sigma": 1, "seed": 5.0},
    "algorithms": [{"name": "sgd", "eta0": 1, "decay": 1},
                   {"name": "storm_original", "k": 1, "w": 2, "c": 10}],
    "grid": {"T": [40.0, 70], "seeds": [1.0, 2]},
}


MEASURED = ("f", "grad_norm", "est_error")


def _hash_run(h, record, skip=()):
    for name, column in record.columns().items():
        if name not in skip:
            h.update(column.tobytes())
    h.update(str(record.tau).encode())
    for array in (record.x_tau, record.x_final, record.iterates, record.v_history):
        h.update(b"-" if array is None else array.tobytes())
    h.update(json.dumps(record.config).encode())


def _runs():
    specs = {spec["name"]: spec for spec in harness.CHECK_PROBLEMS}
    for name, (_, families) in sorted(optimizers.ALGORITHMS.items()):
        for family in sorted(families):
            problem = problems.from_spec(specs[family])
            yield optimizers.run_algorithm(name, problem, 300, 1)
            yield optimizers.run_algorithm(
                name, problem, 130, 2, keep_iterates=True, **EXTRA.get(name, {}))
    finite_sum = problems.from_spec(specs["finite_sum"])
    for params in ({"period": 7}, {"period": 7, "eta_const": 0.05}):
        yield optimizers.run_algorithm("fs_storm_svrg", finite_sum, 200, 3, **params)


def runs_digests() -> tuple[str, str]:
    """(runs, unmeasured) digests over the same 32 runs."""
    runs, unmeasured = hashlib.sha256(), hashlib.sha256()
    for record in _runs():
        _hash_run(runs, record)
        _hash_run(unmeasured, record, skip=MEASURED)
    return runs.hexdigest(), unmeasured.hexdigest()


def artifacts_digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        grids = [(CRITERION_11, None)] + [(THREE_ALGORITHMS, thin) for thin in (None, 7, 1000)]
        for i, (doc, thin) in enumerate(grids + [(AS_WRITTEN, None)]):
            config = harness.parse_config(doc)
            out_dir = os.path.join(tmp, str(i))
            result = harness.run_grid(config)
            harness.write_outputs(result, config, out_dir, thin=thin)
            for record in result.records:
                h.update(json.dumps(record.config).encode())
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    runs, unmeasured = runs_digests()
    print(f"runs       {runs}")
    print(f"unmeasured {unmeasured}")
    print(f"artifacts  {artifacts_digest()}")
