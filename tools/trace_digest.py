"""Print SHA-256 digests of stormlab's run traces and written artifacts.

Three digests, one per line:

* runs       - 35 direct runs: every algorithm on every problem family it
               accepts, at T = 300 and again at T = 130 with
               `keep_iterates` (sgd and storm_original with non-default
               parameters there), plus fs_storm_svrg with `period`, plus
               fs_storm and then fs_storm_svrg at T = 130 and then 300 on
               one finite sum large enough (n = 2000) to keep measured
               blocks, so the T = 300 runs reuse the T = 130 runs' blocks.
               Each run hashes its seven trace columns, tau, x_tau, x_final,
               the config JSON in key order, iterates and estimates.
* unmeasured - the same 35 runs without the three measured columns (f,
               grad_norm, est_error): everything the algorithms compute,
               which a change to how the trace is measured must not move.
* artifacts  - every file `run_grid(config, out_dir=...)` writes for the
               criterion-11 config, for a three-algorithm grid whose
               config sets thin 3 (and again 7 and 1000) and for a grid
               whose real values are written as ints and whole ones as
               floats, name and bytes, and each grid run's config JSON. summary.json and
               every run's config echo the checked values: reals as floats,
               whole numbers as ints.

A refactor that must not change outputs compares these at both commits:

    PYTHONPATH=src python tools/trace_digest.py

With `--keep DIR` (empty or absent) the artifact trees are left in DIR, one
numbered directory per grid, so two checkouts' trees can be compared with
`diff -r`. With `--each`, one line per run comes first: its runs digest,
algorithm, family, T, seed and tunables, so two checkouts' lines can be
compared with `diff` to find the runs that moved.
"""

import argparse
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
}
# At n = 2000, dim 5 about 14 measured blocks fit in the features' bytes.
KEEPS_BLOCKS = {"name": "finite_sum", "n": 2000, "dim": 5, "seed": 5}
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
    yield optimizers.run_algorithm("fs_storm_svrg", finite_sum, 200, 3, period=7)
    keeps_blocks = problems.from_spec(KEEPS_BLOCKS)
    for name in ("fs_storm", "fs_storm_svrg"):
        for T in (130, 300):
            yield optimizers.run_algorithm(name, keeps_blocks, T, 1)


def _run_line(record) -> str:
    """The run's own runs digest, then what it ran."""
    h = hashlib.sha256()
    _hash_run(h, record)
    config = record.config
    params = {k: v for k, v in config["algorithm"].items() if k != "name"}
    return (f"{h.hexdigest()} {config['algorithm']['name']} {config['problem']['name']} "
            f"T={config['T']} seed={config['seed']} {json.dumps(params, sort_keys=True)}")


def runs_digests() -> tuple[str, str, list]:
    """(runs, unmeasured) digests over the same 35 runs, and one
    `_run_line` per run."""
    runs, unmeasured, lines = hashlib.sha256(), hashlib.sha256(), []
    for record in _runs():
        _hash_run(runs, record)
        _hash_run(unmeasured, record, skip=MEASURED)
        lines.append(_run_line(record))
    return runs.hexdigest(), unmeasured.hexdigest(), lines


def artifacts_digest(keep=None) -> str:
    """The artifacts digest; with `keep`, the trees are written there."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        grids = [CRITERION_11, *(dict(THREE_ALGORITHMS, output={"thin": thin})
                                 for thin in (3, 7, 1000)), AS_WRITTEN]
        for i, doc in enumerate(grids):
            config = harness.parse_config(doc)
            out_dir = os.path.join(tmp if keep is None else keep, str(i))
            result = harness.run_grid(config, out_dir=out_dir)
            for record in result.records:
                h.update(json.dumps(record.config).encode())
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", metavar="DIR", help="leave the artifact trees in DIR")
    parser.add_argument("--each", action="store_true", help="first print one line per run")
    args = parser.parse_args()
    if args.keep is not None and os.path.isdir(args.keep) and os.listdir(args.keep):
        parser.error(f"--keep directory '{args.keep}' is not empty")
    runs, unmeasured, lines = runs_digests()
    if args.each:
        for line in lines:
            print(f"run        {line}")
    print(f"runs       {runs}")
    print(f"unmeasured {unmeasured}")
    print(f"artifacts  {artifacts_digest(args.keep)}")
