"""The experiment harness: JSON configs, grid runs, and on-disk artifacts.

A config names one problem, one or more algorithms, a horizon grid, and
seeds. Running it produces one trace CSV per (algorithm, T, seed) cell plus
summary.csv / summary.json / per-algorithm plot CSVs, all byte-reproducible.
The same config works from the command line:

    stormlab run config.json --out runs --jobs 4
    stormlab check
    stormlab slopes runs/summary.json
"""

import json
import os
import tempfile

from stormlab import load_summary, parse_config, run_grid

CONFIG = {
    "problem": {
        "name": "noisy_quadratic",
        "dim": 10, "L": 8.0, "mu": 1.0, "sigma": 0.5, "seed": 7,
    },
    "algorithms": [
        {"name": "ada_storm", "alpha": 0.3},
        {"name": "sgd", "eta0": 0.05, "decay": 0.1, "label": "sgd-decay"},
    ],
    "grid": {"T": [200, 400, 800], "seeds": [1, 2, 3]},
    "output": {"thin": 4},
}


def main():
    config = parse_config(CONFIG)
    print("canonical config echo:")
    print(config.to_json())
    print()

    with tempfile.TemporaryDirectory() as out:
        result = run_grid(config, jobs=2, out_dir=out)
        print(f"ran {len(result.cells)} cells, failures: {len(result.failures)}")
        print()
        print("cross-seed summary rows:")
        for row in result.rows:
            print(
                f"  {row.algorithm:>10}  T={row.T:>4}  "
                f"avg |grad| = {row.avg_grad_norm:.4f} +- {row.avg_grad_norm_stderr:.4f}"
            )

        names = sorted(os.listdir(out))
        print()
        print(f"wrote {len(names)} files:")
        for name in names[:6]:
            print(f"  {name}")
        print("  ...")

        rows, slopes, failures = load_summary(os.path.join(out, "summary.json"))
        print()
        print("slope fits stored in summary.json:")
        for fit in slopes:
            print(
                f"  {fit['algorithm']:>10}: slope={fit['slope']:+.3f} "
                f"r^2={fit['r_squared']:.3f}"
            )

        trace = next(name for name in names if name.startswith("trace__"))
        with open(os.path.join(out, trace)) as fh:
            head = [next(fh) for _ in range(3)]
        print()
        print(f"first trace file ({trace}), thinned 4x:")
        for line in head:
            print("  " + line.rstrip()[:72])

    print()
    print("rerunning the same config reproduces every file byte for byte.")
    print("config JSON for the CLI:")
    print(json.dumps(CONFIG, indent=2)[:180] + " ...")


if __name__ == "__main__":
    main()
