"""bench/tracer.py wraps library functions by name, so a rename or a removal
in the library must fail here, not only in a traced benchmark round."""

import os
import subprocess
import sys

from stormlab.harness import CHECK_PROBLEMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a fresh interpreter: the tracer patches classes and module
# namespaces for the rest of the process.
TRACED_GRIDS = """
import sys
sys.path[:0] = sys.argv[1:3]
import stormlab
from stormlab import cli, estimators, harness, optimizers, problems
from tracer import Tracer, install_tracer

tracer = Tracer()
install_tracer(tracer, {"problems": problems, "estimators": estimators,
                        "optimizers": optimizers, "harness": harness, "cli": cli})
for spec in harness.CHECK_PROBLEMS:
    names = [name for name, (_, families) in optimizers.ALGORITHMS.items()
             if spec["name"] in families]
    config = harness.parse_config({
        "problem": spec,
        "algorithms": [{"name": name} for name in names],
        "grid": {"T": [16, 32, 64], "seeds": [1, 2]},
    })
    before = tracer.snapshot()
    result = harness.run_grid(config)
    assert result.ok, result.failures
    assert len(result.rows) == 3 * len(names), spec
    # every family's measurement stays where the tracer wraps it
    assert tracer.since(before)[0].get("problems.value_and_grad", [0])[0] > 0, spec
    print(spec["name"], *names)
stats, _ = tracer.snapshot()
for name in ("harness.parse_config", "harness.run_grid", "harness.cell",
             *(f"optimizers.{runner.__name__}" for runner, _ in optimizers.ALGORITHMS.values())):
    assert stats[name][0] > 0, name
"""


def test_install_tracer_wraps_a_grid_of_every_algorithm_on_every_family():
    run = subprocess.run(
        [sys.executable, "-c", TRACED_GRIDS, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "bench")],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    runs = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()}
    assert sorted(runs) == sorted(spec["name"] for spec in CHECK_PROBLEMS)
    assert sorted({name for names in runs.values() for name in names}) == [
        "ada_storm", "ada_storm_doubling", "comp_storm", "fs_storm", "fs_storm_svrg", "sgd",
        "storm_original",
    ]
