"""stormlab benchmark: end-to-end and per-layer figures for three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload rate-grid --seed 1 --seconds 40 --trace 0

Each round runs the whole workload in a fresh Python process, so every
round pays the package import and config parse a user pays. Rounds repeat
until the next one would overrun --seconds; figures are medians over rounds.
With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 the same rounds run, then one more round with spans
on every layer, and the JSON object holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("rate-grid", "fs-large-n", "cli-artifacts")

MIN_SETUPS = 9  # set-up samples per run; set-up-only rounds fill the gap
IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s


LAYER_UNITS = {
    "problems.draw_us": "us",
    "problems.draws_per_step": "1/step",
    "problems.oracle_us": "us",
    "problems.oracle_calls_per_step": "1/step",
    "problems.measure_us_per_step": "us",
    "problems.full_passes": "count",
    "problems.measure_bytes_per_step": "B",
    "estimators.update_us": "us",
    "estimators.table_update_us": "us",
    "estimators.table_bytes_copied_per_step": "B",
    "estimators.init_ms": "ms",
    "schedules.lr_us": "us",
    "optimizers.self_us_per_step": "us",
    "optimizers.cell_us_per_step_p50": "us",
    "optimizers.cell_us_per_step_tail": "us",
    "analysis.summarize_ms": "ms",
    "analysis.slope_fit_ms": "ms",
    "harness.parse_config_ms": "ms",
    "harness.grid_overhead_ms": "ms",
    "harness.write_trace_us_per_row": "us",
    "harness.trace_rows_written": "count",
    "harness.artifact_bytes": "B",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def machine_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread per process: the workloads are single-process by
    # design, and the --jobs 2 pool must not oversubscribe two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}-{os.getpid()}")
        self.count = 0

    def _timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("out of time before a round could start")
        return left

    def round(self, mode):
        """Run one round; returns its result with set-up and wall seconds."""
        self.count += 1
        out = os.path.join(self.dir, f"round{self.count}-{mode}")
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "round.py"), self.workload,
               str(self.seed), out, mode]
        timeout = self._timeout()
        with open(os.path.join(out, "stderr.txt"), "w", encoding="utf-8") as err:
            start = time.monotonic()
            # A session of its own, so a round that overruns is killed
            # together with its pool workers.
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finished = time.monotonic()
        path = os.path.join(out, "result.json")
        if proc.returncode != 0 or not os.path.isfile(path):
            with open(os.path.join(out, "stderr.txt"), encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{mode} round exited {proc.returncode}:\n{tail}")
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_setup"] - start
        if "t_end" in result:
            result["wall_s"] = result["t_end"] - start
        result["round_s"] = finished - start
        shutil.rmtree(out)
        return result

    def import_seconds(self):
        code = ("import time; t = time.perf_counter(); import stormlab; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                             capture_output=True, text=True, timeout=self._timeout(),
                             check=True)
        return float(out.stdout.strip())


def cell_percentiles(cells):
    """Median and tail of per-cell wall time per step, in microseconds.

    The tail is the highest percentile with at least ten cells beyond it;
    below forty cells there is none.
    """
    per_step = sorted(1e6 * c["s"] / c["T"] for c in cells)
    p50 = statistics.median(per_step)
    tail = per_step[len(per_step) - 11] if len(per_step) >= 40 else None
    return p50, tail, len(per_step)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stormlab", "__init__.py")):
        print(f"bench: no stormlab sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    runner = Runner(args.workload, args.seed, t0 + RUN_LIMIT_S)
    machine = machine_block()
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    try:
        rounds = []
        while True:
            rounds.append(runner.round("run"))
            spent = time.monotonic() - t0
            typical = statistics.median(r["round_s"] for r in rounds)
            if spent + typical > args.seconds:
                break
        setups = [r["setup_s"] for r in rounds]
        setups += [runner.round("setup")["setup_s"] for _ in range(MIN_SETUPS - len(setups))]
        traced = runner.round("trace") if args.trace else None
        imports = [runner.import_seconds() for _ in range(IMPORT_PROBES)] if args.trace else None
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)

    walls = [r["wall_s"] for r in rounds]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "seed_steps_per_s": (statistics.median(
            r["steps"] / (r["wall_s"] - r["setup_s"]) for r in rounds), "1/s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024.0, "MB"),
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"steps/round={rounds[0]['steps']} setup samples={len(setups)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("  round wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    cells = [c for r in rounds for c in r["cells"]]
    p50, tail, n_cells = cell_percentiles(cells)
    print(f"  cell us/step: p50={p50:.4g} tail={tail if tail is None else round(tail, 4)} "
          f"over {n_cells} untraced cells")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = dict(traced["layers"])
        layers["optimizers.cell_us_per_step_p50"] = p50
        if tail is not None:
            layers["optimizers.cell_us_per_step_tail"] = tail
        layers["cli.import_s"] = statistics.median(imports)
        layers["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"][0]
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in sorted(layers.items())}
        for name, split in traced["by_algorithm"].items():
            untraced = [c for c in cells if c["algorithm"] == name]
            print(f"  {name}: untraced cell p50 {cell_percentiles(untraced)[0]:.4g} us/step; traced "
                  + ", ".join(f"{k} {v:.4g}" for k, v in split.items()))
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "spans": traced["spans"],
                       "counters": traced["counters"], "by_algorithm": traced["by_algorithm"],
                       "metrics": metrics}, fh, indent=1, sort_keys=True)
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")

    failures = [f for r in rounds + ([traced] if traced else []) for f in r["failures"]]
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"operations: attempted={attempted} failed={failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
